"""qtrin benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass is a fresh single-threaded
``bench/worker.py`` process, so caches start cold as they do for a CLI
invocation; the seed only permutes op order (see workloads.py).

With ``--trace 0`` the run makes at least two untraced passes, and more
while the next one is expected to end within S seconds.  Before each
pass it times set-up alone in a few fresh processes.  Every time is
scaled to a reference machine speed, measured by a calibration kernel in
the same process (see ``CALIBRATION_REF_S``).  Time metrics take each op
at its fastest over the passes (see ``end_to_end``); set-up time and peak
memory are medians.  With ``--trace 1`` the run makes one
untraced and one traced pass, and reports the per-layer metrics of the
traced pass with the tracing overhead.  The first pass of every run also
checks the result digests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the run's seed, machine and per-pass detail, which is also
written under ``.bench_build/results``.  Without the program's sources
the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_build")
MIN_PASSES = 2          # so every op has a best of at least two
# Every time metric is reported at a reference machine speed.  The
# calibration kernel (worker.calibration_kernel) takes CALIBRATION_REF_S
# seconds on an unloaded 2.1 GHz Intel Xeon with Python 3.11; a time is
# scaled by (CALIBRATION_REF_S / kernel time measured around it) raised
# to CALIBRATION_EXPONENT, so that a slower moment of a shared machine
# does not read as a slower program.  The kernel feels contention more
# than the program does: over 164 passes in 60 runs on that machine, the
# slope of log(pass time) on log(kernel time) among passes of the same
# run was 0.41-0.72 per workload and about 0.6 overall, hence the
# exponent.
CALIBRATION_REF_S = 0.002
CALIBRATION_EXPONENT = 0.6
SETUP_PROBES = 4        # set-up-only processes before each pass
PASS_TIMEOUT_S = 170


def _worker(args: list[str]) -> dict:
    # Bytecode is cached under OUT whatever the caller's environment says,
    # so set-up times imports from bytecode, as for an installed CLI.
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=os.path.join(OUT, "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py")] + args,
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def _at_ref_speed(seconds: float, calibration_s: float) -> float:
    return seconds * (CALIBRATION_REF_S / calibration_s) \
        ** CALIBRATION_EXPONENT


def end_to_end(passes: list[dict], setups: list[dict]) -> dict:
    """Time metrics take each op at its fastest over the run's passes,
    after scaling it to the reference speed by the calibration measured
    around it.

    Every pass runs the same op sequence from cold caches, so an op's
    fastest latency is the one least disturbed by other load on the
    machine; ``wall_s`` and ``cpu_s`` sum those per-op figures.
    """
    def best(key):
        return [min(_at_ref_speed(t, c) for t, c in zip(times, calib))
                for times, calib in zip(zip(*(p[key] for p in passes)),
                                        zip(*(p["op_calibration_s"]
                                              for p in passes)))]

    best_s = best("op_s")
    best_ms = [1000 * s for s in best_s]
    return {
        "wall_s": sum(best_s),
        "cpu_s": sum(best("op_cpu_s")),
        "op_ms_p50": _percentile(best_ms, 50),
        "op_ms_p90": _percentile(best_ms, 90),
        "setup_s": statistics.median(
            _at_ref_speed(s["setup_s"], s["calibration_s"]) for s in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    start = time.perf_counter()
    _worker(["setup"])                     # warm bytecode and file caches
    base = ["pass", workload, str(seed)]
    if trace:
        spans = os.path.join(OUT, "results",
                             f"{workload}-seed{seed}-spans.json")
        plain = _worker(base + ["--digests"])
        traced = _worker(base + ["--trace", spans])
        passes = [plain, traced]
        metrics = dict(traced["layers"]["metrics"])
        metrics["trace.overhead_ratio"] = \
            _at_ref_speed(traced["wall_s"], traced["calibration_s"]) / \
            _at_ref_speed(plain["wall_s"], plain["calibration_s"])
    else:
        passes, setups, durations = [], [], []
        while len(passes) < MIN_PASSES or (time.perf_counter() - start
                                           + statistics.median(durations)
                                           <= seconds):
            t = time.perf_counter()
            # set-up samples spread over the run, so that one burst of
            # load on the machine cannot decide their median
            setups += [_worker(["setup"]) for _ in range(SETUP_PROBES)]
            passes.append(_worker(base + (["--digests"] if not passes
                                          else [])))
            durations.append(time.perf_counter() - t)
        metrics = end_to_end(passes, setups)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    if trace:
        metrics["error_rate"] = failed / attempted
    digests = [d for p in passes for d in p["digests"]]
    # Known-defect ops may fail (they still count in ``failed``); any other
    # failure, or a result digest that differs, makes the run incorrect.
    correct = bool(digests) and all(d["ok"] for d in digests) and \
        not any(p["unexpected_failures"] for p in passes)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "passes": passes}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qtrin", "cli.py")):
        print(f"error: no qtrin sources under {ROOT}/src", file=sys.stderr)
        return 2
    declared = _declared()["per_layer" if args.trace else "end_to_end"]
    res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if set(res["metrics"]) != set(declared):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(res['metrics']) ^ set(declared))}")
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(), "passes": len(res["passes"])}
    detail = dict(meta, **res)
    path = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(detail, f, indent=1)
    print(json.dumps(dict(meta, result_file=os.path.relpath(path, ROOT))))
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": res["metrics"][name], "unit": unit}
                    for name, unit in declared.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark on every workload and write BENCH_<label>.json.

    python3 scripts/bench_file.py --seed 7 --seconds 8 [--label L]

Run from anywhere inside a checkout.  Each workload that BENCHMARK.json
declares is run once, untraced, by ``bench/run.py`` of this checkout, and
its end-to-end metrics are written with the machine, the Python version
and the commit to BENCH_<label>.json at the root of the checkout.  The
label defaults to the short commit hash.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--label")
    args = ap.parse_args(argv)
    commit = _git("rev-parse", "HEAD")
    label = args.label or commit[:7]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    results = {}
    for name in workloads:
        proc = subprocess.run(
            [sys.executable, os.path.join("bench", "run.py"),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        results[name] = {
            "correct": last["correct"], "attempted": last["attempted"],
            "failed": last["failed"],
            "metrics": {k: v["value"] for k, v in last["metrics"].items()}}
    out = {"label": label, "commit": commit,
           "dirty": bool(_git("status", "--porcelain", "--", "src")),
           "machine": {"cpu": _cpu(), "nproc": len(os.sched_getaffinity(0)),
                       "platform": platform.platform()},
           "python": platform.python_version(),
           "seed": args.seed, "seconds": args.seconds,
           "workloads": results}
    path = os.path.join(ROOT, f"BENCH_{label}.json")
    with open(path, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print(path)
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

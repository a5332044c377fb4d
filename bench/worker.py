"""One benchmark pass in a fresh process, so every ``lru_cache`` starts
cold as it does for a CLI invocation.

    python3 bench/worker.py setup
    python3 bench/worker.py pass WORKLOAD SEED [--digests] [--trace SPANS]

``setup`` times importing qtrin and building the CLI parser.  ``pass``
does the same, then runs every op of the workload through
``qtrin.cli.main`` into an in-memory buffer, timing each op.  The op
outputs are checked after the timed section, and with ``--digests`` the
workload's result digests are checked too.  While untraced ops run, a
timer signal times a fixed calibration kernel every 0.1 s
(``SpeedProbe``); the probe's own time is taken out of every op's time,
and the median kernel time around each op is reported with it.  With
``--trace`` the ops run under the layer tracer instead, whose spans are
written to SPANS.  The result is one JSON object on the last line of
standard output.
"""

# Only modules the interpreter has loaded at start-up are imported here;
# the rest are imported after set-up is timed, so that set-up time counts
# every module the program itself needs.
import os
import sys
import time


def add_qtrin_to_path():
    """Put the checkout's ``src`` first on the path; raises if absent."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qtrin", "cli.py")):
        raise FileNotFoundError(f"no qtrin sources under {src}")
    sys.path.insert(0, src)


CALIBRATION_INTERVAL_S = 0.1


def calibration_kernel() -> float:
    """Seconds taken by a fixed pure-Python workload shaped like the
    program's hot loop, a sparse dict convolution of int coefficients.
    It never calls qtrin, so no change to the program can move it."""
    start = time.perf_counter()
    a = {e: 7 * e + 1 for e in range(60)}
    b = {e: 3 - e for e in range(0, 80, 2)}
    for _ in range(8):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                s = out.get(e, 0) + ca * cb
                if s:
                    out[e] = s
                else:
                    del out[e]
    return time.perf_counter() - start


class SpeedProbe:
    """Times the calibration kernel from a timer signal while ops run, to
    measure how fast the shared machine is at each moment.  ``spent`` is
    the time taken by the probe itself, which callers subtract."""

    def __init__(self):
        self.times: list[float] = []       # when each sample started
        self.samples: list[float] = []     # kernel seconds
        self.spent = 0.0

    def sample(self):
        self.times.append(time.perf_counter())
        self.samples.append(calibration_kernel())

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.sample()
        self.spent += time.perf_counter() - start

    def around(self, start: float, end: float) -> float:
        """Median kernel time within half a second of [start, end], or of
        the five samples nearest to it if fewer fall there."""
        import statistics
        near = [s for t, s in zip(self.times, self.samples)
                if start - 0.5 <= t <= end + 0.5]
        if len(near) < 5:
            mid = (start + end) / 2
            by_distance = sorted(zip(self.times, self.samples),
                                 key=lambda ts: abs(ts[0] - mid))
            near = [s for _, s in by_distance[:5]]
        return statistics.median(near)

    def __enter__(self):
        import signal
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S,
                         CALIBRATION_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        import signal
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _timed_setup():
    """Import the program and build its parser, as the first op would."""
    start = time.perf_counter()
    from qtrin import cli
    cli.build_parser()
    return cli, time.perf_counter() - start


def _check_output(op, code, text):
    """(number of checks, failed check keys) for one op's output."""
    import json
    if op.argv[0] == "suite":
        # one check per criterion; lines read "[pass] 12. name (..)"
        results = {}
        for line in text.splitlines():
            if line.startswith(("[pass]", "[FAIL]")):
                number = int(line[7:line.index(".")])
                results[f"crit{number:02d}"] = line.startswith("[pass]")
        failed = sorted(k for k, ok in results.items() if not ok)
        if len(results) != 12 or code != (1 if failed else 0):
            failed = sorted(f"crit{k:02d}" for k in range(1, 13))
        return 12, failed
    try:
        doc = json.loads(text)
    except ValueError:
        return 1, [op.name]
    if op.argv[0] == "partitions":
        ok = code == 0 and doc["all_equal"] and \
            len(doc["rows"]) == int(op.argv[op.argv.index("--nmax") + 1]) + 1
    else:
        ok = code == 0 and len(doc) == 1 and doc[0]["match"] is True \
            and doc[0]["id"] == op.argv[op.argv.index("--id") + 1]
    return 1, [] if ok else [op.name]


def run_pass(cli, workload, seed, digests, spans_path):
    import contextlib
    import io
    import resource
    import statistics
    from workloads import ops_for

    ops = ops_for(workload, seed)
    tracer = None
    if spans_path:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    probe = SpeedProbe()
    op_s, op_cpu_s, op_span, outcomes = [], [], [], []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    # the tracer's spans would count the probe's time, so it runs untraced
    with probe if tracer is None else contextlib.nullcontext():
        for op in ops:
            buf = io.StringIO()
            spent = probe.spent
            t, c = time.perf_counter(), time.process_time()
            try:
                code, error = cli.main(list(op.argv), out=buf), None
            except Exception as exc:   # a crash is a failed op, not an abort
                code, error = None, f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            spent = probe.spent - spent
            op_span.append((t, end))
            op_s.append(end - t - spent)
            op_cpu_s.append(time.process_time() - c - spent)
            outcomes.append((code, error, buf.getvalue()))
    wall = time.perf_counter() - wall0 - probe.spent
    cpu = time.process_time() - cpu0 - probe.spent
    for _ in range(5):
        probe.sample()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = None
    if tracer is not None:
        tracer.restore()
        layers = tracer.metrics()
        tracer.write_spans(spans_path)

    checks, failed = 0, set()
    for op, (code, _, text) in zip(ops, outcomes):
        n, bad = _check_output(op, code, text)
        checks += n
        failed.update(bad)
    digest_results = []
    if digests:
        import digests as digest_mod
        digest_results = digest_mod.check(workload)
        failed.update(d["op"] for d in digest_results if not d["ok"])
    known = {op.name for op in ops if op.known_defect}
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "calibration_s": statistics.median(probe.samples),
        "calibration_samples": len(probe.samples),
        "op_calibration_s": [probe.around(*span) for span in op_span],
        "peak_rss_mb": rss_mb,
        "op_s": op_s,
        "op_cpu_s": op_cpu_s,
        "attempted": checks,
        "failed": sorted(failed),
        "unexpected_failures": sorted(failed - known),
        "errors": {op.name: error for op, (_, error, _) in zip(ops, outcomes)
                   if error},
        "digests": digest_results,
        "layers": layers,
    }


def main(argv):
    add_qtrin_to_path()
    cli, setup_s = _timed_setup()
    import json
    import statistics
    result = {"setup_s": setup_s, "calibration_s": statistics.median(
        calibration_kernel() for _ in range(9))}
    if argv[0] == "pass":
        workload, seed = argv[1], int(argv[2])
        spans_path = argv[argv.index("--trace") + 1] \
            if "--trace" in argv else None
        result.update(run_pass(cli, workload, seed, "--digests" in argv,
                               spans_path))
    elif argv[0] != "setup":
        raise SystemExit(f"unknown worker mode {argv[0]!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])

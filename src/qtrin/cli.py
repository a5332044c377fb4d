"""Command-line front end.

Subcommands:

* ``verify``     one identity instance, one report record;
* ``sweep``      a parameter grid for one identity, one record each;
* ``coeffs``     print series coefficients of one side of an identity;
* ``partitions`` the Capparelli cross-check table;
* ``suite``      the full acceptance battery.

Exit codes: 0 all checks matched, 1 at least one mismatch, 2 invalid
invocation.  A sweep verifies its instances one after another in the
calling process, so each reuses the rows and tables that the ones before
it built, and reports stream record-by-record in parameter order.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from typing import Optional

from .identities import (REGISTRY, IdentityInstance, VerificationReport,
                         _resolve, compute_side, identity_ids,
                         verify_identity)

USAGE_ERROR = 2


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# report serialization

def report_record(rep: VerificationReport) -> dict:
    mism = None
    if rep.first_mismatch is not None:
        # a series in t leads with the t-degree and x exponent
        *pos, e, lc, rc = rep.first_mismatch
        mism = dict(zip(("t_degree", "x_exponent"), pos))
        mism.update(exponent_halves=e, lhs=lc, rhs=rc)
    return {
        "id": rep.instance.id,
        "params": {k: rep.instance.params[k]
                   for k in sorted(rep.instance.params)},
        "cutoff_halves": rep.instance.cutoff,
        "match": rep.match,
        "first_mismatch": mism,
        "elapsed_ms": rep.elapsed_ms,
    }


_CSV_FIELDS = ["id", "params", "cutoff_halves", "match",
               "mismatch_exponent_halves", "mismatch_lhs", "mismatch_rhs",
               "elapsed_ms"]
_CSV_GRADED_FIELDS = ["mismatch_t_degree", "mismatch_x_exponent"]


def _csv_row(rec: dict, graded: bool) -> list:
    m = rec["first_mismatch"] or {}
    row = [rec["id"], json.dumps(rec["params"], sort_keys=True),
           rec["cutoff_halves"], rec["match"],
           m.get("exponent_halves"), m.get("lhs"), m.get("rhs"),
           rec["elapsed_ms"]]
    return row + [m.get("t_degree"), m.get("x_exponent")] if graded else row


class ReportWriter:
    """Streams records to ``out`` in the chosen format.  ``graded``: the
    sides are series in t, and a csv report has two more columns for the
    t-degree and x exponent of a mismatch."""

    def __init__(self, fmt: str, out, graded: bool = False):
        self.fmt = fmt
        self.out = out
        self.graded = graded
        self._first = True
        if fmt == "json":
            out.write("[")
        elif fmt == "csv":
            import csv              # here, so json and text never load it
            self._csv = csv.writer(out)
            self._csv.writerow(_CSV_FIELDS + _CSV_GRADED_FIELDS if graded
                               else _CSV_FIELDS)

    def write(self, rep: VerificationReport):
        rec = report_record(rep)
        if self.fmt == "json":
            sep = "\n " if self._first else ",\n "
            self.out.write(sep + json.dumps(rec, sort_keys=True))
        elif self.fmt == "csv":
            self._csv.writerow(_csv_row(rec, self.graded))
        else:
            status = "ok " if rec["match"] else "FAIL"
            mism = rec["first_mismatch"]
            tail = "" if mism is None else f"  first mismatch {mism}"
            params = json.dumps(rec["params"], sort_keys=True)
            self.out.write(f"{status} {rec['id']} {params} "
                           f"cutoff={rec['cutoff_halves']} "
                           f"{rec['elapsed_ms']}ms{tail}\n")
        self._first = False
        self.out.flush()

    def close(self):
        if self.fmt == "json":
            self.out.write("\n]\n" if not self._first else "]\n")
        self.out.flush()


# ---------------------------------------------------------------------------
# argument handling

def _parse_assignment(text: str) -> tuple[str, int]:
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise UsageError(f"expected name=integer, got {text!r}")
    try:
        return name, int(value)
    except ValueError:
        raise UsageError(f"parameter {name!r} needs an integer, "
                         f"got {value!r}") from None


def _parse_params(args) -> dict[str, int]:
    params: dict[str, int] = {}
    for text in args.param or []:
        name, value = _parse_assignment(text)
        if name in params:
            raise UsageError(f"duplicate --param {name!r}")
        params[name] = value
    return params


def _parse_range(text: str) -> tuple[str, list[int]]:
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise UsageError(f"expected name=lo..hi, got {text!r}")
    lo, sep2, hi = value.partition("..")
    try:
        if sep2:
            lo_i, hi_i = int(lo), int(hi)
            if hi_i < lo_i:
                raise UsageError(f"empty range for {name!r}: {value}")
            return name, list(range(lo_i, hi_i + 1))
        return name, [int(value)]
    except ValueError:
        raise UsageError(f"range for {name!r} must be lo..hi or a single "
                         f"integer, got {value!r}") from None


def _cutoff_halves(args) -> Optional[int]:
    if args.cutoff is not None and args.cutoff_q is not None:
        raise UsageError("give either --cutoff or --cutoff-q, not both")
    if args.cutoff is not None:
        return args.cutoff
    if args.cutoff_q is not None:
        return 2 * args.cutoff_q
    return None


def _instances_for_sweep(id: str, ranges: list[tuple[str, list[int]]],
                         fixed: dict, cutoff: Optional[int]):
    names = [n for n, _ in ranges]
    if len(set(names)) != len(names):
        raise UsageError("duplicate --range name")
    both = sorted(set(names) & set(fixed))
    if both:
        raise UsageError(f"given as both --range and --param: "
                         f"{', '.join(both)}")
    return [IdentityInstance(id, {**fixed, **dict(zip(names, values))},
                             cutoff)
            for values in itertools.product(*(v for _, v in ranges))]


def _validate(instances):
    """Schema-check every instance up front so bad usage exits 2 before
    any work runs."""
    for inst in instances:
        try:
            _resolve(inst)
        except (KeyError, ValueError) as exc:
            raise UsageError(str(exc)) from None


def _graded(id: str) -> bool:
    """Whether the sides of ``id`` are series in t: the ids with a t
    cutoff."""
    return "t_cutoff" in REGISTRY[id].param_names


def _run_instances(instances, fmt: str, out) -> int:
    _validate(instances)
    writer = ReportWriter(fmt, out,
                          any(_graded(inst.id) for inst in instances))
    all_match = True
    try:
        for rep in map(verify_identity, instances):
            all_match &= rep.match
            writer.write(rep)
    except ValueError as exc:
        # a side known only below the requested cutoff: a failed check
        print(f"error: {exc}", file=sys.stderr)
        all_match = False
    writer.close()
    return 0 if all_match else 1


# ---------------------------------------------------------------------------
# subcommands

def cmd_verify(args, out) -> int:
    params = _parse_params(args)
    inst = IdentityInstance(args.id, params, _cutoff_halves(args))
    return _run_instances([inst], args.format, out)


def cmd_sweep(args, out) -> int:
    if not args.range:
        raise UsageError("sweep needs at least one --range name=lo..hi")
    ranges = [_parse_range(r) for r in args.range]
    fixed = _parse_params(args)
    insts = _instances_for_sweep(args.id, ranges, fixed,
                                 _cutoff_halves(args))
    return _run_instances(insts, args.format, out)


def cmd_coeffs(args, out) -> int:
    params = _parse_params(args)
    inst = IdentityInstance(args.id, params, _cutoff_halves(args))
    _validate([inst])
    if _graded(inst.id):
        raise UsageError(f"{inst.id} {args.side} is a series in (t, q) "
                         "or (t, x, q), not q")
    side = compute_side(inst, args.side)
    rows = [{"exponent_halves": e, "coefficient": c}
            for e, c in sorted(side.terms.items())]
    if args.format == "json":
        out.write(json.dumps({"id": inst.id, "params": params,
                              "side": args.side,
                              "cutoff_halves": inst.cutoff,
                              "coefficients": rows},
                             sort_keys=True) + "\n")
    elif args.format == "csv":
        import csv
        w = csv.writer(out)
        w.writerow(["exponent_halves", "coefficient"])
        for r in rows:
            w.writerow([r["exponent_halves"], r["coefficient"]])
    else:
        for r in rows:
            e, c = r["exponent_halves"], r["coefficient"]
            q = f"q^{e // 2}" if e % 2 == 0 else f"q^({e}/2)"
            out.write(f"{q:>10}  {c}\n")
    return 0


def cmd_partitions(args, out) -> int:
    from .partitions import VARIANTS, capparelli_chain
    if args.variant not in VARIANTS:
        raise UsageError(f"unknown variant {args.variant!r}; "
                         f"known: {', '.join(sorted(VARIANTS))}")
    if args.nmax < 0:
        raise UsageError("--nmax must be non-negative")
    rows = capparelli_chain(args.nmax, VARIANTS[args.variant])
    all_equal = all(r["congruence"] == r["difference"]
                    == r["product"] == r["double_sum"] for r in rows)
    if args.format == "json":
        out.write(json.dumps({"variant": args.variant, "rows": rows,
                              "all_equal": all_equal}, sort_keys=True) + "\n")
    elif args.format == "csv":
        import csv
        w = csv.writer(out)
        w.writerow(["n", "congruence", "difference", "product", "double_sum"])
        for r in rows:
            w.writerow([r["n"], r["congruence"], r["difference"],
                        r["product"], r["double_sum"]])
    else:
        out.write("   n  congr  diff  prod  dsum\n")
        for r in rows:
            out.write(f"{r['n']:4d}  {r['congruence']:5d} {r['difference']:5d}"
                      f" {r['product']:5d} {r['double_sum']:5d}\n")
    if args.compare and not all_equal:
        return 1
    return 0


def cmd_suite(args, out) -> int:
    from .acceptance import run_battery
    results = run_battery()
    for r in results:
        out.write(r.line() + "\n")
        out.flush()
    failed = [r for r in results if not r.passed]
    out.write(f"{len(results) - len(failed)}/{len(results)} criteria "
              "passed\n")
    return 0 if not failed else 1


# ---------------------------------------------------------------------------
# entry point

@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process."""
    top = argparse.ArgumentParser(
        prog="qtrin",
        description="exact verification of q-trinomial and q-series "
                    "identities")
    sub = top.add_subparsers(dest="command")

    def add_common(p, with_side=False):
        p.add_argument("--param", action="append", metavar="NAME=VALUE",
                       help="integer parameter (repeatable)")
        p.add_argument("--cutoff", type=int, metavar="HALVES",
                       help="truncation cutoff in q^(1/2) units")
        p.add_argument("--cutoff-q", type=int, metavar="POWERS",
                       help="truncation cutoff in whole powers of q")
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default="json")
        if with_side:
            p.add_argument("--side", choices=("LHS", "RHS"), default="LHS")

    pv = sub.add_parser("verify", help="verify one identity instance")
    pv.add_argument("--id", required=True, choices=identity_ids())
    add_common(pv)

    ps = sub.add_parser("sweep", help="verify a parameter grid")
    ps.add_argument("--id", required=True, choices=identity_ids())
    ps.add_argument("--range", action="append", metavar="NAME=LO..HI",
                    help="swept parameter (repeatable)")
    add_common(ps)

    pc = sub.add_parser("coeffs", help="print coefficients of one side")
    pc.add_argument("--id", required=True, choices=identity_ids())
    add_common(pc, with_side=True)

    pp = sub.add_parser("partitions", help="Capparelli cross-check table")
    pp.add_argument("--variant", required=True)
    pp.add_argument("--nmax", type=int, default=40)
    pp.add_argument("--compare", action="store_true",
                    help="exit 1 unless all four columns agree")
    pp.add_argument("--format", choices=("json", "csv", "text"),
                    default="text")

    pa = sub.add_parser("suite", help="run the acceptance battery")
    return top


_COMMANDS = {
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "coeffs": cmd_coeffs,
    "partitions": cmd_partitions,
    "suite": cmd_suite,
}


def main(argv: Optional[list[str]] = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, 0 on --help; keep the contract
        return USAGE_ERROR if exc.code not in (0, None) else 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    try:
        return _COMMANDS[args.command](args, out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

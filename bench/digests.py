"""Result digests: sha256 of the canonical coefficient lists of both sides
of the largest instance of each identity id in each workload.

The reference digests in ``digests.json`` were taken from instances whose
two sides agree.  A worker recomputes them after its timed section; a
difference marks the op the instance belongs to as failed, so a speed-up
cannot change a result unnoticed.

Run ``python3 bench/digests.py`` from the checkout root to rewrite
``digests.json`` from the current sources.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

from workloads import (PAIR_IDS, QBIN_A, SUM_IDS, partitions_op,
                       verify_op)

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "digests.json")


def _case(id: str, cutoff=None, op=None, **params) -> tuple:
    """(op key, id, params, cutoff); the key defaults to the verify op."""
    return (op or verify_op(id, cutoff, **params).name, id, params, cutoff)


def _suite_cases() -> list[tuple]:
    # The battery is one op; a digest difference fails the criterion
    # that verifies the instance.
    cases = [_case(id, L=12, op="crit02") for id in PAIR_IDS[:3]]
    cases += [_case(id, L=12, op="crit03") for id in PAIR_IDS[3:]]
    cases += [_case(id, L=10, a=0, op="crit04") for id in SUM_IDS]
    cases.append(_case("binom_shift", L=10, i=5, op="crit04"))
    cases += [_case(id, M=8, op="crit06") for id in ("thm71", "thm72",
                                                  "fincap2m")]
    cases += [_case(id, N=8, op="crit06") for id in ("fincap1n",
                                                      "fincap2n")]
    cases += [_case(id, 120, op="crit07") for id in ("kr1", "cap2",
                                                     "outlook2")]
    cases.append(_case("q_binomial_theorem", 80, a_sign=1, a_exp=4,
                       z_sign=1, z_exp=4, op="crit07"))
    cases.append(_case("q_exponential", 80, z_sign=-1, z_exp=4,
                       op="crit07"))
    cases.append(_case("jtp", 80, z_sign=-1, z_exp=1, op="crit07"))
    cases.append(_case("genfun_products", 24, pair=3, t_cutoff=6,
                       op="crit08"))
    cases.append(_case("outlook1", L=6, M=6, op="crit10"))
    cases.append(_case("hierarchy", nu=2, L=6, op="crit10"))
    return cases


def _sweep_exact_cases() -> list[tuple]:
    cases = [_case(id, L=26) for id in PAIR_IDS]
    cases += [_case(id, M=12) for id in ("thm71", "thm72", "fincap2m")]
    cases += [_case(id, N=12) for id in ("fincap1n", "fincap2n")]
    cases += [_case(id, L=12, a=0) for id in SUM_IDS]
    cases.append(_case("outlook1", L=7, M=7))
    cases.append(_case("hierarchy", nu=2, L=9))
    return cases


def _series_trunc_cases() -> list[tuple]:
    a_sign, a_exp = QBIN_A[-1]
    cases = [_case(id, 600) for id in ("kr1", "cap2", "outlook2")]
    cases.append(_case("q_binomial_theorem", 100, a_sign=a_sign,
                       a_exp=a_exp, z_sign=1, z_exp=4))
    cases.append(_case("q_exponential", 200, z_sign=-1, z_exp=4))
    cases.append(_case("jtp", 400, z_sign=-1, z_exp=1))
    cases.append(_case("genfun_products", 40, pair=3, t_cutoff=10))
    # id "partitions": the four columns of the Capparelli table
    cases += [(partitions_op(v).name, "partitions",
               {"variant": v, "nmax": 100}, None) for v in ("first", "second")]
    return cases


CASES = {
    "suite": _suite_cases,
    "sweep_exact": _sweep_exact_cases,
    "series_trunc": _series_trunc_cases,
}


def case_name(case: tuple) -> str:
    _, id, params, cutoff = case
    return json.dumps([id, params, cutoff], sort_keys=True)


def _canonical(side):
    from qtrin.series import LaurentSeries
    if isinstance(side, LaurentSeries):
        return {"cutoff": side.cutoff, "terms": sorted(side.terms.items())}
    return {"t_cutoff": side.t_cutoff, "q_cutoff": side.q_cutoff,
            "entries": [[t, x, _canonical(side.entries[(t, x)])]
                        for t, x in sorted(side.entries)]}


def _sides(case: tuple) -> dict:
    """Canonical coefficient lists of both sides, and whether they agree."""
    _, id, params, cutoff = case
    if id == "partitions":
        from qtrin.partitions import VARIANTS, capparelli_chain
        rows = capparelli_chain(params["nmax"], VARIANTS[params["variant"]])
        cols = {c: [r[c] for r in rows] for c in
                ("congruence", "difference", "product", "double_sum")}
        agree = len({tuple(v) for v in cols.values()}) == 1
        return {"sides": cols, "agree": agree}
    from qtrin.identities import IdentityInstance, compute_side
    inst = IdentityInstance(id, params, cutoff)
    lhs, rhs = compute_side(inst, "LHS"), compute_side(inst, "RHS")
    return {"sides": {"lhs": _canonical(lhs), "rhs": _canonical(rhs)},
            "agree": lhs.first_mismatch(rhs) is None}


def digest(case: tuple) -> tuple[str, bool]:
    got = _sides(case)
    blob = json.dumps(got["sides"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest(), got["agree"]


def load_reference() -> dict:
    with open(REFERENCE) as f:
        return json.load(f)


def check(workload: str) -> list[dict]:
    """Recompute the workload's digests; one entry per case."""
    ref = load_reference()[workload]
    out = []
    for case in CASES[workload]():
        name = case_name(case)
        got, _ = digest(case)
        out.append({"op": case[0], "case": name,
                    "ok": ref.get(name) == got})
    return out


def record() -> dict:
    """Digests of every case; refuses an instance whose sides disagree."""
    table = {}
    for workload, cases in CASES.items():
        table[workload] = {}
        for case in cases():
            got, agree = digest(case)
            if not agree:
                raise SystemExit(f"sides disagree, no digest: {case}")
            table[workload][case_name(case)] = got
    return table


if __name__ == "__main__":
    from worker import add_qtrin_to_path
    add_qtrin_to_path()
    with open(REFERENCE, "w") as f:
        json.dump(record(), f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {REFERENCE}", file=sys.stderr)

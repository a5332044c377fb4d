"""The acceptance battery: twelve pass/fail criteria covering the whole
engine at desk scale.

Shared by the ``suite`` CLI command and the test suite so both always run
exactly the same checks.  Each criterion returns a CriterionResult; the
final criterion is the wall-clock budget for the battery itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .identities import (IdentityInstance, bailey_sides, compute_side,
                         verify_identity, verify_limit_stabilization)
from .partitions import VARIANTS, capparelli_chain
from .series import LaurentSeries
from .trinomials import TrinomialParams, round_trinomial

SUITE_BUDGET_SECONDS = 120

PASCAL_ROWS = [
    (1,),
    (1, 1, 1),
    (1, 2, 3, 2, 1),
    (1, 3, 6, 7, 6, 3, 1),
    (1, 4, 10, 16, 19, 16, 10, 4, 1),
]


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    elapsed_ms: int = 0
    detail: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = f"  {self.detail}" if (self.detail and not self.passed) else ""
        return (f"[{status}] {self.number:2d}. {self.name} "
                f"({self.elapsed_ms} ms){extra}")


def _verify_all(instances):
    """Verify every instance; report the first failure, if any."""
    for inst in instances:
        rep = verify_identity(inst)
        if not rep.match:
            return {"failed": inst.id, "params": inst.params,
                    "first_mismatch": rep.first_mismatch}
    return None


def crit_pascal_rows() -> dict | None:
    for L, row in enumerate(PASCAL_ROWS):
        for b in (-1, 0, 1, 2):
            got = tuple(
                round_trinomial(TrinomialParams(L, b, a)).eval_at_one()
                for a in range(-L, L + 1))
            if got != row:
                return {"L": L, "b": b, "got": got, "want": row}
    return None


def crit_pairs() -> dict | None:
    return _verify_all(
        IdentityInstance(id, {"L": L})
        for id in ("first_pair", "second_pair", "third_pair")
        for L in range(13))


def crit_duals() -> dict | None:
    return _verify_all(
        IdentityInstance(id, {"L": L})
        for id in ("first_pair_dual", "second_pair_dual", "third_pair_dual")
        for L in range(13))


def crit_summations() -> dict | None:
    insts = [IdentityInstance(id, {"L": L, "a": a})
             for id in ("t0_sum", "t1_sum", "tm1_sum", "bmo_transform")
             for L in range(11) for a in range(-L, L + 1)]
    insts += [IdentityInstance("binom_shift", {"L": L, "i": i})
              for L in range(11) for i in range(L + 1)]
    return _verify_all(insts)


BAILEY_CASES = [
    # (kind, alpha half-exponent at support point j, reproduced identity)
    (0, lambda j: 3 * j * j + 2 * j, "thm71"),
    (1, lambda j: 3 * j * j - j, "thm72"),
    (-1, lambda j: 3 * j * j + j, "fincap2m"),
]


def bailey_alpha(efn, M: int) -> dict:
    """Finitely supported alpha wide enough that truncation is invisible
    at size M."""
    return {j: LaurentSeries.monomial(1, efn(j))
            for j in range(-M - 2, M + 3)}


def crit_bailey() -> dict | None:
    for kind, efn, tid in BAILEY_CASES:
        for M in range(7):
            lhs, rhs = bailey_sides(kind, bailey_alpha(efn, M), M, step=6)
            inst = IdentityInstance(tid, {"M": M})
            checks = [
                ("transform", lhs.first_mismatch(rhs)),
                ("lhs", lhs.first_mismatch(compute_side(inst, "LHS"))),
                ("rhs", rhs.first_mismatch(compute_side(inst, "RHS"))),
            ]
            for label, m in checks:
                if m is not None:
                    return {"kind": kind, "id": tid, "M": M,
                            "check": label, "first_mismatch": m}
    return None


def crit_polynomial_caps() -> dict | None:
    insts = [IdentityInstance(id, {"M": M})
             for id in ("thm71", "thm72", "fincap2m") for M in range(9)]
    insts += [IdentityInstance(id, {"N": N})
              for id in ("fincap1n", "fincap2n") for N in range(9)]
    return _verify_all(insts)


def crit_series() -> dict | None:
    insts = [IdentityInstance(id, {}, 120)
             for id in ("kr1", "cap2", "outlook2")]
    insts += [IdentityInstance("q_binomial_theorem",
                               {"a_sign": sa, "a_exp": ea,
                                "z_sign": sz, "z_exp": ez}, 80)
              for sa, ea in ((0, 0), (1, 2), (-1, 2), (1, 4))
              for sz, ez in ((1, 2), (-1, 2), (1, 4))]
    insts += [IdentityInstance("q_exponential", {"z_sign": s, "z_exp": e}, 80)
              for s in (1, -1) for e in (1, 2, 4)]
    insts += [IdentityInstance("jtp", {"z_sign": s, "z_exp": e}, 80)
              for s in (1, -1) for e in (-1, 0, 1)]
    return _verify_all(insts)


def crit_genfun() -> dict | None:
    insts = [IdentityInstance("lemma_genfun", {"n": n, "t_cutoff": 6}, 24)
             for n in range(-2, 3)]
    insts += [IdentityInstance("genfun_products", {"pair": p, "t_cutoff": 6},
                               24) for p in (1, 2, 3)]
    return _verify_all(insts)


def crit_capparelli_chain() -> dict | None:
    for name, v in VARIANTS.items():
        for row in capparelli_chain(40, v):
            vals = {row["congruence"], row["difference"],
                    row["product"], row["double_sum"]}
            if len(vals) != 1:
                return {"variant": name, **row}
    return None


def crit_outlook() -> dict | None:
    insts = [IdentityInstance("outlook1", {"L": L, "M": M})
             for L in range(7) for M in range(7)]
    insts += [IdentityInstance("hierarchy", {"nu": nu, "L": L})
              for nu in (1, 2) for L in range(7)]
    return _verify_all(insts)


def crit_stabilization() -> dict | None:
    # window below q^10 = 20 half-units
    targets = [("first_pair", {}), ("second_pair", {}), ("third_pair", {}),
               ("binom_limit", {"m": 2}), ("binom_limit", {"m": 5}),
               ("binom_limit2", {"nu": 0, "j": 0}),
               ("binom_limit2", {"nu": 1, "j": 2})]
    for id, params in targets:
        rep = verify_limit_stabilization(id, window=20, params=params)
        if not rep.match:
            return {"id": id, "params": params, "detail": rep.detail}
    return None


CRITERIA = [
    ("Pascal triangle rows at q=1", crit_pascal_rows),
    ("trinomial pair identities, L <= 12", crit_pairs),
    ("dual pair identities, L <= 12", crit_duals),
    ("trinomial summations and transform, |a| <= L <= 10", crit_summations),
    ("Bailey-type transform consistency, M <= 6", crit_bailey),
    ("bounded Capparelli polynomial identities, size <= 8",
     crit_polynomial_caps),
    ("series identities through q^60 / q^40", crit_series),
    ("trivariate generating functions, t-degree <= 6", crit_genfun),
    ("Capparelli four-way chain, n <= 40", crit_capparelli_chain),
    ("outlook and hierarchy identities at desk scale", crit_outlook),
    ("limit stabilization below q^10", crit_stabilization),
]


def run_battery() -> list[CriterionResult]:
    """Run all criteria in order; the twelfth is the time budget."""
    results = []
    total_start = time.monotonic()
    for k, (name, fn) in enumerate(CRITERIA, start=1):
        start = time.monotonic()
        try:
            detail = fn()
        except Exception as exc:             # a crash is a failure, not an abort
            detail = {"error": f"{type(exc).__name__}: {exc}"}
        elapsed = int((time.monotonic() - start) * 1000)
        results.append(CriterionResult(k, name, detail is None, elapsed,
                                       detail or {}))
    total = time.monotonic() - total_start
    results.append(CriterionResult(
        12, f"battery under {SUITE_BUDGET_SECONDS} s",
        total < SUITE_BUDGET_SECONDS, int(total * 1000),
        {"total_seconds": round(total, 2)}))
    return results

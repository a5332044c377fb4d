"""Benchmark workloads: the CLI argv lists each workload runs.

Kept free of ``qtrin`` imports so that a worker can time the import of
the program itself.  A workload's seed only permutes op order; the set of
ops is fixed, so every seed does the same work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("suite", "sweep_exact", "series_trunc")

PAIR_IDS = ("first_pair", "second_pair", "third_pair",
            "first_pair_dual", "second_pair_dual", "third_pair_dual")
SUM_IDS = ("t0_sum", "t1_sum", "tm1_sum", "bmo_transform")


@dataclass(frozen=True)
class Op:
    argv: tuple
    # The q-binomial theorem at a = +-1 (a_exp = 0) hits the poch_finite
    # key collision and reports a false mismatch.  Such an op still counts
    # as failed; it only does not make the run incorrect.
    known_defect: bool = False

    @property
    def name(self) -> str:
        return " ".join(self.argv)


def verify_op(id: str, cutoff: int | None = None, **params) -> Op:
    argv = ["verify", "--id", id]
    for k, v in params.items():
        argv += ["--param", f"{k}={v}"]
    if cutoff is not None:
        argv += ["--cutoff", str(cutoff)]
    return Op(tuple(argv))


def _sweep_exact_ops() -> list[Op]:
    ops = [verify_op(id, L=L) for id in PAIR_IDS for L in range(27)]
    ops += [verify_op(id, M=M) for id in ("thm71", "thm72", "fincap2m")
            for M in range(13)]
    ops += [verify_op(id, N=N) for id in ("fincap1n", "fincap2n")
            for N in range(13)]
    ops += [verify_op(id, L=12, a=a) for id in SUM_IDS
            for a in range(-12, 13, 3)]
    ops += [verify_op("outlook1", L=L, M=M) for L in range(8)
            for M in range(8)]
    ops += [verify_op("hierarchy", nu=nu, L=L) for nu in (1, 2)
            for L in range(10)]
    return ops


def partitions_op(variant: str, nmax: int = 100) -> Op:
    return Op(("partitions", "--variant", variant, "--nmax", str(nmax),
               "--compare", "--format", "json"))


QBIN_A = ((-1, 0), (-1, 2), (-1, 4), (0, 0), (1, 0), (1, 2), (1, 4))
QBIN_Z = ((1, 2), (-1, 2), (1, 4))          # z = q, -q, q^2


def _series_trunc_ops() -> list[Op]:
    ops = [verify_op(id, cutoff=c) for id in ("kr1", "cap2", "outlook2")
           for c in (200, 400, 600)]
    for a_sign, a_exp in QBIN_A:
        for z_sign, z_exp in QBIN_Z:
            op = verify_op("q_binomial_theorem", cutoff=100, a_sign=a_sign,
                           a_exp=a_exp, z_sign=z_sign, z_exp=z_exp)
            ops.append(Op(op.argv, known_defect=a_sign != 0 and a_exp == 0))
    ops += [verify_op("q_exponential", cutoff=200, z_sign=s, z_exp=e)
            for s in (1, -1) for e in (1, 2, 4)]
    ops += [verify_op("jtp", cutoff=400, z_sign=s, z_exp=e)
            for s in (1, -1) for e in (-1, 0, 1)]
    ops += [verify_op("genfun_products", cutoff=40, pair=p, t_cutoff=10)
            for p in (1, 2, 3)]
    ops += [partitions_op(v) for v in ("first", "second")]
    return ops


def ops_for(workload: str, seed: int) -> list[Op]:
    """The workload's ops in the order the seed gives."""
    if workload == "suite":
        return [Op(("suite",))]
    if workload == "sweep_exact":
        ops = _sweep_exact_ops()
    elif workload == "series_trunc":
        ops = _series_trunc_ops()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(ops)
    return ops


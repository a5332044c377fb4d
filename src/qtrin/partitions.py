"""Partition enumeration oracles for the two Capparelli-type theorems.

Both theorems equate, for every n, the number of partitions of n into
distinct parts avoiding two residue classes mod 6 with the number of
partitions obeying a refined gap condition.  The two variants share one
engine; what differs is data: the forbidden residues and the one excluded
small part.

These counts are the independent cross-check for the double-sum and
infinite-product series: everything here is exhaustive enumeration over
actual partitions, not series manipulation.  The series columns of the
comparison table are read from the identity registry, which holds the
one definition of each product and double sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .identities import IdentityInstance, compute_side


@dataclass(frozen=True)
class CapparelliVariant:
    """Parameters of one theorem: forbidden residues mod 6 on the
    distinct-part side, the excluded smallest part on the gap side, and
    the registry id whose sides are its double sum (LHS) and infinite
    product (RHS)."""
    name: str
    forbidden_residues: frozenset
    excluded_part: int
    series_id: str


FIRST = CapparelliVariant("first", frozenset({1, 5}), 1, "kr1")
SECOND = CapparelliVariant("second", frozenset({2, 4}), 2, "cap2")

VARIANTS = {"first": FIRST, "second": SECOND}


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts."""
    parts: tuple

    def __post_init__(self):
        if any(p <= 0 for p in self.parts):
            raise ValueError("parts must be positive")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("parts must be weakly decreasing")

    @property
    def weight(self) -> int:
        return sum(self.parts)


def _congruence_column(n_max: int, v: CapparelliVariant) -> list[int]:
    """congruence_side_count(n, v) for n = 0..n_max, one subset-sum count."""
    ways = [1] + [0] * n_max
    for p in range(1, n_max + 1):
        if p % 6 in v.forbidden_residues:
            continue
        for s in range(n_max, p - 1, -1):
            ways[s] += ways[s - p]
    return ways


def congruence_side_count(n: int, v: CapparelliVariant) -> int:
    """Partitions of n into distinct parts with no part in the forbidden
    residue classes mod 6.  Negative n counts zero (vacuous)."""
    return _congruence_column(n, v)[n] if n >= 0 else 0


def _gap_ok(lower: int, upper: int) -> bool:
    """Whether upper may sit directly above lower in a valid partition."""
    d = upper - lower
    if d >= 4:
        return True
    if d == 2:
        return lower % 3 == 2          # {3k-1, 3k+1}
    if d == 3:
        return lower % 3 == 0          # {3k, 3k+3}
    return False


def _difference_column(n_max: int, v: CapparelliVariant) -> list[int]:
    """difference_side_count(n, v) for n = 0..n_max; sums[s][p], p <= s,
    counts the non-empty partitions of s that obey the conditions and have
    largest part at most p.  Every part q <= p - 4 may sit below p, so
    that part of the count is one prefix sum; of q = p - 3 and q = p - 2,
    the gap condition lets at most one sit below p, gap[p] (0 if none)."""
    gap = [next((q for q in (p - 3, p - 2) if q >= 1 and _gap_ok(q, p)), 0)
           for p in range(n_max + 1)]
    sums = [[0]]
    for s in range(1, n_max + 1):
        # the partitions of s with largest part p, for p = 1..s; what sits
        # under p is counted by below = sums[s - p]
        counts = [0 if p == v.excluded_part else
                  (p == s) + below[max(min(p - 4, s - p), 0)]
                  + (below[q] - below[q - 1] if 0 < q <= s - p else 0)
                  for p, q, below in zip(range(1, s + 1), gap[1:],
                                         reversed(sums))]
        sums.append([0, *accumulate(counts)])
    return [1] + [row[-1] for row in sums[1:]]


def difference_side_count(n: int, v: CapparelliVariant) -> int:
    """Partitions of n avoiding the excluded part, with gaps >= 2 and the
    gaps 2 and 3 only in their sanctioned shapes."""
    return _difference_column(n, v)[n] if n >= 0 else 0


def difference_side_partitions(n: int, v: CapparelliVariant) -> list[Partition]:
    """Explicit enumeration of the gap-condition side (for tests)."""
    out = []

    def extend(remaining: int, last: int, acc: tuple):
        if remaining == 0:
            out.append(Partition(tuple(reversed(acc))))
        for p in range(last + 1, remaining + 1):
            if p == v.excluded_part:
                continue
            if last and not _gap_ok(last, p):
                continue
            extend(remaining - p, p, acc + (p,))

    extend(n, 0, ())
    return out


def _side_coefficients(id: str, side: str, n_max: int) -> list[int]:
    """Coefficients of q^0..q^n_max of one side of a registry series."""
    series = compute_side(IdentityInstance(id, {}, 2 * n_max), side)
    return [series.coeff_at(2 * k) for k in range(n_max + 1)]


def product_coefficients(v: CapparelliVariant, n_max: int) -> list[int]:
    """Coefficients of q^0..q^n_max of the variant's infinite product."""
    return _side_coefficients(v.series_id, "RHS", n_max)


def doublesum_coefficients(which: str, n_max: int) -> list[int]:
    """Coefficients of q^0..q^n_max of the double series that is the LHS
    of registry id ``which`` (kr1, cap2 or outlook2); KeyError for an
    unknown id."""
    return _side_coefficients(which, "LHS", n_max)


def capparelli_chain(n_max: int, v: CapparelliVariant) -> list[dict]:
    """The four-way comparison table for n = 0..n_max.

    Columns: congruence count, gap-condition count, product coefficient,
    double-sum coefficient (kr1 for the first variant, cap2 for the
    second).
    """
    columns = zip(_congruence_column(n_max, v), _difference_column(n_max, v),
                  product_coefficients(v, n_max),
                  doublesum_coefficients(v.series_id, n_max))
    return [{"n": n, "congruence": cong, "difference": diff,
             "product": prod, "double_sum": dsum}
            for n, (cong, diff, prod, dsum) in enumerate(columns)]

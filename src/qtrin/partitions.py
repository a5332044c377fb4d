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
from functools import lru_cache

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


def congruence_side_count(n: int, v: CapparelliVariant) -> int:
    """Partitions of n into distinct parts with no part in the forbidden
    residue classes mod 6.  Negative n counts zero (vacuous)."""
    if n < 0:
        return 0
    allowed = [p for p in range(1, n + 1)
               if p % 6 not in v.forbidden_residues]
    # distinct-part subset-sum count
    ways = [0] * (n + 1)
    ways[0] = 1
    for p in allowed:
        for s in range(n, p - 1, -1):
            ways[s] += ways[s - p]
    return ways[n]


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


def difference_side_count(n: int, v: CapparelliVariant) -> int:
    """Partitions of n avoiding the excluded part, with gaps >= 2 and the
    gaps 2 and 3 only in their sanctioned shapes."""
    if n < 0:
        return 0

    @lru_cache(maxsize=None)
    def count(remaining: int, last: int) -> int:
        # extend upward: next part p > last with _gap_ok(last, p);
        # last == 0 means no part chosen yet
        total = 1 if remaining == 0 else 0
        for p in range(1, remaining + 1):
            if p == v.excluded_part:
                continue
            if last and not _gap_ok(last, p):
                continue
            total += count(remaining - p, p)
        return total

    result = count(n, 0)
    count.cache_clear()
    return result


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
    prod = product_coefficients(v, n_max)
    dsum = doublesum_coefficients(v.series_id, n_max)
    rows = []
    for n in range(n_max + 1):
        rows.append({
            "n": n,
            "congruence": congruence_side_count(n, v),
            "difference": difference_side_count(n, v),
            "product": prod[n],
            "double_sum": dsum[n],
        })
    return rows

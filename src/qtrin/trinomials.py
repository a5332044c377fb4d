"""The three q-trinomial families.

* round trinomials (L, b; a; q)_2, the Andrews--Baxter polynomials;
* T_n(L, a; q), obtained from a round trinomial by q -> 1/q with a
  compensating monomial prefactor;
* the refined, doubly bounded four-parameter family cal-T(L, M; a, b; q).

The ``step`` fields are the base in half-exponent units (2 = q, 6 = q^3).

Round trinomials are built one row L at a time from row L - 1 by the
q-multinomial Pascal rule behind the Andrews--Baxter recurrences.  With
d = b - a and a >= 0:

    d <= 0:  (L, b; a)_2 = q^(1+b) (L-1, b+2; a+1)_2 + (L-1, b+1; a)_2
                           + q^(L-a) (L-1, b-1; a-1)_2
    d >= 1:  (L, b; a)_2 = (L-1, b; a)_2 + q^(L+b-a-1) (L-1, b; a+1)_2
                           + q^(L-a) (L-1, b-1; a-1)_2

from (0, b; a)_2 = [a = 0].  A row is only ever stepped, from row 0 or
from a kept row of its own slot width, and kept as packed integers, one
per entry (see ``_RowStore``), only for the rows callers asked for; no
whole row is ever unpacked or repacked.

A single exact value is its packed entry, unpacked on its own and cached
per a >= 0 entry; ``round_trinomial_sum`` reads sums of entries.  It
first folds its terms (``_fold``): an entry with a > L is 0, and a < 0 is
reflected by (L, b; a)_2 = q^(a(a-b)) (L, b-2a; -a)_2, which keeps d.
It hands the packed entries to ``series.packed_sum``, which adds them as
integers in unsigned slots, one per class of the shifts mod step, and
unpacks each class once on the grid of the step, so q and q^3 read one
row.  Row L has slots of 64 w bits, w = slot_words(3^L); a class sum
that could pass them raises OverflowError.  The pair, dual and hierarchy
sides stay within 2 * 3^L, which fits, since 3^L < 2^(64 w - 1).  The
rule only adds shifted entries, so there is no division and no remainder
check: correctness rests on the tests against sums of products of
Gaussian binomials.  T_n values and sums are these, reversed, and
``packed_t`` hands the packed entry of a T_n value, with the exponent it
stands at, to sums that multiply it (the Bailey LHS).  The refined family
is one ``qblocks.gaussian_sum`` of its ``refined_terms``.

Below a cutoff the sum reads one cut row, stepped the same way through
only the slots that its terms reach, and truncates the result.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .series import LaurentSeries, packed_sum, slot_words, unpack_series
from .qblocks import gaussian_sum


@dataclass(frozen=True)
class TrinomialParams:
    L: int
    b: int
    a: int
    step: int = 2

    def __post_init__(self):
        if self.L < 0:
            raise ValueError("L must be non-negative")
        if self.step < 1:
            raise ValueError("step must be positive")


@dataclass(frozen=True)
class TParams:
    n: int
    L: int
    a: int
    step: int = 2

    def __post_init__(self):
        if self.L < 0:
            raise ValueError("L must be non-negative")
        if self.step < 1:
            raise ValueError("step must be positive")


@dataclass(frozen=True)
class RefinedTParams:
    L: int
    M: int
    a: int
    b: int
    step: int = 2

    def __post_init__(self):
        if self.L < 0 or self.M < 0:
            raise ValueError("L and M must be non-negative")
        if self.step < 1:
            raise ValueError("step must be positive")


def _offset(d: int) -> int:
    """Entries of column d <= -2 reach down to q^(-d^2/4), so each is held
    times q^_offset(d), which has no negative exponent."""
    return d * d // 4 if d < 0 else 0


def _shift(x: int, bits: int) -> int:
    # a right shift is exact here: no held entry reaches below q^0
    return x << bits if bits >= 0 else x >> -bits


def _next_row(k: int, prev: dict, bits: int,
              mask: Optional[int] = None) -> dict:
    """Row k from row k - 1 by the rule in the module docstring, over the
    same window of d.  A row maps d to the entries (k, a + d; a)_2,
    a = 0..k, each held times q^_offset(d) as the packed integer
    sum c_e X^e, X = 2^bits, so that q^s is a shift by bits * s; with a
    mask, each entry is cut to its slots, column by column."""
    row = {}
    for d, col in prev.items():
        col = col + [0, 0]      # entries a = k, k + 1 of row k - 1 are 0
        # q^(k-a) (k-1, b-1; a-1)_2, folded at a = 0 to
        # q^(k+d) (k-1, d+1; 1)_2
        fold = _shift(col[1], (k + d) * bits)
        if d <= 0:
            up = prev[d + 1] + [0, 0]
            o = _offset(d) - _offset(d + 1)
            row[d] = [_shift(up[a + 1], (1 + a + d + o) * bits)
                      + (up[a] << o * bits)
                      + (col[a - 1] << (k - a) * bits if a else fold)
                      for a in range(k + 1)]
        else:
            down = prev[d - 1] + [0, 0]
            row[d] = [col[a] + (down[a + 1] << (k + d - 1) * bits)
                      + (col[a - 1] << (k - a) * bits if a else fold)
                      for a in range(k + 1)]
        if mask:
            row[d] = [x & mask for x in row[d]]
    return row


class _RowStore:
    """Rows of round trinomials, kept packed, and only where a caller asked:
    exact rows per L, and one cut row, the last one built, whose entries
    keep only their first ``top`` slots after every step.

    Row L holds every d of a window [lo, hi] with lo <= 0 < hi.  Entry d
    needs d and d + 1 (d <= 0) or d - 1 and d (d >= 1) of the row below,
    so such a window is closed: a row is only ever stepped over it, from
    the highest kept row of the same slot width that covers it and, for
    the cut row, holds at least ``top`` slots (every exact row does), or
    from row 0.  Each entry is one packed integer (see _next_row) with
    slots of 64 w bits, w = slot_words(3^L): every coefficient up to row L
    is below 3^L, the value of the whole row at q = 1, so no slot carries.
    A kept row of narrower slots is never reused, so the first row built
    past a width edge (rows 40, 81 and 121) steps up from row 0.
    ``round_trinomial_sum`` reads the packed entries (``row``)."""

    def __init__(self):
        self._rows: dict[int, dict] = {}
        self._cut: dict[int, dict] = {}
        self._top = 0

    def row(self, L: int, lo: int, hi: int,
            top: Optional[int] = None) -> tuple[dict, int]:
        """Row L over at least the window [lo, hi], lo <= 0 < hi, as d ->
        the packed entries a = 0..L, and the slot words w of its entries;
        a cut row if top is given and no exact row L covers the window."""
        row = self._rows.get(L)
        if row is None or lo not in row or hi not in row:
            row = self._build(L, min([lo, *(row or ())]),
                              max([hi, *(row or ())]), top)
        return row, slot_words(3 ** L)

    def _build(self, L: int, lo: int, hi: int, top: Optional[int]) -> dict:
        w = slot_words(3 ** L)
        kept = {**(self._cut if top and top <= self._top else {}),
                **self._rows}
        start = max((k for k, r in kept.items() if k <= L and lo in r
                     and hi in r and slot_words(3 ** k) == w), default=0)
        row = {d: kept[start][d] if start
               else [1 << 64 * w * _offset(d)] for d in range(lo, hi + 1)}
        for k in range(start + 1, L + 1):
            row = _next_row(k, row, 64 * w, top and (1 << 64 * w * top) - 1)
        if top:
            self._cut, self._top = {L: row}, top
        else:
            self._rows[L] = row
        return row

    def clear(self) -> None:
        self._rows.clear()
        self._cut, self._top = {}, 0

    def sizes(self) -> tuple[int, int]:
        """Rows kept, the cut row among them, and entries across them."""
        rows = [*self._rows.items(), *self._cut.items()]
        return len(rows), sum(len(r) * (L + 1) for L, r in rows)


_ROWS = _RowStore()


@lru_cache(maxsize=None)
def _round_trinomial(L: int, b: int, a: int, step: int) -> LaurentSeries:
    # 0 <= a <= L here, so the pair a, -a shares one entry: its packed
    # entry of row L, unpacked on its own
    d = b - a
    row, w = _ROWS.row(L, min(0, d), max(1, d))
    return unpack_series(row[d][a], w, -_offset(d) * step, step)


def _exact_round(L: int, b: int, a: int, step: int) -> LaurentSeries:
    # the cached entry of the folded term, shifted
    term = _fold(L, step, b, a, 0)
    if term is None:
        return LaurentSeries.zero()
    b, a, sh = term
    entry = _round_trinomial(L, b, a, step)
    return entry.shift(sh) if sh else entry


def round_trinomial(p: TrinomialParams) -> LaurentSeries:
    """The round q-trinomial coefficient (L, b; a; q_step)_2, exact and
    cached, one entry per pair a, -a.  Truncated at a cutoff, it is the
    one-term ``round_trinomial_sum(L, step, [(b, a, 0)], cutoff)``."""
    return _exact_round(p.L, p.b, p.a, p.step)


def _fold(L: int, step: int, b: int, a: int, sh: int):
    """The term (L, b; a; q_step)_2 q^(sh/2) as one with 0 <= a <= L, or
    None when it is 0: n -> n - a gives (L, b; a)_2 = q^(a(a-b))
    (L, b-2a; -a)_2, which reflects a < 0, and an entry with a > L is 0."""
    if a < 0:
        b, a, sh = b - 2 * a, -a, sh + a * (a - b) * step
    return (b, a, sh) if a <= L else None


def round_trinomial_sum(L: int, step: int, terms,
                        cutoff: Optional[int] = None) -> LaurentSeries:
    """sum (L, b; a; q_step)_2 q^(shift/2) over the (b, a, shift) in
    ``terms`` (any iterable; a term may repeat), truncated at ``cutoff``.

    The terms are first folded onto 0 <= a <= L (``_fold``); with a
    cutoff, those with no slot at or below it are dropped, and the rest
    read a cut row L (``_RowStore``).  ``packed_sum`` adds the entries
    whose shifts share a class mod step as integers, one per class, each
    unpacked once.  Nothing is cached but the row."""
    kept = [t for t in (_fold(L, step, *term) for term in terms)
            if t is not None]
    # an entry holds q_step^e at slot e + _offset(d), so slot 0 of the
    # entry at shift sh stands for q^((sh - _offset(d) step)/2)
    if cutoff is not None:
        reach = [(cutoff - sh) // step + _offset(b - a) + 1
                 for b, a, sh in kept]
        kept = [t for t, n in zip(kept, reach) if n > 0]
    if not kept:
        return LaurentSeries.zero(cutoff)
    ds = [b - a for b, a, sh in kept]
    lo = min(0, *ds)
    # columns below -1 step down by right shifts, but a slot cut at top
    # lands at top - _offset(lo) or above: no coefficient is negative and
    # every entry has a term at q^0 or below
    top = None if cutoff is None else max(reach) + _offset(lo)
    row, w = _ROWS.row(L, lo, max(1, *ds), top)
    # At q = 1 an entry is the trinomial coefficient T(L, a), whatever b,
    # and T(L, 0) + 2 (T(L, 1) + ... + T(L, L)) = 3^L.  So no slot of a
    # class sum passes max(m_0, m / 2) 3^L, with m_0 terms at a = 0 and at
    # most m at any a > 0; unsigned slots of 64 w bits hold it.  A cut
    # entry is at most the exact one in every slot.
    copies: dict = {}
    for b, a, sh in kept:
        copies[a] = copies.get(a, 0) + (1 if a else 2)
    if max(copies.values()) * 3 ** L >= 1 << 64 * w + 1:
        raise OverflowError(f"a sum of {len(kept)} entries of row {L} may "
                            f"pass its slots of {64 * w} bits")
    out = packed_sum(((row[b - a][a], sh - _offset(b - a) * step, False)
                      for b, a, sh in kept), w, step)
    return out if cutoff is None else out.truncate(cutoff)


def _half_units(u: int, step: int) -> int:
    """The exponent of Q^(u/2), Q = q_step, in half-units of q; raises
    ValueError unless it is whole."""
    v = u * step
    if v % 2 != 0:
        raise ValueError(f"Q^({u}/2) in base q_{step} is not a whole number "
                         "of half-units")
    return v // 2


def t_trinomial(p: TParams) -> LaurentSeries:
    """T_n(L, a; q_step): reversed round trinomial with monomial prefactor.

    T_n(L,a;q) = q^{(L(L-n) - a(a-n))/2} * (L, a-n; a; 1/q)_2.
    """
    base = _exact_round(p.L, p.a - p.n, p.a, p.step).reverse_exponents()
    return base.shift(t_shift(p.n, p.L, p.a, p.step))


def packed_t(n: int, L: int, a: int, step: int) -> tuple[int, int, int]:
    """T_n(L, a; q_step), |a| <= L, as (x, w, e): x = sum c_j X^j is the
    packed entry of row L that it reverses, in unsigned slots of 64 w
    bits, and T_n(L, a; q_step) = sum c_j q^((e - step j)/2)."""
    b, a0, sh = _fold(L, step, a - n, a, 0)
    d = b - a0
    row, w = _ROWS.row(L, min(0, d), max(1, d))
    return row[d][a0], w, t_shift(n, L, a, step) - sh + _offset(d) * step


def t_shift(n: int, L: int, a: int, step: int) -> int:
    """The s, in half-units, with T_n(L, a; q_step) = q^(s/2) times
    (L, a-n; a; q_step)_2 at q -> 1/q."""
    return _half_units(L * (L - n) - a * (a - n), step)


def t_trinomial_sum(n: int, L: int, step: int, terms) -> LaurentSeries:
    """sum T_n(L, a; q_step) q^(e/2) over the (a, e) in ``terms``.  Since
    T_n(L, a) is q^(s/2) (L, a-n; a; q_step)_2 at 1/q, s = t_shift(n, L, a,
    step), it is the round-trinomial sum at exponents -(s + e), reversed
    once."""
    return round_trinomial_sum(
        L, step, ((a - n, a, -(t_shift(n, L, a, step) + e)) for a, e in terms)
    ).reverse_exponents()


def refined_terms(p: RefinedTParams):
    """The terms of cal-T(L, M; a, b; q_step) for ``gaussian_sum``: over
    n >= 0 with L - a == n (mod 2),
    q^{n^2/2} [M, n] [M+b+(L-a-n)/2, M+b] [M-b+(L+a-n)/2, M-b].  Only
    the n <= min(M, L - |a|) with |b| <= M are yielded: every other term
    has a factor out of range, so it is 0."""
    if abs(p.b) > p.M:
        return
    for n in range((p.L - p.a) % 2, min(p.M, p.L - abs(p.a)) + 1, 2):
        yield (1, _half_units(n * n, p.step),
               ((p.M, n, p.step),
                (p.M + p.b + (p.L - p.a - n) // 2, p.M + p.b, p.step),
                (p.M - p.b + (p.L + p.a - n) // 2, p.M - p.b, p.step)))


def refined_trinomial(p: RefinedTParams) -> LaurentSeries:
    """Warnaar's refined trinomial cal-T(L, M; a, b; q_step), exact: one
    ``gaussian_sum`` of its ``refined_terms``."""
    return gaussian_sum(refined_terms(p))

"""The three q-trinomial families.

* round trinomials (L, b; a; q)_2, the Andrews--Baxter polynomials;
* T_n(L, a; q), obtained from a round trinomial by q -> 1/q with a
  compensating monomial prefactor;
* the refined, doubly bounded four-parameter family cal-T(L, M; a, b; q).

The ``step`` fields are the base in half-exponent units (2 = q, 6 = q^3).

Exact round trinomials are built one row L at a time from row L - 1 by
the q-multinomial Pascal rule behind the Andrews--Baxter recurrences.
With d = b - a and a >= 0:

    d <= 0:  (L, b; a)_2 = q^(1+b) (L-1, b+2; a+1)_2 + (L-1, b+1; a)_2
                           + q^(L-a) (L-1, b-1; a-1)_2
    d >= 1:  (L, b; a)_2 = (L-1, b; a)_2 + q^(L+b-a-1) (L-1, b; a+1)_2
                           + q^(L-a) (L-1, b-1; a-1)_2

from (0, b; a)_2 = [a = 0].  An entry with a > L is 0, and one with
a < 0 is folded by (L, b; a)_2 = q^(a(a-b)) (L, b-2a; -a)_2, which keeps
d.  Rows do not depend on the step: q and q^3 read the same row through
``scale_exponents``.  A row is kept only when a caller asked for it; the
rows built on the way are dropped.  Rows are stepped and kept as packed
integers, one per entry (see ``_RowStore``), and no whole row is ever
unpacked: an entry asked for on its own is unpacked and cached, and
``round_trinomial_sum`` adds the packed entries of a sum over b, a and
shifts as integers, one per class of the shifts mod step, and unpacks
each class once.  Row L has slots of 64 w bits, w = slot_words(3^L); a
class sum that could pass them raises OverflowError.  The sums of the
pair, dual and hierarchy sides stay within 2 * 3^L, which fits, since
3^L < 2^(64 w - 1).  The rule only adds shifted entries,
so the exact path has no division and no remainder check: its
correctness rests on the tests against sums of products of Gaussian
binomials.

A truncated round trinomial is built from its summands instead: each, a
q-multinomial coefficient, is carried from the one before it by two
factors 1 - q_step^k multiplied and two divided out, below the cutoff
and directly in base q_step.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .series import (LaurentSeries, pack_series, slot_words, unpack_classes,
                     unpack_series)
from .qblocks import gaussian_binomial


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


def _round_sum(L: int, b: int, a: int, step: int,
               cutoff: int) -> LaurentSeries:
    # Summand n is q^(n(n+b)) M_n, n0 <= n <= n1, with the multinomial
    # M_n = (q)_L / ((q)_n (q)_{n+a} (q)_{L-2n-a}), built in half-units of
    # base q_step: exponent k of q_step is k * step.
    n0, n1 = max(0, -a), (L - a) // 2
    shifts = [n * (n + b) * step for n in range(n0, n1 + 1)]
    # the shifts are convex in n: past the last summand that starts below
    # the cutoff, none does
    while shifts and shifts[-1] > cutoff:
        shifts.pop()
    if not shifts:
        return LaurentSeries.zero(cutoff)
    # M_n0 = [L, |a|], carried below the lowest cutoff any summand needs
    m = gaussian_binomial(L, abs(a), step, cutoff - min(shifts))
    parts = []
    for n, sh in enumerate(shifts, start=n0):
        if n > n0:
            # M_n = M_{n-1} (1-q^r)(1-q^(r-1)) / ((1-q^n)(1-q^(n+a))) with
            # r = L-2n+2-a
            r = L - 2 * n + 2 - a
            m = m.mul_one_minus(1, r * step).div_one_minus(1, n * step) \
                .mul_one_minus(1, (r - 1) * step) \
                .div_one_minus(1, (n + a) * step)
        if sh <= cutoff:
            # the sum's cutoff truncates each summand at cutoff - sh
            parts.append(m.shift(sh))
    return LaurentSeries.sum(parts, cutoff)


def _offset(d: int) -> int:
    """Entries of column d <= -2 reach down to q^(-d^2/4), so each is held
    times q^_offset(d), which has no negative exponent."""
    return d * d // 4 if d < 0 else 0


def _shift(x: int, bits: int) -> int:
    # a right shift is exact here: no held entry reaches below q^0
    return x << bits if bits >= 0 else x >> -bits


def _next_row(k: int, prev: dict, bits: int) -> dict:
    """Row k from row k - 1 by the rule in the module docstring, over the
    same window of d.  A row maps d to the entries (k, a + d; a)_2,
    a = 0..k, each held times q^_offset(d) as a ``pack_series`` integer
    with slots of ``bits`` bits, so that q^s is a shift by bits * s."""
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
    return row


class _RowStore:
    """Rows of exact round trinomials, kept packed, and only where a caller
    asked.

    Row L holds every d of a window [lo, hi] with lo <= 0 < hi.  Entry d
    needs d and d + 1 (d <= 0) or d - 1 and d (d >= 1) of the row below,
    so such a window is closed: a row is built over it in a loop from the
    highest kept row that covers it, or from row 0.  Each entry is one
    ``pack_series`` integer (see _next_row) with slots of 64 w bits,
    w = slot_words(3^L): every coefficient up to row L is below 3^L, the
    value of the whole row at q = 1, so no slot carries.  A row is kept
    packed; an entry is unpacked only when it is asked for on its own
    (``entry``), and sums read the packed entries (``row``)."""

    def __init__(self):
        self._rows: dict[int, dict] = {}

    def row(self, L: int, lo: int, hi: int) -> tuple[dict, int]:
        """Row L over at least the window [lo, hi], lo <= 0 < hi, as d ->
        the packed entries a = 0..L, and the slot words w of its entries."""
        row = self._rows.get(L)
        if row is None or lo not in row or hi not in row:
            row = self._build(L, min([lo, *(row or ())]),
                              max([hi, *(row or ())]))
        return row, slot_words(3 ** L)

    def entry(self, L: int, d: int, a: int) -> LaurentSeries:
        """(L, a + d; a)_2 for 0 <= a <= L, exponent e standing for
        q_step^e."""
        row, w = self.row(L, min(d, 0), max(d, 1))
        return unpack_series(row[d][a], w, -_offset(d))

    def _build(self, L: int, lo: int, hi: int) -> dict:
        start = max((k for k, r in self._rows.items()
                     if k < L and lo in r and hi in r), default=None)
        w = slot_words(3 ** L)
        if start is None:
            start, row = 0, {d: [1 << 64 * w * _offset(d)]
                             for d in range(lo, hi + 1)}
        else:
            # a kept row is packed at its own, perhaps narrower, slots
            v = slot_words(3 ** start)
            row = {d: [x if v == w else
                       pack_series(unpack_series(x, v, 0), w, 0)
                       for x in self._rows[start][d]]
                   for d in range(lo, hi + 1)}
        for k in range(start + 1, L + 1):
            row = _next_row(k, row, 64 * w)
        self._rows[L] = row
        return row

    def clear(self) -> None:
        self._rows.clear()

    def sizes(self) -> tuple[int, int]:
        """Rows kept, and entries across them."""
        return len(self._rows), sum(len(r) * (L + 1)
                                    for L, r in self._rows.items())


_ROWS = _RowStore()


@lru_cache(maxsize=None)
def _round_trinomial(L: int, b: int, a: int, step: int) -> LaurentSeries:
    # a >= 0 here, and (L, b; a)_2 = 0 for a > L, past every row entry
    if a > L:
        return LaurentSeries.zero()
    return _ROWS.entry(L, b - a, a).scale_exponents(step)


def _exact_round(L: int, b: int, a: int, step: int) -> LaurentSeries:
    # n -> n - a gives (L, b; a)_2 = q^(a(a-b)) (L, b-2a; -a)_2, so a < 0
    # is read from the cached a >= 0 entry
    if a >= 0:
        return _round_trinomial(L, b, a, step)
    return _round_trinomial(L, b - 2 * a, -a, step).shift(a * (a - b) * step)


def round_trinomial(p: TrinomialParams,
                    cutoff: Optional[int] = None) -> LaurentSeries:
    """The round q-trinomial coefficient (L, b; a; q_step)_2.

    Exact and cached when ``cutoff`` is None, one entry per pair a, -a;
    otherwise equal to the exact value truncated at ``cutoff``, built only
    below it and not cached.
    """
    if cutoff is None:
        return _exact_round(p.L, p.b, p.a, p.step)
    return _round_sum(p.L, p.b, p.a, p.step, cutoff)


def round_trinomial_sum(L: int, step: int, terms,
                        cutoff: Optional[int] = None) -> LaurentSeries:
    """sum (L, b; a; q_step)_2 q^(shift/2) over the (b, a, shift) in
    ``terms`` (any iterable; a term may repeat).

    With a cutoff, the sum of the truncated builds, one for each distinct
    (b, a) at its lowest shift.  Exact, it reads the packed entries of row
    L: a < 0 is folded as in ``round_trinomial`` and a > L dropped, and the
    entries whose shifts share a class mod step are added as integers, one
    per class, each unpacked once.  Nothing is cached but the row."""
    terms = list(terms)
    if cutoff is not None:
        low: dict = {}
        for b, a, sh in terms:
            low[b, a] = min(sh, low.get((b, a), sh))
        built = {k: round_trinomial(TrinomialParams(L, *k, step), cutoff - sh)
                 for k, sh in low.items()}
        return LaurentSeries.sum((built[b, a].shift(sh) for b, a, sh in terms),
                                 cutoff)
    kept = []
    for b, a, sh in terms:
        if a < 0:
            b, a, sh = b - 2 * a, -a, sh + a * (a - b) * step
        if a <= L:
            kept.append((b - a, a, sh))
    if not kept:
        return LaurentSeries.zero()
    ds = [d for d, a, sh in kept]
    row, w = _ROWS.row(L, min(0, *ds), max(1, *ds))
    # At q = 1 an entry is the trinomial coefficient T(L, a), whatever b,
    # and T(L, 0) + 2 (T(L, 1) + ... + T(L, L)) = 3^L.  So no slot of a
    # class sum passes max(m_0, m / 2) 3^L, with m_0 terms at a = 0 and at
    # most m at any a > 0; unsigned slots of 64 w bits hold it.
    count = Counter(a for d, a, sh in kept)
    m0 = count.pop(0, 0)
    if max(2 * m0, 0, *count.values()) * 3 ** L >= 1 << 64 * w + 1:
        raise OverflowError(f"a sum of {len(kept)} entries of row {L} may "
                            f"pass its slots of {64 * w} bits")
    # an entry holds q_step^e at slot e + _offset(d); at shift s step + r
    # that term is at slot e + s - base of the class r sum, so the entry
    # moves up k - base slots, k = s - _offset(d)
    classes: dict = {}
    for d, a, sh in kept:
        r = sh % step
        classes.setdefault(r, []).append(((sh - r) // step - _offset(d),
                                          row[d][a]))
    parts = []
    for r, xs in classes.items():
        base = min(k for k, x in xs)
        parts.append((sum(x << 64 * w * (k - base) for k, x in xs),
                      base * step + r))
    return unpack_classes(parts, w, step)


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


def t_shift(n: int, L: int, a: int, step: int) -> int:
    """The s, in half-units, with T_n(L, a; q_step) = q^(s/2) times
    (L, a-n; a; q_step)_2 at q -> 1/q."""
    return _half_units(L * (L - n) - a * (a - n), step)


def refined_trinomial(p: RefinedTParams) -> LaurentSeries:
    """Warnaar's refined trinomial cal-T(L, M; a, b; q_step), exact.

    Sum over n >= 0 with L - a == n (mod 2) of
    q^{n^2/2} [M, n] [M+b+(L-a-n)/2, M+b] [M-b+(L+a-n)/2, M-b].
    """
    parts = []
    for n in range(p.M + 1):
        if (p.L - p.a - n) % 2 != 0:
            continue
        t1 = gaussian_binomial(p.M, n, p.step)
        t2 = gaussian_binomial(p.M + p.b + (p.L - p.a - n) // 2,
                               p.M + p.b, p.step)
        if t2.is_zero():
            continue
        t3 = gaussian_binomial(p.M - p.b + (p.L + p.a - n) // 2,
                               p.M - p.b, p.step)
        if t3.is_zero():
            continue
        parts.append((t1 * t2 * t3).shift(_half_units(n * n, p.step)))
    return LaurentSeries.sum(parts)

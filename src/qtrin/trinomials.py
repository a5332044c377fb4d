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

from (0, b; a)_2 = [a = 0].  A row is only ever stepped, from row 0 or
from a kept row of its own slot width, and kept as packed integers, one
per entry (see ``_RowStore``), only for the rows callers asked for; no
whole row is ever unpacked or repacked.

A single exact value is its packed entry, unpacked on its own and cached
per a >= 0 entry; ``round_trinomial_sum`` reads sums of entries.  It
first folds its terms (``_fold``): an entry with a > L is 0, and a < 0 is
reflected by (L, b; a)_2 = q^(a(a-b)) (L, b-2a; -a)_2, which keeps d.
Exact, it hands the packed entries to ``series.packed_sum``, which adds
them as integers in unsigned slots, one per class of the shifts mod
step, and unpacks each class once on the grid of the step, so q and q^3
read one row.  Row L has slots of 64 w bits, w = slot_words(3^L); a
class sum that could pass them raises OverflowError.  The pair, dual and
hierarchy sides stay within 2 * 3^L, which fits, since 3^L < 2^(64 w - 1).
The rule only adds shifted entries, so the exact path has no division and
no remainder check: its correctness rests on the tests against sums of
products of Gaussian binomials.  T_n values and sums are these, reversed.

Below a cutoff, each distinct folded (b, a) is built once, at its lowest
shift, from its summands: each, a q-multinomial coefficient, is carried
from the one before it by two factors 1 - q_step^k multiplied and two
divided out, below the cutoff and directly in base q_step.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .series import LaurentSeries, packed_sum, slot_words, unpack_series
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
    # 0 <= a <= L here (see _fold).  Summand n is q^(n(n+b)) M_n,
    # 0 <= n <= (L-a)/2, with the multinomial
    # M_n = (q)_L / ((q)_n (q)_{n+a} (q)_{L-2n-a}), built in half-units of
    # base q_step: exponent k of q_step is k * step.
    shifts = [n * (n + b) * step for n in range((L - a) // 2 + 1)]
    # the shifts are convex in n: past the last summand that starts below
    # the cutoff, none does
    while shifts and shifts[-1] > cutoff:
        shifts.pop()
    if not shifts:
        return LaurentSeries.zero(cutoff)
    # M_0 = [L, a], carried below the lowest cutoff any summand needs
    m = gaussian_binomial(L, a, step, cutoff - min(shifts))
    parts = []
    for n, sh in enumerate(shifts):
        if n:
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
    a = 0..k, each held times q^_offset(d) as the packed integer
    sum c_e X^e, X = 2^bits, so that q^s is a shift by bits * s."""
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
    so such a window is closed: a row is only ever stepped over it, from
    the highest kept row of the same slot width that covers it, or from
    row 0.  Each entry is one packed integer (see _next_row) with slots of
    64 w bits, w = slot_words(3^L): every coefficient up to row L is below
    3^L, the value of the whole row at q = 1, so no slot carries.  A kept
    row of narrower slots is never reused, so the first row built past a
    width edge (rows 40 and 81) steps up from row 0.  A row is kept
    packed, and ``round_trinomial_sum`` reads its packed entries
    (``row``)."""

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

    def _build(self, L: int, lo: int, hi: int) -> dict:
        w = slot_words(3 ** L)
        start = max((k for k, r in self._rows.items() if k < L and lo in r
                     and hi in r and slot_words(3 ** k) == w), default=0)
        row = {d: self._rows[start][d] if start
               else [1 << 64 * w * _offset(d)] for d in range(lo, hi + 1)}
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


def round_trinomial(p: TrinomialParams,
                    cutoff: Optional[int] = None) -> LaurentSeries:
    """The round q-trinomial coefficient (L, b; a; q_step)_2.

    Exact and cached when ``cutoff`` is None, one entry per pair a, -a;
    otherwise equal to the exact value truncated at ``cutoff``, built only
    below it and not cached.
    """
    if cutoff is None:
        return _exact_round(p.L, p.b, p.a, p.step)
    return round_trinomial_sum(p.L, p.step, [(p.b, p.a, 0)], cutoff)


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
    ``terms`` (any iterable; a term may repeat).

    The terms are first folded onto 0 <= a <= L (``_fold``).  With a
    cutoff, the sum of the truncated builds, one for each distinct (b, a)
    at its lowest shift.  Exact, it adds the packed entries of row L by
    ``packed_sum``: the entries whose shifts share a class mod step are
    added as integers, one per class, each unpacked once.  Nothing is
    cached but the row."""
    kept = [t for t in (_fold(L, step, *term) for term in terms)
            if t is not None]
    if cutoff is not None:
        low: dict = {}
        for b, a, sh in kept:
            low[b, a] = min(sh, low.get((b, a), sh))
        built = {k: _round_sum(L, *k, step, cutoff - sh)
                 for k, sh in low.items()}
        return LaurentSeries.sum((built[b, a].shift(sh) for b, a, sh in kept),
                                 cutoff)
    if not kept:
        return LaurentSeries.zero()
    ds = [b - a for b, a, sh in kept]
    row, w = _ROWS.row(L, min(0, *ds), max(1, *ds))
    # At q = 1 an entry is the trinomial coefficient T(L, a), whatever b,
    # and T(L, 0) + 2 (T(L, 1) + ... + T(L, L)) = 3^L.  So no slot of a
    # class sum passes max(m_0, m / 2) 3^L, with m_0 terms at a = 0 and at
    # most m at any a > 0; unsigned slots of 64 w bits hold it.
    copies: dict = {}
    for b, a, sh in kept:
        copies[a] = copies.get(a, 0) + (1 if a else 2)
    if max(copies.values()) * 3 ** L >= 1 << 64 * w + 1:
        raise OverflowError(f"a sum of {len(kept)} entries of row {L} may "
                            f"pass its slots of {64 * w} bits")
    # an entry holds q_step^e at slot e + _offset(d), so slot 0 of the
    # entry at shift sh stands for q^((sh - _offset(d) step)/2)
    return packed_sum(((row[b - a][a], sh - _offset(b - a) * step, False)
                       for b, a, sh in kept), w, step)


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


def t_trinomial_sum(n: int, L: int, step: int, terms) -> LaurentSeries:
    """sum T_n(L, a; q_step) q^(e/2) over the (a, e) in ``terms``.  Since
    T_n(L, a) is q^(s/2) (L, a-n; a; q_step)_2 at 1/q, s = t_shift(n, L, a,
    step), it is the round-trinomial sum at exponents -(s + e), reversed
    once."""
    return round_trinomial_sum(
        L, step, ((a - n, a, -(t_shift(n, L, a, step) + e)) for a, e in terms)
    ).reverse_exponents()


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

"""q-Pochhammer symbols and Gaussian binomial coefficients.

All exponents are in half-units of q^(1/2) (see series.py).  The ``step``
argument is the base of the symbol in half-units: step=2 means base q,
step=6 means base q^3 and so on.

Arguments of Pochhammer symbols are signed monomials a = sign * q^(exp/2)
with sign in {-1, 0, +1}; sign 0 encodes a = 0.

The exact symbols are built one factor 1 - a q_step^k at a time with
``LaurentSeries.mul_one_minus``.  The truncated symbols (``poch_infinite``,
``inv_poch_infinite`` and ``inv_poch_series``) hand all of their factors
to one ``series.carry_one_minus`` call, which carries the series through
them as one packed integer.  The infinite ones take an optional series
``out`` and multiply or divide it, so a truncated product of several
symbols is one series carried through all of their factors, never a
dense product of two of them.

An exact Gaussian binomial has one form, a packed integer: each [top, k]
is one ``series.walk_one_minus`` from 1, every division checked, cached
with its middle coefficient (``_gaussian_base``).  ``packed_gaussian``
narrows and spreads it for a sum's slots, and ``gaussian_binomial``
unpacks it.  A truncated binomial is ``inv_poch_series`` carried through
its numerator factors.

An exact sum of products of Gaussian binomials is one ``gaussian_sum``:
each binomial is read from ``packed_gaussian``, each term is one product
of integers, and ``series.packed_sum`` adds the products and unpacks
each exponent class once.  The slot widths come from a bound on the slots taken before
anything is packed: the coefficients are non-negative, so a product's
slots are at most one factor's middle coefficient (``gaussian_peak``)
times the values of the others at q = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import comb, gcd, prod
from operator import mul
from typing import Optional

from .series import (LaurentSeries, carry_one_minus, packed_sum, repack,
                     slot_words, unpack_series, walk_one_minus)


@dataclass(frozen=True)
class MonomialArg:
    """A signed monomial argument sign * q^(exp/2)."""
    sign: int
    exp: int = 0

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")


Q = MonomialArg(1, 2)          # the variable q itself
ZERO_ARG = MonomialArg(0, 0)


def _check_step(step: int) -> None:
    if step < 1:
        raise ValueError("step must be a positive half-exponent")


def poch_finite(arg: MonomialArg, step: int, n: int) -> LaurentSeries:
    """(a; q_step)_n = prod_{k=0}^{n-1} (1 - a q_step^k), exact.

    Returns the empty product 1 for n = 0.
    """
    _check_step(step)
    if n < 0:
        raise ValueError("poch_finite needs n >= 0")
    out = LaurentSeries.one()
    for k in range(n):
        out = out.mul_one_minus(arg.sign, arg.exp + k * step)
    return out


@lru_cache(maxsize=None)
def q_poch(n: int, step: int) -> LaurentSeries:
    """(q_step; q_step)_n, cached."""
    return poch_finite(MonomialArg(1, step), step, n)


def _reach(out: LaurentSeries) -> Optional[int]:
    """The highest exponent e at which a factor 1 - a q^(e/2) still reaches
    a term that out keeps: cutoff - min_exp for a truncated out, None (no
    bound) for an exact one, and -1 (no factor) for zero.  No such factor
    moves min_exp, so every factor past the bound stays past it."""
    if out.is_zero():
        return -1
    return None if out.cutoff is None else out.cutoff - out.min_exp()


def _infinite_product(arg: MonomialArg, step: int, cutoff: int,
                      out: Optional[LaurentSeries],
                      divide: bool) -> LaurentSeries:
    """out truncated at cutoff (1 if None), times or divided by the
    factors of (a; q_step)_infinity that can reach a term it keeps."""
    _check_step(step)
    if arg.sign != 0 and arg.exp <= 0:
        raise ValueError("infinite product diverges: argument exponent <= 0")
    out = (LaurentSeries.one() if out is None else out).truncate(cutoff)
    return carry_one_minus(out, arg.sign,
                           range(arg.exp, _reach(out) + 1, step), divide)


def poch_infinite(arg: MonomialArg, step: int, cutoff: int,
                  out: Optional[LaurentSeries] = None) -> LaurentSeries:
    """out * (a; q_step)_infinity truncated at cutoff (half-units); out
    defaults to 1.

    Formal convergence requires arg.exp > 0 when the argument is nonzero.
    """
    return _infinite_product(arg, step, cutoff, out, False)


def inv_poch_infinite(arg: MonomialArg, step: int, cutoff: int,
                      out: Optional[LaurentSeries] = None) -> LaurentSeries:
    """out / (a; q_step)_infinity truncated at cutoff, exact below it; out
    defaults to 1."""
    return _infinite_product(arg, step, cutoff, out, True)


def inv_poch_series(n: int, step: int, cutoff: int) -> LaurentSeries:
    """Truncated 1/(q_step; q_step)_n, divided by the factors
    (1 - q_step^k) up to the first that reaches no kept term; the zero
    series for n < 0.

    The n < 0 branch is the convention that makes summands with
    out-of-range indices vanish, so negative n is a value, not an error.
    """
    _check_step(step)
    if n < 0:
        return LaurentSeries.zero(cutoff)
    out = LaurentSeries.one().truncate(cutoff)
    return carry_one_minus(out, 1, range(step, min(n * step, _reach(out)) + 1,
                                         step), True)


@lru_cache(maxsize=None)
def _gaussian_base(top: int, k: int) -> tuple[int, int, int]:
    """[top, k], 0 <= k <= top - k, in its base Q as (x, w, peak), cached:
    x = sum c_i X^i, X = 2^(64 w), for [top, k] = sum c_i Q^i, and peak
    its largest coefficient, the middle one, since the list is symmetric
    and unimodal.  One entry serves [top, k] and [top, top - k].

    ``walk_one_minus`` walks x from 1 through the steps (top - k + i, i),
    i = 1..k: step i multiplies by 1 - X^(top-k+i) and divides by
    1 - X^i, so it holds [top - k + i, i], and every division is checked.
    No coefficient is negative, so every slot of x reads as unsigned
    too, and w is at least slot_words(peak).  No series is built."""
    for x, w, _ in walk_one_minus(1, 1, 1, ((top - k + i, i)
                                            for i in range(1, k + 1))):
        pass
    bits = 64 * w
    return x, w, (x >> bits * (k * (top - k) // 2)) & ((1 << bits) - 1)


def gaussian_binomial(top: int, bottom: int, step: int = 2,
                      cutoff: Optional[int] = None) -> LaurentSeries:
    """The q-binomial [top choose bottom] in base q_step.

    Exact when ``cutoff`` is None: the packed entry of ``_gaussian_base``,
    unpacked.  Otherwise equal to the exact value truncated at
    ``cutoff``: ``inv_poch_series``(k, step, cutoff), k = min(bottom,
    top - bottom), carried through the numerator factors
    1 - q_step^(top-k+i) that reach a kept term, in one
    ``carry_one_minus`` call.  Zero whenever the pair is out of range
    (bottom < 0, top < 0 or bottom > top), matching the extension used by
    all the summations here.
    """
    _check_step(step)
    if bottom < 0 or top < 0 or bottom > top:
        return LaurentSeries.zero(cutoff)
    k = min(bottom, top - bottom)
    if cutoff is None:
        x, w, _ = _gaussian_base(top, k)
        return unpack_series(x, w, 0, step)
    out = inv_poch_series(k, step, cutoff)
    return carry_one_minus(out, 1, range((top - k + 1) * step,
                                         min(top * step, _reach(out)) + 1,
                                         step))


def gaussian_peak(top: int, bottom: int) -> int:
    """The largest coefficient of [top, bottom], 0 <= bottom <= top, in any
    base: its middle one (``_gaussian_base``)."""
    return _gaussian_base(top, min(bottom, top - bottom))[2]


@lru_cache(maxsize=None)
def packed_gaussian(top: int, k: int, w: int, r: int) -> int:
    """[top, k], k <= top - k, as the packed integer sum c_i X^(r i),
    X = 2^(64 w), for [top, k] = sum c_i Q^i in its base Q: spread r-fold
    when it sits on a grid r times finer than its base (a base-q^3
    binomial on the q grid takes r = 3), cached per (top, k, w, r).  The
    caller takes w >= slot_words(peak).

    The entry of ``_gaussian_base`` is narrowed to w where its walk took
    wider slots (a signed ``repack``, every slot below X / 2), and then
    spread by an unsigned repack into slots of r w words: one that holds
    c reads as c and r - 1 empty slots of w words.  At the walk's own w
    with r = 1 it is the entry itself."""
    x, v, _ = _gaussian_base(top, k)
    if v > w:
        x, v = repack(x, v, w, signed=True), w
    return repack(x, v, r * w)


def _factor_bounds(factors):
    """The factors as (top, k, step), k = min(bottom, top - bottom), the
    least bound on a slot of their product, its value at q = 1 and the
    gcd of their steps; None when a factor is out of range, so that the
    product is 0.

    Every factor has non-negative coefficients, so a slot of the product
    is at most the largest coefficient of one factor (``gaussian_peak``)
    times the values at q = 1 of the others, binomial coefficients; the
    least bound takes the factor whose peak is least relative to its
    value."""
    ks, whole, bp, bv, g = [], 1, 0, 0, 0
    for top, bottom, step in factors:
        _check_step(step)
        k = min(bottom, top - bottom)
        if k < 0:
            return None
        v, p = comb(top, k), gaussian_peak(top, k)
        if not bv or p * bv < bp * v:
            bp, bv = p, v
        whole *= v
        g = gcd(g, step)
        ks.append((top, k, step))
    return ks, whole // bv * bp if bv else 1, whole, g


def gaussian_sum(terms) -> LaurentSeries:
    """The exact sum of c q^(e/2) prod [top, bottom]_{q_step} over the
    (c, e, factors) in ``terms`` (any iterable), each factor a (top,
    bottom, step) triple; a term with a factor out of range is 0, as in
    ``gaussian_binomial``.  A term (c, e, factors, inner) is also
    multiplied by the sum of the terms in ``inner``, whose coefficients
    must be positive and whose exponents must share one class mod g.

    It is one packed sum on the grid of g, the gcd of the steps.  Each
    term is one product of integers, of the ``packed_gaussian`` of its
    factors, spread step / g-fold, and of its inner sum, added as one
    integer; ``packed_sum`` adds the products, times c, one integer per
    class of e mod g, and unpacks each class once.  The bound of
    ``_factor_bounds``, with an inner sum the lesser of its bounds times
    the value of the factors and its value times their bound, sets the
    slots a term's product is taken in.  The sum over the terms of |c|
    times it sets the slots of 64 w bits of the sum, into which a
    narrower product is repacked.  Both are taken before anything is
    packed."""
    kept, bound, g, signed = [], 0, 0, False
    for c, e, factors, *inner in terms:
        outer = _factor_bounds(factors)
        if not c or outer is None:
            continue
        ks, term, whole, gk = outer
        g = gcd(g, gk)
        inside = None
        if inner:
            inside, most, value = [], 0, 0
            for c2, e2, factors2 in inner[0]:
                if c2 < 1:
                    raise ValueError("inner coefficients must be positive")
                t = _factor_bounds(factors2)
                if t is not None:
                    inside.append((c2, e2, t[0]))
                    most, value = most + c2 * t[1], value + c2 * t[2]
                    g = gcd(g, t[3])
            if not inside:
                continue
            term = min(most * whole, value * term)
        bound += abs(c) * term
        signed |= c < 0
        kept.append((c, e, ks, inside, slot_words(term)))
    if not kept:
        return LaurentSeries.zero()
    w, g = slot_words(bound), g or 1

    def products():
        # one product per term, made as packed_sum reads it; reduce takes
        # a lone factor as it is, so no cached binomial is copied
        for c, e, ks, inside, v in kept:
            xs = [packed_gaussian(top, k, v, step // g) for top, k, step in ks]
            if inside:
                low, x = min(e2 for c2, e2, ks2 in inside), 0
                for c2, e2, ks2 in inside:
                    if (e2 - low) % g:
                        raise ValueError("inner exponents must share a class")
                    x += c2 * prod(packed_gaussian(top, k, v, step // g)
                                   for top, k, step in ks2) \
                        << 64 * v * ((e2 - low) // g)
                xs.append(x)
                e += low
            x = repack(reduce(mul, xs) if xs else 1, v, w)
            yield (x if abs(c) == 1 else abs(c) * x), e, c < 0
    return packed_sum(products(), w, g, signed)

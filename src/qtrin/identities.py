"""Registry of the polynomial and q-series identities, plus verifiers.

Each identity id maps to a pair of side builders (LHS, RHS) over the
q-blocks and trinomial kernels.  Polynomial identities are verified
exactly; identities involving infinite products are verified below an
explicit cutoff (half-exponent units).

The two generating-function checks are registry ids: ``genfun_products``
in (t, q) and the trivariate lemma ``lemma_genfun`` in (t, x, q), whose
LHS share one t-graded sum; ``verify_lemma31`` verifies the latter.
Also here: the Bailey-type transform and limit-stabilization checks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, count
from typing import Callable, Optional, Union

from . import qblocks, trinomials
from .series import (LaurentSeries, TrivariateSeries, packed_sum, repack,
                     slot_words, walk_one_minus)
from .qblocks import (MonomialArg, gaussian_binomial, gaussian_peak,
                      gaussian_sum, inv_poch_infinite, inv_poch_series,
                      packed_gaussian, poch_infinite, q_poch)
from .trinomials import (RefinedTParams, TParams, TrinomialParams,
                         _half_units, packed_t, refined_terms,
                         round_trinomial, round_trinomial_sum, t_trinomial,
                         t_trinomial_sum)

Side = Union[LaurentSeries, TrivariateSeries]


# ---------------------------------------------------------------------------
# instances and reports

@dataclass(frozen=True)
class IdentityInstance:
    id: str
    params: dict
    cutoff: Optional[int] = None   # half-exponent units; None = exact mode


@dataclass
class VerificationReport:
    instance: IdentityInstance
    match: bool
    first_mismatch: Optional[tuple] = None   # ([t, x,] exponent, lhs, rhs)
    elapsed_ms: int = 0
    detail: dict = field(default_factory=dict)


def quad(m: int, n: int) -> int:
    return 2 * m * m + 6 * m * n + 6 * n * n


# Half-unit exponents of the Capparelli double-sum summands.  The
# bounded families (thm71, thm72, fincap2m, fincap1n, fincap2n) carry
# the same exponents as the series they approach.

def _kr1_exp(m: int, n: int) -> int:
    return 2 * quad(m, n)


def _cap2_exp_a(m: int, n: int) -> int:
    return 2 * (quad(m, n) + m + 3 * n)


def _cap2_exp_b(m: int, n: int) -> int:
    return 2 * (quad(m, n) + 3 * m + 6 * n + 1)


def _outlook2_exp(m: int, n: int) -> int:
    return 2 * (quad(m, n) - 2 * m - 3 * n)


# ---------------------------------------------------------------------------
# shared building blocks

def _ratio3_steps(L: int) -> list[tuple[int, int, int]]:
    """(a, b, d) for n = 1..L//2: entry n of the quotients below is entry
    n-1 times (1-q^a) (1-q^b) / (1-q^d), a = L-2n+2, b = L-2n+1, d = 3n."""
    return [(L - 2 * n + 2, L - 2 * n + 1, 3 * n)
            for n in range(1, L // 2 + 1)]


@lru_cache(maxsize=None)
def _ratio3(L: int) -> tuple[int, int, tuple[int, ...]]:
    """The quotients (q^3;q^3)_L / ((q;q)_{L-2n} (q^3;q^3)_n), n = 0..L//2,
    packed: (w, h, (x_0, x_1, ...)), x_n = sum c_i X^i for entry n =
    sum c_i q^i, in two's-complement slots of 64 w bits, and h the sum
    over the entries of their largest |coefficient|.  The whole table
    takes w = slot_words(2 h), so a sum that reads each entry at most
    twice fits its slots.

    The head n = 0 is prod_{k=1..L} (1 + X^k + X^(2k)), two shift-adds
    per k; its coefficients add up to 3^L, so slots that hold 3^L hold
    every partial product.  ``walk_one_minus`` carries it through the
    steps of _ratio3_steps(L): each division is checked, and each entry
    is measured, which gives h and keeps the walk's slots as narrow as
    its bound allows.  Each entry is then repacked into the table's
    slots where the walk's differ.  No series is built."""
    w = slot_words(3 ** L)
    x = 1
    for k in range(1, L + 1):
        x += (x << 64 * w * k) + (x << 128 * w * k)
    walk = list(walk_one_minus(x, w, (3 ** L).bit_length(),
                               _ratio3_steps(L), measure=True))
    h = sum(height for _, _, height in walk)
    w = slot_words(2 * h)
    for n, (x, v, _) in enumerate(walk):
        walk[n] = repack(x, v, w, signed=True)
    return w, h, tuple(walk)


def _ratio4_bound(M: int, k: int) -> int:
    """A bound on the slots of a sum of each quotient of ``_ratio4`` k
    times: k times the sum over m + 2n + d = M of a bound on the largest
    |coefficient| of each quotient.

    The quotient is prod_{M-n < j <= M} (1 - q^(3j)), whose coefficients
    add up in absolute value to at most 2^n, times the q^3-multinomial
    [M - n; m, n, d], whose add up to (M - n)! / (m! n! d!), times C_m =
    prod_{j <= m} (1 + q^j + q^(2j)); the last two are non-negative, so
    each coefficient is at most 2^n (M - n)! / (m! n! d!) max C_m.  With
    max C_m <= 3^m these add up to a_M = [z^M] 1 / (1 - 4z - 2z^2).  Where
    k a_M needs more than one word, max C_m is measured instead, from the
    C_m walked packed: that takes 7 to 8 bits off from M = 30 to 62."""
    a, b = 1, 4
    for _ in range(M):
        a, b = b, 4 * b + 2 * a
    if slot_words(k * a) == 1:
        return k * a
    top = [h for _, _, h in walk_one_minus(
        1, 1, 1, ((3 * j, j) for j in range(1, M + 1)), measure=True)]
    return k * sum(2 ** n * math.comb(M - n, n) * math.comb(M - 2 * n, m)
                   * top[m] for n in range(M // 2 + 1)
                   for m in range(M - 2 * n + 1))


@lru_cache(maxsize=None)
def _ratio4(M: int, *exps: Callable[[int, int], int]) -> LaurentSeries:
    """sum over m + 2n <= M of (q^3;q^3)_M / ((q;q)_m (q^3;q^3)_n
    (q^3;q^3)_d) q^(e(m, n)/2), d = M - 2n - m, one term for each exponent
    e in ``exps`` (half-units), as one ``packed_sum`` in signed slots.

    Column n starts at its d = 0 entry, entry n of _ratio3(M), and walks
    down m with ``walk_one_minus``: the entry at d is the one at d - 1
    times (1 - q^(m+1)) / (1 - q^(3d)), each division checked.  The
    entries go to the sum as they are walked, so one is held at a time.
    The sum takes slots of its own, from ``_ratio4_bound``: the table's
    can be too narrow for it (M = 40 is one word short).  The walk starts
    in them and widens on its own if it must; an entry walked wider is
    repacked into them."""
    v, h, table = _ratio3(M)
    bound = _ratio4_bound(M, len(exps))
    w = slot_words(bound)
    b = min(h, bound).bit_length()

    def entries():
        # a zero part at m = n = 0 first: there each family's exponent is
        # least, so no later part moves the class sum up to a lower base
        for e in exps:
            yield 0, e(0, 0), False
        for n, x in enumerate(table):
            top = M - 2 * n
            steps = ((top - d + 1, 3 * d) for d in range(1, top + 1))
            walk = walk_one_minus(repack(x, v, w, signed=True), w, b, steps)
            for d, (y, u, _) in enumerate(walk):
                if u != w:
                    y = repack(y, u, w, signed=True)
                for e in exps:
                    yield y, e(top - d, n), False
    return packed_sum(entries(), w, 2, signed=True)


# The lru_caches of the exact path, held as the cached callables
# themselves so that rebinding a module attribute cannot hide them.
# packed_gaussian holds the packed binomials of the Gaussian sums, one
# per slot width and spread; _ratio3 holds the one quotient table per L;
# _ratio4 holds no table, only the folded sums, one per (M, exps).
_CACHES = {"q_poch": qblocks.q_poch,
           "_gaussian_base": qblocks._gaussian_base,
           "packed_gaussian": qblocks.packed_gaussian,
           "_round_trinomial": trinomials._round_trinomial,
           "_ratio3": _ratio3, "_ratio4": _ratio4}


def cache_sizes() -> dict[str, int]:
    """Number of entries each exact-path cache holds (for _ratio4, folded
    sums), and the rows of round trinomials kept, the cut row too, with
    the entries across them."""
    sizes = {name: fn.cache_info().currsize for name, fn in _CACHES.items()}
    sizes["round_rows"], sizes["round_row_entries"] = \
        trinomials._ROWS.sizes()
    return sizes


def clear_caches() -> None:
    """Empty every exact-path cache and the round-trinomial rows; they
    are unbounded otherwise."""
    for fn in _CACHES.values():
        fn.cache_clear()
    trinomials._ROWS.clear()


def _double_sum(cutoff: int, *exps: Callable[[int, int], int]
                ) -> LaurentSeries:
    """sum_{m,n>=0} q^(e(m,n)/2) / ((q;q)_m (q^3;q^3)_n), truncated, one
    term for each exponent e in ``exps`` (half-units).

    Each exponent must grow quadratically so only finitely many terms land
    below the cutoff; the loops run while the lowest of them does.  Each
    carried quotient is cut to what its next terms read, so that lowest
    exponent must not fall as m or n grows.
    """
    def low(m, n):
        return min(e(m, n) for e in exps)
    terms = []
    inv_m = LaurentSeries.one().truncate(cutoff)        # 1/(q;q)_m
    m = 0
    while low(m, 0) <= cutoff or m == 0:
        inv_mn = inv_m                       # 1/((q;q)_m (q^3;q^3)_n)
        n = 0
        while low(m, n) <= cutoff:
            terms += (inv_mn.shift(e(m, n)) for e in exps)
            n += 1
            inv_mn = inv_mn.truncate(cutoff - low(m, n)).div_one_minus(
                1, 6 * n)
        m += 1
        inv_m = inv_m.truncate(cutoff - low(m, 0)).div_one_minus(1, 2 * m)
        if m > 4 * cutoff + 8:
            raise ValueError("double sum failed to terminate")
    return LaurentSeries.sum(terms, cutoff)


def _cap_products(cutoff: int, *pairs: tuple[int, int]) -> LaurentSeries:
    """sum over (a, b) in ``pairs`` of (-q^(a/2), -q^(b/2); q^6)_inf, times
    (-q^3; q^3)_inf once, truncated."""
    out = LaurentSeries.sum(
        (poch_infinite(MonomialArg(-1, b), 12, cutoff,
                       poch_infinite(MonomialArg(-1, a), 12, cutoff))
         for a, b in pairs), cutoff)
    return poch_infinite(MonomialArg(-1, 6), 6, cutoff, out)


def _binom2(x: int) -> int:
    """x*(x-1)//2, valid for any integer x."""
    return x * (x - 1) // 2


# ---------------------------------------------------------------------------
# side builders, one pair per identity id

def _ratio3_sum(L: int, sign: int, *exps: Callable[[int], int]
                ) -> LaurentSeries:
    """sum_n sign^n (q^3;q^3)_L / ((q;q)_{L-2n} (q^3;q^3)_n) q^(e(n)/2),
    one term for each exponent e in ``exps`` (half-units): the packed
    entries of _ratio3(L), added by ``packed_sum`` in signed slots, one
    class per exponent parity.  No slot of a class sum passes the sum of
    the heights of the entries read; OverflowError if the slots of the
    table could not hold that."""
    w, h, table = _ratio3(L)
    if slot_words(len(exps) * h) > w:
        raise OverflowError(f"a sum of {len(exps)} terms per entry of "
                            f"_ratio3({L}) may pass its slots of {64 * w} "
                            "bits")
    return packed_sum(((x, e(n), sign < 0 and n % 2 == 1)
                       for n, x in enumerate(table) for e in exps),
                      w, 2, signed=True)


def _fincap_terms(N: int, k: int, e: Callable[[int, int], int]):
    """The terms of sum over m, n >= 0 with m + 2n <= N of
    [3d+k, m] [2d+n+k/2, n]_{q^3} q^(e(m, n)/2), d = N - 2n - m, for
    ``gaussian_sum``."""
    for n in range(N // 2 + 1):
        for m in range(N - 2 * n + 1):
            d = N - 2 * n - m
            yield 1, e(m, n), ((3 * d + k, m, 2), (2 * d + n + k // 2, n, 6))


def _first_pair_lhs(p, c):
    L = p["L"]
    return _ratio3_sum(L, -1, lambda n: 3 * n * n + n,
                       lambda n: 3 * n * n - n + 4 * L + 2)


def _first_pair_rhs(p, c):
    L = p["L"]
    # the second family's (L, j; j-1) at j + 1 is the first family's
    # (L, j+1; j), so each enters at both exponents
    return round_trinomial_sum(L, 6, ((j + 1, j, e) for j in range(-L, L + 1)
                                      for e in (2 * (L + j + 1), 2 * (L - j))),
                               c)


def _second_pair_lhs(p, c):
    return _ratio3_sum(p["L"], -1, lambda n: 3 * n * n - n)


def _second_pair_rhs(p, c):
    L = p["L"]
    return round_trinomial_sum(L, 6, ((j - 1, j, 2 * (2 * L - j))
                                      for j in range(-L, L + 1)), c)


def _third_pair_lhs(p, c):
    return _ratio3_sum(p["L"], -1, lambda n: 3 * n * n + n)


def _third_pair_rhs(p, c):
    L = p["L"]
    return round_trinomial_sum(L, 6, ((j, j, 2 * (L - j))
                                      for j in range(-L, L + 1)), c)


def _first_pair_dual_lhs(p, c):
    L = p["L"]
    return _ratio3_sum(L, 1, lambda n: 2 * _binom2(L - 2 * n),
                       lambda n: 2 * (_binom2(L - 2 * n + 1) + n + L + 1))


def _first_pair_dual_rhs(p, c):
    L = p["L"]
    # sum_j (T(j) + T(j+1)) q^((3j^2+j)/2): T_{-1}(L, j) is zero past
    # |j| = L and enters at j and at j - 1
    return t_trinomial_sum(-1, L, 6, ((j, e) for j in range(-L, L + 1)
                                      for e in (3 * j * j + j,
                                                3 * j * j - 5 * j + 2)))


def _second_pair_dual_lhs(p, c):
    L = p["L"]
    return _ratio3_sum(L, 1, lambda n: 2 * _binom2(L - 2 * n))


def _second_pair_dual_rhs(p, c):
    L = p["L"]
    return t_trinomial_sum(1, L, 6, ((j, 3 * j * j - j)
                                     for j in range(-L, L + 1)))


def _third_pair_dual_lhs(p, c):
    L = p["L"]
    return _ratio3_sum(L, 1, lambda n: (L - 2 * n) ** 2)


def _third_pair_dual_rhs(p, c):
    L = p["L"]
    return t_trinomial_sum(0, L, 6, ((j, 3 * j * j + 2 * j)
                                     for j in range(-L, L + 1)))


def _t_sum_sides(kind: int):
    """Side builders of the T_kind summation in (L, a): the Bailey-type
    transform at alpha = {a: 1} in base q."""
    def lhs(p, c):
        return _bailey_lhs(kind, {p["a"]: LaurentSeries.one()}, p["L"], 2)

    def rhs(p, c):
        return _bailey_rhs(kind, {p["a"]: LaurentSeries.one()}, p["L"], 2)
    return lhs, rhs


def _bmo_lhs(p, c):
    L, a = p["L"], p["a"]
    combo = t_trinomial(TParams(-1, L, a)) + t_trinomial(TParams(-1, L, a + 1))
    return combo.mul_one_minus(1, 2 * (L + 1))


def _bmo_rhs(p, c):
    L, a = p["L"], p["a"]
    return t_trinomial(TParams(1, L + 1, a)) - \
        t_trinomial(TParams(0, L + 1, a)).shift(L + 1 - a)


def _binom_shift_lhs(p, c):
    L, i = p["L"], p["i"]
    return gaussian_binomial(L, i).mul_one_minus(1, 2 * (L + 1))


def _binom_shift_rhs(p, c):
    L, i = p["L"], p["i"]
    return gaussian_binomial(L + 1, i + 1).mul_one_minus(1, 2 * (i + 1))


def _thm71_lhs(p, c):
    return _ratio4(p["M"], _kr1_exp)


def _thm71_rhs(p, c):
    M = p["M"]
    return gaussian_sum((1, 2 * (3 * j * j + j), ((2 * M, M + j, 6),))
                        for j in range(-M, M + 1))


def _thm72_lhs(p, c):
    M = p["M"]
    s = _ratio4(M, _outlook2_exp)
    return s + s.shift(6 * M)                      # times (1 + q^(3M))


def _thm72_rhs(p, c):
    M = p["M"]
    return gaussian_sum((1, 2 * e, ((2 * M, M + j, 6),))
                        for j in range(-M, M + 1)
                        for e in (3 * j * j - 2 * j, 3 * j * j + j))


def _fincap2m_lhs(p, c):
    return _ratio4(p["M"], _cap2_exp_a, _cap2_exp_b)


def _fincap2m_rhs(p, c):
    M = p["M"]
    return gaussian_sum((1, 2 * (3 * j * j + 2 * j), ((2 * M + 1, M - j, 6),))
                        for j in range(-M - 1, M + 1))


def _fincap1n_lhs(p, c):
    return gaussian_sum(_fincap_terms(p["N"], 0, _kr1_exp))


def _fincap_rhs(N: int, k: int, a: int, b: int) -> LaurentSeries:
    """sum_l [N+k, 2l+k]_{q^3} (-q^(a/2); q^6)_{l+k} (-q^(b/2); q^6)_l
    q^(3 binom(N-2l, 2)) for k in {0, 1}, the products carried from l-1.
    The terms end at 2l + k = N + k."""
    parts = []
    poch = LaurentSeries.one().mul_one_minus(-1, a) if k else \
        LaurentSeries.one()
    for l in range(N // 2 + 1):
        term = gaussian_binomial(N + k, 2 * l + k, 6) * poch
        parts.append(term.shift(6 * _binom2(N - 2 * l)))
        poch = poch.mul_one_minus(-1, a + 12 * (l + k)).mul_one_minus(
            -1, b + 12 * l)
    return LaurentSeries.sum(parts)


def _fincap1n_rhs(p, c):
    return _fincap_rhs(p["N"], 0, 4, 8)


def _fincap2n_lhs(p, c):
    N = p["N"]
    return gaussian_sum([*_fincap_terms(N, 2, _cap2_exp_a),
                         *_fincap_terms(N, 0, _cap2_exp_b)])


def _fincap2n_rhs(p, c):
    return _fincap_rhs(p["N"], 1, 2, 10)


def _kr1_lhs(p, c):
    return _double_sum(c, _kr1_exp)


def _kr1_rhs(p, c):
    return _cap_products(c, (4, 8))


def _cap2_lhs(p, c):
    return _double_sum(c, _cap2_exp_a, _cap2_exp_b)


def _cap2_rhs(p, c):
    return _cap_products(c, (2, 10))


def _outlook2_lhs(p, c):
    return _double_sum(c, _outlook2_exp)


def _outlook2_rhs(p, c):
    return _cap_products(c, (4, 8), (2, 10))


def _qbin_lhs(p, c):
    zs, ze = p["z_sign"], p["z_exp"]
    terms = []
    # (a;q)_n / (q;q)_n, kept below c - n*ze, where summand n starts
    term = LaurentSeries.one().truncate(c)
    for n in range(c // ze + 1):
        terms.append(term.shift(n * ze).scale_coeffs(zs ** n))
        term = term.truncate(c - (n + 1) * ze).mul_one_minus(
            p["a_sign"], p["a_exp"] + 2 * n)
        term = term.div_one_minus(1, 2 * (n + 1))
    return LaurentSeries.sum(terms, c)


def _qbin_rhs(p, c):
    a = MonomialArg(p["a_sign"], p["a_exp"])
    zs, ze = p["z_sign"], p["z_exp"]
    az = MonomialArg(a.sign * zs, a.exp + ze) if a.sign != 0 else MonomialArg(0)
    return inv_poch_infinite(MonomialArg(zs, ze), 2, c,
                             poch_infinite(az, 2, c))


def _qexp_lhs(p, c):
    zs, ze = p["z_sign"], p["z_exp"]
    terms = []
    term = LaurentSeries.one().truncate(c)     # 1 / (q;q)_n
    n = 0
    while n * (n - 1) + n * ze <= c:
        terms.append(term.shift(n * (n - 1) + n * ze).scale_coeffs(zs ** n))
        n += 1
        term = term.truncate(c - n * (n - 1) - n * ze).div_one_minus(1, 2 * n)
    return LaurentSeries.sum(terms, c)


def _qexp_rhs(p, c):
    zs, ze = p["z_sign"], p["z_exp"]
    return poch_infinite(MonomialArg(-zs, ze), 2, c)


def _jtp_lhs(p, c):
    zs, ze = p["z_sign"], p["z_exp"]
    bound = int(math.isqrt(c)) + abs(ze) + 2
    # zs^j q^(j ze/2 + j^2)
    return LaurentSeries.sum(
        (LaurentSeries.monomial(zs if j % 2 else 1, j * ze + 2 * j * j)
         for j in range(-bound, bound + 1)), c)


def _jtp_rhs(p, c):
    zs, ze = p["z_sign"], p["z_exp"]
    out = poch_infinite(MonomialArg(1, 4), 4, c)
    out = poch_infinite(MonomialArg(-zs, 2 + ze), 4, c, out)
    return poch_infinite(MonomialArg(-zs, 2 - ze), 4, c, out)


def _poch_reversal_lhs(p, c):
    return q_poch(p["n"], 2).reverse_exponents()


def _poch_reversal_rhs(p, c):
    # (-1)^n q^{-binom(n+1,2)} (q;q)_n: the sign of the exponent differs
    # from some printed statements of this reversal; direct expansion at
    # n = 1 pins it down (1 - 1/q = -q^{-1}(1 - q)).
    n = p["n"]
    return q_poch(n, 2).shift(-n * (n + 1)).scale_coeffs((-1) ** n)


def _outlook1_terms(L: int, M: int):
    """The terms of sum_m [3M, m] [2M + (L-m)/2, 2M]_{q^3} q^(m^2/2) over
    0 <= m <= 3M with L - m even, for ``gaussian_sum``."""
    for m in range(L % 2, 3 * M + 1, 2):
        yield 1, m * m, ((3 * M, m, 2), (2 * M + (L - m) // 2, 2 * M, 6))


def _outlook1_lhs(p, c):
    return gaussian_sum(_outlook1_terms(p["L"], p["M"]))


def _outlook1_rhs(p, c):
    L, M = p["L"], p["M"]
    # sum_j cal-T(L, M; j, j; q^3) q^((3j^2+2j)/2) in one sum; the terms
    # of cal-T are 0 past |j| = min(L, M)
    top = min(L, M)
    return gaussian_sum(
        (k, 3 * j * j + 2 * j + e, factors)
        for j in range(-top, top + 1)
        for k, e, factors in refined_terms(RefinedTParams(L, M, j, j, 6)))


def _hierarchy_tuples(nu: int, L: int):
    """The N_1 >= ... >= N_nu >= 0 with N_1 + (N_1 + ... + N_nu) <= L,
    the only ones whose range of i is non-empty.  Each is yielded up to
    its last non-zero N_k and one 0 that stands for its zero tail (no 0
    when N_nu >= 1): every N_k past it would only add a factor 1."""
    stack = [((), L)]                   # a prefix and what is left of L
    while stack:
        Ns, room = stack.pop()
        if len(Ns) == nu:
            yield Ns
            continue
        yield Ns + (0,)
        # N_1 counts twice, in N_1 and in the sum
        top = min(Ns[-1], room) if Ns else room // 2
        stack.extend((Ns + (N,), room - N - (0 if Ns else N))
                     for N in range(1, top + 1))


def _hierarchy_lhs(p, c):
    nu, L = p["nu"], p["L"]

    def terms():
        # the inner multiplicities n_k = N_k - N_(k+1), N_(nu+1) = 0
        for Ns in _hierarchy_tuples(nu, L):
            ns = [N - M for N, M in zip(Ns, Ns[1:] + (0,))]
            heads = list(accumulate(Ns))            # N_1 + ... + N_j
            squares = sum(N * N for N in Ns)
            # the sum over m is outlook1's LHS at (i - heads[-1], n_nu);
            # below i = heads[-1] each of its top indices is below 2 n_nu,
            # so it is zero, and from there on no factor is zero
            for i in range(heads[-1], L - Ns[0] + 1):
                yield (1, 3 * (i * i + squares),
                       ((L - Ns[0], i, 6),
                        *((i - head + n, n, 6)
                          for n, head in zip(ns, heads[:-1]))),
                       _outlook1_terms(i - heads[-1], ns[-1]))
    return gaussian_sum(terms())


def _hierarchy_rhs(p, c):
    """sum_j q^(coef j^2 + j) (L, (nu+2)j; (nu+2)j; q^3)_2 over the j with
    |(nu+2)j| <= L, the only ones whose round trinomial is non-zero: at
    nu = 40, L = 6 only j = 0 is built, and 12 of the 13 j in -L..L are
    skipped."""
    nu, L = p["nu"], p["L"]
    coef = 3 * (nu + 2) * (nu + 1) // 2          # 3 * binom(nu+2, 2)
    top = L // (nu + 2)
    return round_trinomial_sum(
        L, 6, (((nu + 2) * j, (nu + 2) * j, 2 * (coef * j * j + j))
               for j in range(-top, top + 1)))


# ---------------------------------------------------------------------------
# generating functions in t: the bivariate (t, q) cross-check of the three
# pair identities, and the trivariate (t, x, q) lemma for round trinomials

def _euler(a: int, b: int, c: int, step: int, inverse: bool, t_cutoff: int,
           q_cutoff: int) -> TrivariateSeries:
    """(z; q_step)_inf, or its reciprocal if ``inverse``, for the monomial
    z = t^a x^b q^(c/2), a >= 1, through t^t_cutoff, from Euler's sums
    1/(z;Q)_inf = sum_m z^m/(Q;Q)_m and
    (z;Q)_inf = sum_m (-1)^m Q^(m(m-1)/2) z^m/(Q;Q)_m, Q = q_step."""
    ms = range(t_cutoff // a + 1)
    exps = [m * c + (0 if inverse else step * m * (m - 1) // 2) for m in ms]
    inv = LaurentSeries.one().truncate(q_cutoff - min([0, *exps]))  # 1/(Q;Q)_m
    entries = {}
    for m, e in zip(ms, exps):
        sign = 1 if inverse else (-1) ** m
        entries[(a * m, b * m)] = \
            inv.truncate(q_cutoff - e).shift(e).scale_coeffs(sign)
        inv = inv.div_one_minus(1, (m + 1) * step)
    return TrivariateSeries(entries, t_cutoff=t_cutoff, q_cutoff=q_cutoff)


def _t_graded_sum(rows: list, step: int, c: int) -> TrivariateSeries:
    """sum_L t^L sum_j x^j rows[L][j] / (Q;Q)_L, Q = q^(step/2), through
    t^(len(rows) - 1) and below c, for exact rows[L][j].  1/(Q;Q)_L is
    carried from L - 1; each entry keeps only what its lowest exponent
    needs."""
    need = {(L, j): c - min(0, f.min_exp()) for L, row in enumerate(rows)
            for j, f in row.items() if not f.is_zero()}
    inv = LaurentSeries.one().truncate(max(need.values(), default=c))
    entries = {}
    for L, row in enumerate(rows):
        if L:
            inv = inv.div_one_minus(1, step * L)
        for j, f in row.items():
            if (L, j) in need:
                entries[(L, j)] = inv.truncate(need[(L, j)]) * f
    return TrivariateSeries(entries, t_cutoff=len(rows) - 1, q_cutoff=c)


def _genfun_lhs(p, c):
    pair, tcut = p["pair"], p["t_cutoff"]
    rhs = (_first_pair_rhs, _second_pair_rhs, _third_pair_rhs)[pair - 1]
    return _t_graded_sum([{0: rhs({"L": L}, None)} for L in range(tcut + 1)],
                         6, c)


def _genfun_rhs(p, c):
    pair, tcut = p["pair"], p["t_cutoff"]
    # (t^2 q^e; q^3)_inf / (t; q)_inf, e = 1 for pair 2 and 2 otherwise
    prod = _euler(2, 0, 2 if pair == 2 else 4, 6, False, tcut, c) * \
        _euler(1, 0, 0, 2, True, tcut, c)
    if pair == 1:
        # times (1 + q) / (1 + t q) = sum_k (-1)^k t^k (q^k + q^(k+1))
        prod = prod * TrivariateSeries(
            {(k, 0): LaurentSeries.monomial((-1) ** k, 2 * k).mul_one_minus(
                -1, 2) for k in range(tcut + 1)}, t_cutoff=tcut, q_cutoff=c)
    return prod


def _lemma_lhs(p, c):
    n, tcut = p["n"], p["t_cutoff"]
    return _t_graded_sum(
        [{j: round_trinomial(TrinomialParams(L, j - n, j, step=2))
          for j in range(-L, L + 1)} for L in range(tcut + 1)], 2, c)


def _lemma_rhs(p, c):
    n, tcut = p["n"], p["t_cutoff"]
    # (t^2 q^-n; q)_inf / ((t; q)_inf (t x^-1 q^-n; q)_inf (t x; q)_inf).
    # At t-degree k, 1/(t x^-1 q^-n; q)_inf starts at q^(-nk), the lowest
    # start of the four factors, so for n > 0 every factor is built
    # 2 n t_cutoff half-units above c
    work = c + 2 * max(n, 0) * tcut
    rhs = _euler(2, 0, -2 * n, 2, False, tcut, work) * \
        _euler(1, 0, 0, 2, True, tcut, work) * \
        _euler(1, -1, -2 * n, 2, True, tcut, work) * \
        _euler(1, 1, 0, 2, True, tcut, work)
    return TrivariateSeries(rhs.entries, t_cutoff=tcut, q_cutoff=c)


# ---------------------------------------------------------------------------
# registry

@dataclass(frozen=True)
class IdentityDef:
    id: str
    param_names: tuple
    mode: str                    # "exact" | "truncated"
    lhs: Callable
    rhs: Callable
    check: Optional[Callable] = None   # extra parameter validation


def _nonneg(*names):
    def chk(p):
        for n in names:
            if p[n] < 0:
                raise ValueError(f"parameter {n} must be non-negative")
    return chk


def _qbin_check(p):
    if p["a_sign"] not in (-1, 0, 1) or p["z_sign"] not in (-1, 1):
        raise ValueError("signs must be in {-1, 0, +1} (z nonzero)")
    if p["z_exp"] < 1:
        raise ValueError("z must be a monomial with positive exponent")
    if p["a_sign"] != 0 and p["a_exp"] < 0:
        raise ValueError("a must have non-negative exponent")


def _jtp_check(p):
    if p["z_sign"] not in (-1, 1):
        raise ValueError("z sign must be +-1")
    if not -1 <= p["z_exp"] <= 1:
        raise ValueError("jtp needs z exponent in {-1, 0, 1} for convergence")


def _genfun_check(p):
    if p["pair"] not in (1, 2, 3):
        raise ValueError("pair must be 1, 2 or 3")
    if p["t_cutoff"] < 0:
        raise ValueError("t_cutoff must be non-negative")


def _lemma_check(p):
    # the Laurent tail of the RHS goes like q^(-n t_cutoff)
    if abs(p["n"]) > 4:
        raise ValueError("|n| must be at most 4")
    _nonneg("t_cutoff")(p)


def _hier_check(p):
    if p["nu"] < 1:
        raise ValueError("nu must be a positive integer")
    if p["L"] < 0:
        raise ValueError("L must be non-negative")


_DEFS = [
    IdentityDef("first_pair", ("L",), "exact", _first_pair_lhs,
                _first_pair_rhs, _nonneg("L")),
    IdentityDef("second_pair", ("L",), "exact", _second_pair_lhs,
                _second_pair_rhs, _nonneg("L")),
    IdentityDef("third_pair", ("L",), "exact", _third_pair_lhs,
                _third_pair_rhs, _nonneg("L")),
    IdentityDef("first_pair_dual", ("L",), "exact", _first_pair_dual_lhs,
                _first_pair_dual_rhs, _nonneg("L")),
    IdentityDef("second_pair_dual", ("L",), "exact", _second_pair_dual_lhs,
                _second_pair_dual_rhs, _nonneg("L")),
    IdentityDef("third_pair_dual", ("L",), "exact", _third_pair_dual_lhs,
                _third_pair_dual_rhs, _nonneg("L")),
    IdentityDef("t0_sum", ("L", "a"), "exact", *_t_sum_sides(0),
                _nonneg("L")),
    IdentityDef("t1_sum", ("L", "a"), "exact", *_t_sum_sides(1),
                _nonneg("L")),
    IdentityDef("tm1_sum", ("L", "a"), "exact", *_t_sum_sides(-1),
                _nonneg("L")),
    IdentityDef("bmo_transform", ("L", "a"), "exact", _bmo_lhs, _bmo_rhs,
                _nonneg("L")),
    IdentityDef("binom_shift", ("L", "i"), "exact", _binom_shift_lhs,
                _binom_shift_rhs, _nonneg("L", "i")),
    IdentityDef("thm71", ("M",), "exact", _thm71_lhs, _thm71_rhs,
                _nonneg("M")),
    IdentityDef("thm72", ("M",), "exact", _thm72_lhs, _thm72_rhs,
                _nonneg("M")),
    IdentityDef("fincap2m", ("M",), "exact", _fincap2m_lhs, _fincap2m_rhs,
                _nonneg("M")),
    IdentityDef("fincap1n", ("N",), "exact", _fincap1n_lhs, _fincap1n_rhs,
                _nonneg("N")),
    IdentityDef("fincap2n", ("N",), "exact", _fincap2n_lhs, _fincap2n_rhs,
                _nonneg("N")),
    IdentityDef("kr1", (), "truncated", _kr1_lhs, _kr1_rhs),
    IdentityDef("cap2", (), "truncated", _cap2_lhs, _cap2_rhs),
    IdentityDef("outlook2", (), "truncated", _outlook2_lhs, _outlook2_rhs),
    IdentityDef("q_binomial_theorem",
                ("a_sign", "a_exp", "z_sign", "z_exp"), "truncated",
                _qbin_lhs, _qbin_rhs, _qbin_check),
    IdentityDef("q_exponential", ("z_sign", "z_exp"), "truncated",
                _qexp_lhs, _qexp_rhs,
                lambda p: _qbin_check({"a_sign": 0, "a_exp": 0, **p})),
    IdentityDef("jtp", ("z_sign", "z_exp"), "truncated", _jtp_lhs, _jtp_rhs,
                _jtp_check),
    IdentityDef("poch_reversal", ("n",), "exact", _poch_reversal_lhs,
                _poch_reversal_rhs, _nonneg("n")),
    IdentityDef("genfun_products", ("pair", "t_cutoff"), "truncated",
                _genfun_lhs, _genfun_rhs, _genfun_check),
    IdentityDef("lemma_genfun", ("n", "t_cutoff"), "truncated", _lemma_lhs,
                _lemma_rhs, _lemma_check),
    IdentityDef("outlook1", ("L", "M"), "exact", _outlook1_lhs, _outlook1_rhs,
                _nonneg("L", "M")),
    IdentityDef("hierarchy", ("nu", "L"), "exact", _hierarchy_lhs,
                _hierarchy_rhs, _hier_check),
]

REGISTRY: dict[str, IdentityDef] = {d.id: d for d in _DEFS}


def identity_ids() -> list[str]:
    return sorted(REGISTRY)


def _resolve(instance: IdentityInstance) -> IdentityDef:
    d = REGISTRY.get(instance.id)
    if d is None:
        raise KeyError(f"unknown identity id: {instance.id!r}")
    missing = [n for n in d.param_names if n not in instance.params]
    extra = [n for n in instance.params if n not in d.param_names]
    if missing or extra:
        raise ValueError(
            f"{instance.id}: expected parameters {list(d.param_names)}, "
            f"missing {missing}, unexpected {extra}")
    if d.check is not None:
        d.check(instance.params)
    if d.mode == "truncated" and (instance.cutoff is None
                                  or instance.cutoff < 0):
        raise ValueError(f"{instance.id} needs a cutoff >= 0")
    if d.mode == "exact" and instance.cutoff is not None:
        raise ValueError(f"{instance.id} is an exact identity; no cutoff")
    return d


def compute_side(instance: IdentityInstance, side: str) -> Side:
    if side not in ("LHS", "RHS"):
        raise ValueError(f"side must be 'LHS' or 'RHS', not {side!r}")
    d = _resolve(instance)
    fn = d.lhs if side == "LHS" else d.rhs
    return fn(instance.params, instance.cutoff)


def verify_identity(instance: IdentityInstance) -> VerificationReport:
    """Compare both sides through ``instance.cutoff`` (everywhere in exact
    mode); raises ValueError if a side is known only below it.  The
    report's detail holds the milliseconds spent building each side and
    comparing them (``lhs_ms``, ``rhs_ms``, ``compare_ms``)."""
    d = _resolve(instance)
    t0 = time.perf_counter()
    lhs = d.lhs(instance.params, instance.cutoff)
    t1 = time.perf_counter()
    rhs = d.rhs(instance.params, instance.cutoff)
    t2 = time.perf_counter()
    for name, side in (("LHS", lhs), ("RHS", rhs)):
        cut = side.q_cutoff if isinstance(side, TrivariateSeries) \
            else side.cutoff
        if cut is not None and (instance.cutoff is None
                                or cut < instance.cutoff):
            want = "exact" if instance.cutoff is None else instance.cutoff
            raise ValueError(f"{instance.id}: {name} is known only to "
                             f"{cut}, short of the requested {want}")
    mism = lhs.first_mismatch(rhs)
    t3 = time.perf_counter()
    elapsed = int((t3 - t0) * 1000)
    detail = {"lhs_ms": 1000 * (t1 - t0), "rhs_ms": 1000 * (t2 - t1),
              "compare_ms": 1000 * (t3 - t2)}
    return VerificationReport(instance, mism is None, mism, elapsed, detail)


def verify_lemma31(n: int, t_cutoff: int, q_cutoff: int) -> VerificationReport:
    """Verify the registry id ``lemma_genfun``: both sides of the
    trivariate generating function for the round trinomials, through
    t-degree t_cutoff and q exponent q_cutoff (half-units)."""
    return verify_identity(IdentityInstance(
        "lemma_genfun", {"n": n, "t_cutoff": t_cutoff}, q_cutoff))


# ---------------------------------------------------------------------------
# Bailey-type transform

# Per kind: the offsets o of the T_kind(i, a + o) that F(i) sums, and
# the s of the powers Q^{a(a-s)/2} on the RHS.  The LHS power is
# Q^{i(i-kind)/2}; kind -1 widens [2L, L-a] to [2L+1, L-a] on the RHS,
# and kind 1 multiplies the LHS by (1 + Q^L).
_BAILEY_KINDS = {0: ((0,), (0,)), 1: ((0,), (1, -1)), -1: ((0, 1), (-1,))}


def _bailey_lhs(kind: int, alpha: dict[int, LaurentSeries], L: int,
                step: int) -> LaurentSeries:
    """sum_i Q^{i(i-kind)/2} [L, i] sum_a alpha(a) sum_o T_kind(i, a + o)
    as one packed sum, with no T_kind series built.  T_kind(i, b) is
    q^(e/2) R(1/q) for the packed entry R of row i that ``packed_t``
    gives, and [L, i] is its own reversal up to Q^{i(L-i)}, so each
    (i, a) adds a monomial times ([L, i] S)(1/q), S the entries R of its
    offsets o aligned and added, times each coefficient of alpha(a): the
    LHS is the reversal of one ``packed_sum`` of these products.

    Distinct entries of row i add up to at most 3^i at q = 1, so a slot
    of [L, i] S is below the middle coefficient of [L, i] times 3^i.
    That bound sets the slots of the product, into which S is repacked
    from the slots of its row, and the sum over the products of |c|
    times it sets the slots of the sum, into which the product is
    repacked.  A truncated alpha(a) cuts the LHS where __mul__ would: at
    its cutoff plus the lowest exponent of each T_kind(i, a + o) it
    multiplies, shifted."""
    offsets = _BAILEY_KINDS[kind][0]
    monomials = {a: list(coeff.terms.items()) for a, coeff in alpha.items()}
    products, cuts, bound, signed = [], [], 0, False
    # T_kind(i, b) = 0 for |b| > i
    low = min((abs(a + o) for a in alpha for o in offsets), default=L + 1)
    for i in range(low, L + 1):
        sh = _half_units(i * (i - kind), step)
        most = gaussian_peak(L, i) * 3 ** i      # bounds [L, i] s
        v = slot_words(most)
        for a, coeff in alpha.items():
            # s holds the entries of the offsets, each shifted so that
            # slot m of [L, i] s stands for q^((top - step m)/2); only
            # kind -1 has two, and T_-1(i, b) is a polynomial in Q, so
            # their e differ by a multiple of step
            s = None
            for o in offsets:
                if abs(a + o) > i:
                    continue
                x, u, e = packed_t(kind, i, a + o, step)
                if coeff.cutoff is not None:
                    # the lowest exponent of T_kind(i, a + o) is e - step n,
                    # n the top slot of its entry
                    cuts.append(coeff.cutoff + sh + e
                                - step * ((x.bit_length() - 1) // (64 * u)))
                x = repack(x, u, v)
                if s is None:
                    s, top = x, e
                elif e <= top:
                    s += x << 64 * v * ((top - e) // step)
                else:
                    s, top = x + (s << 64 * v * ((e - top) // step)), e
            if s is None or not monomials[a]:
                continue
            p = packed_gaussian(L, min(i, L - i), v, 1) * s
            top += sh + step * i * (L - i)
            for ec, c in monomials[a]:
                bound += abs(c) * most
                signed |= c < 0
                products.append((c, p, v, ec + top))
    w = slot_words(bound)
    lhs = packed_sum(((c * repack(p, v, w), -e, False)
                      for c, p, v, e in products), w, step, signed) \
        .reverse_exponents()
    if cuts:
        lhs = lhs.truncate(min(cuts))
    if kind == 1:
        lhs = lhs + lhs.shift(L * step)
    return lhs


def _bailey_rhs(kind: int, alpha: dict[int, LaurentSeries], L: int,
                step: int) -> LaurentSeries:
    """sum_a alpha(a) sum_s Q^{a(a-s)/2} [2L + (kind = -1), L - a], one
    ``gaussian_sum`` over the monomials of each alpha(a); a truncated
    alpha(a) cuts it where its product is known."""
    terms, cuts = [], []
    for a, coeff in alpha.items():
        # [2L + (kind = -1), L - a] is zero outside this range of a
        if not -L - (kind == -1) <= a <= L:
            continue
        # exponent on the alpha side carries the support variable a,
        # not the bound summation index
        exps = [_half_units(a * (a - s), step)
                for s in _BAILEY_KINDS[kind][1]]
        if coeff.cutoff is not None:
            cuts.append(coeff.cutoff + min(exps))
        factor = ((2 * L + (kind == -1), L - a, step),)
        terms += ((k, ec + e, factor) for ec, k in coeff.terms.items()
                  for e in exps)
    rhs = gaussian_sum(terms)
    return rhs.truncate(min(cuts)) if cuts else rhs


def bailey_sides(kind: int, alpha: dict[int, LaurentSeries], L: int,
                 step: int = 2):
    """Both sides of the transformed identity for a finitely supported alpha.

    kind 0: F(i) = sum_a alpha(a) T_0(i, a)
            LHS sum_i Q^{i^2/2} [L, i] F(i); RHS sum_a alpha(a) Q^{a^2/2}
            [2L, L-a].
    kind 1 and -1 analogously, with the (1 + Q^L) factor resp. the
    T_{-1} pair combination.  Q = q^(step/2) is the working base.
    """
    if kind not in (-1, 0, 1):
        raise ValueError("kind must be -1, 0 or 1")
    if L < 0:
        raise ValueError("L must be non-negative")
    return _bailey_lhs(kind, alpha, L, step), _bailey_rhs(kind, alpha, L, step)


# ---------------------------------------------------------------------------
# limit stabilization

def _pair_limit(id: str, e: int, first: int, slope: int, offset: int):
    """The RHS of the pair identity ``id`` in L, its limit, and its law."""
    return ({}, lambda p, L, c: REGISTRY[id].rhs({"L": L}, c),
            lambda p, c: inv_poch_infinite(MonomialArg(1, e), 6, c),
            lambda p: (first, slope, offset))


def _binom_limit_law(p):
    # [N, m] = (q^(N-m+1);q)_m / (q;q)_m, and [N, 0] = 1 = 1/(q;q)_0
    if p["m"] < 0:
        raise ValueError(f"binom_limit needs m >= 0, got {p['m']}")
    return (p["m"], 2, 2 - 2 * p["m"]) if p["m"] else (0, 0, math.inf)


def _binom_limit2_law(p):
    if p["nu"] not in (0, 1) or p["j"] < 0:
        raise ValueError("binom_limit2 needs nu in {0,1} and j >= 0")
    return p["j"], 2, 2 - 2 * p["j"]


# id -> (default parameters, member(params, index, cutoff),
# target(params, cutoff), law(params)).  law checks the parameters and
# gives (first, slope, offset): from index first on, member n first
# differs from the target at slope·n + offset half-units.
_LIMIT_TARGETS = {
    "first_pair": _pair_limit("first_pair", 2, 0, 4, 4),
    "second_pair": _pair_limit("second_pair", 4, 1, 2, 0),
    "third_pair": _pair_limit("third_pair", 2, 0, 4, 2),
    "binom_limit": ({"m": 2},
                    lambda p, N, c: gaussian_binomial(N, p["m"], cutoff=c),
                    lambda p, c: inv_poch_series(p["m"], 2, c),
                    _binom_limit_law),
    "binom_limit2": ({"nu": 0, "j": 0},
                     lambda p, M, c: gaussian_binomial(2 * M + p["nu"],
                                                       M - p["j"], cutoff=c),
                     lambda p, c: inv_poch_infinite(MonomialArg(1, 2), 2, c),
                     _binom_limit2_law),
}


def verify_limit_stabilization(id: str, window: int,
                               params: Optional[dict] = None
                               ) -> VerificationReport:
    """Check a family against its limit below the degree window
    (half-units); ``stabilized_at`` is one past the last member that
    differs from it there.  Members are built, each only below the window,
    up to the first that the family's law puts past the window; from the
    law's first index on, each must first differ where the law says.
    """
    start = time.monotonic()
    if id not in _LIMIT_TARGETS:
        raise KeyError(f"no stabilization target for id {id!r}")
    defaults, member, target, law = _LIMIT_TARGETS[id]
    params = dict(params or {})
    extra = sorted(set(params) - set(defaults))
    if extra:
        raise ValueError(f"{id}: expected parameters {sorted(defaults)}, "
                         f"unexpected {extra}")
    if window < 0:
        raise ValueError(f"{id}: window must be non-negative, got {window}")
    p = {**defaults, **params}
    first, slope, offset = law(p)

    def checked(series: LaurentSeries, what: str) -> LaurentSeries:
        if series.cutoff != window:
            raise ValueError(f"{id}: {what} has cutoff {series.cutoff}, "
                             f"not the window {window}")
        return series

    limit = checked(target(p, window), "target")
    stabilized_at = 0
    for n in count():
        mism = checked(member(p, n, window),
                       f"member {n}").first_mismatch(limit)
        at = None if mism is None else mism[0]
        if at is not None:
            stabilized_at = n + 1
        law_at = slope * n + offset
        law_at = None if law_at > window else law_at
        if n >= first and (at != law_at or law_at is None):
            break
    elapsed = int((time.monotonic() - start) * 1000)
    inst = IdentityInstance(id, {**params, "window": window})
    if at == law_at:
        return VerificationReport(inst, True, None, elapsed,
                                  {"stabilized_at": stabilized_at})
    return VerificationReport(inst, False, mism, elapsed, {
        "error": f"member {n} breaks its law", "first_mismatch": at,
        "law": law_at})

"""The three q-trinomial families.

* round trinomials (L, b; a; q)_2, the Andrews--Baxter polynomials;
* T_n(L, a; q), obtained from a round trinomial by q -> 1/q with a
  compensating monomial prefactor;
* the refined, doubly bounded four-parameter family cal-T(L, M; a, b; q).

The ``step`` fields are the base in half-exponent units (2 = q, 6 = q^3).
Each round-trinomial summand, a q-multinomial coefficient, is carried from
the one before it by two factors 1 - q^k multiplied and two divided out;
every partial product is a polynomial, so an exact division still checks
for a remainder.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .series import LaurentSeries
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
               cutoff: Optional[int] = None) -> LaurentSeries:
    # Summand n is q^(n(n+b)) M_n, n0 <= n <= n1, with the multinomial
    # M_n = (q)_L / ((q)_n (q)_{n+a} (q)_{L-2n-a}); the sum is built in base
    # q^(1/2) (exponents of q_step) and rescaled once at the end.
    n0, n1 = max(0, -a), (L - a) // 2
    shifts = [n * (n + b) for n in range(n0, n1 + 1)]
    top = None if cutoff is None else cutoff // step
    if top is not None:
        # the shifts are convex in n: past the last summand that starts
        # below the cutoff, none does
        while shifts and shifts[-1] > top:
            shifts.pop()
    if not shifts:
        return LaurentSeries.zero(cutoff)
    # M_n0 = [L, |a|], carried below the lowest cutoff any summand needs
    m = gaussian_binomial(L, abs(a), 1,
                          None if top is None else top - min(shifts))
    out = LaurentSeries.zero(top)
    for n, sh in enumerate(shifts, start=n0):
        if n > n0:
            # M_n = M_{n-1} (1-q^r)(1-q^(r-1)) / ((1-q^n)(1-q^(n+a))) with
            # r = L-2n+2-a; every partial product is a multinomial, so an
            # exact division still checks for a remainder
            r = L - 2 * n + 2 - a
            m = m.mul_one_minus(1, r).div_one_minus(1, n) \
                .mul_one_minus(1, r - 1).div_one_minus(1, n + a)
        if top is None or sh <= top:
            # the sum's cutoff truncates each summand at top - sh
            out = out + m.shift(sh)
    # the exponents are multiples of step, so a sum known through q_step^top
    # is known through the cutoff
    return out.scale_exponents(step).with_cutoff(cutoff)


@lru_cache(maxsize=None)
def _round_trinomial(L: int, b: int, a: int, step: int) -> LaurentSeries:
    return _round_sum(L, b, a, step)


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


def t_trinomial(p: TParams) -> LaurentSeries:
    """T_n(L, a; q_step): reversed round trinomial with monomial prefactor.

    T_n(L,a;q) = q^{(L(L-n) - a(a-n))/2} * (L, a-n; a; 1/q)_2.
    """
    base = _exact_round(p.L, p.a - p.n, p.a, p.step).reverse_exponents()
    pre = (p.L * (p.L - p.n) - p.a * (p.a - p.n)) * p.step
    if pre % 2 != 0:
        raise ValueError("prefactor exponent is not a half-integer multiple")
    return base.shift(pre // 2)


def refined_trinomial(p: RefinedTParams) -> LaurentSeries:
    """Warnaar's refined trinomial cal-T(L, M; a, b; q_step), exact.

    Sum over n >= 0 with L - a == n (mod 2) of
    q^{n^2/2} [M, n] [M+b+(L-a-n)/2, M+b] [M-b+(L+a-n)/2, M-b].
    """
    out = LaurentSeries.zero()
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
        pre = n * n * p.step
        if pre % 2 != 0:
            raise ValueError("prefactor exponent is not a half-integer multiple")
        out = out + (t1 * t2 * t3).shift(pre // 2)
    return out

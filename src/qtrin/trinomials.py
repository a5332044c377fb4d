"""The three q-trinomial families.

* round trinomials (L, b; a; q)_2, the Andrews--Baxter polynomials;
* T_n(L, a; q), obtained from a round trinomial by q -> 1/q with a
  compensating monomial prefactor;
* the refined, doubly bounded four-parameter family cal-T(L, M; a, b; q).

The ``step`` fields are the base in half-exponent units (2 = q, 6 = q^3).
Round-trinomial summands are evaluated as products of two Gaussian
binomials, so everything stays inside exact polynomial arithmetic with no
division.
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
    out = LaurentSeries.zero(cutoff)
    for n in range(0, (L - a) // 2 + 1 if L - a >= 0 else 0):
        if n + a < 0 or L - 2 * n - a < 0:
            continue
        # summand n starts at its shift, as both binomials start at 1
        sh = n * (n + b) * step
        below = None if cutoff is None else cutoff - sh
        if below is not None and below < 0:
            continue
        # (q)_L / ((q)_n (q)_{n+a} (q)_{L-2n-a}) = [L, n] * [L-n, n+a]
        term = gaussian_binomial(L, n, step, cutoff=below) * \
            gaussian_binomial(L - n, n + a, step, cutoff=below)
        out = out + term.shift(sh)
    return out


@lru_cache(maxsize=None)
def _round_trinomial(L: int, b: int, a: int, step: int) -> LaurentSeries:
    return _round_sum(L, b, a, step)


def round_trinomial(p: TrinomialParams,
                    cutoff: Optional[int] = None) -> LaurentSeries:
    """The round q-trinomial coefficient (L, b; a; q_step)_2.

    Exact and cached when ``cutoff`` is None; otherwise equal to the exact
    value truncated at ``cutoff``, built only below it and not cached.
    """
    if cutoff is None:
        return _round_trinomial(p.L, p.b, p.a, p.step)
    return _round_sum(p.L, p.b, p.a, p.step, cutoff)


def t_trinomial(p: TParams) -> LaurentSeries:
    """T_n(L, a; q_step): reversed round trinomial with monomial prefactor.

    T_n(L,a;q) = q^{(L(L-n) - a(a-n))/2} * (L, a-n; a; 1/q)_2.
    """
    base = _round_trinomial(p.L, p.a - p.n, p.a, p.step).reverse_exponents()
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

"""q-blocks and round trinomials checked against sympy polynomial arithmetic.

sympy is an independent oracle here: each block is rebuilt from its
defining product in sympy and compared with the engine's value.  The
module is skipped when sympy is not installed.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from qtrin.qblocks import MonomialArg, gaussian_binomial, poch_finite
from qtrin.series import LaurentSeries
from qtrin.trinomials import TrinomialParams, round_trinomial

sympy = pytest.importorskip("sympy")

x = sympy.Symbol("x")          # x = q^(1/2), so exponents are half-units


def as_sympy(s: LaurentSeries):
    return sum((c * x ** e for e, c in s.terms.items()), sympy.Integer(0))


def product(factors):
    return sympy.expand(sympy.Mul(*factors))


@given(st.sampled_from([-1, 0, 1]), st.integers(-6, 6), st.integers(1, 6),
       st.integers(0, 6))
@example(1, 0, 2, 3)        # (1;q)_3: the first factor is 1 - 1
@example(-1, 0, 2, 2)       # (-1;q)_2 = 2 + 2q
@example(1, -2, 2, 2)       # (q^-1;q)_2: the second factor is 1 - 1
@settings(max_examples=80, deadline=None)
def test_poch_finite_matches_sympy(sign, exp, step, n):
    want = product(1 - sign * x ** (exp + k * step) for k in range(n))
    got = poch_finite(MonomialArg(sign, exp), step, n)
    assert sympy.expand(as_sympy(got) - want) == 0


@given(st.integers(-1, 9), st.integers(-1, 9), st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_gaussian_binomial_matches_sympy(top, bottom, step):
    got = as_sympy(gaussian_binomial(top, bottom, step))
    if bottom < 0 or top < 0 or bottom > top:
        assert got == 0
        return
    # [top, bottom] (Q;Q)_bottom = prod_{i=1..bottom} (1 - Q^(top-bottom+i))
    # with Q = x^step
    den = product(1 - x ** (step * i) for i in range(1, bottom + 1))
    num = product(1 - x ** (step * (top - bottom + i))
                  for i in range(1, bottom + 1))
    assert sympy.expand(got * den - num) == 0


def sympy_binomial(top, bottom, step):
    """[top, bottom] in base x^step from its defining quotient; zero out
    of range."""
    if bottom < 0 or top < 0 or bottom > top:
        return sympy.Integer(0)
    num = product(1 - x ** (step * (top - bottom + i))
                  for i in range(1, bottom + 1))
    den = product(1 - x ** (step * i) for i in range(1, bottom + 1))
    return sympy.cancel(num / den)


@given(st.integers(0, 5), st.integers(-6, 6), st.integers(-7, 7),
       st.sampled_from([2, 6]))
@example(4, 0, -5, 6)       # b < a: Laurent terms below zero
@settings(max_examples=40, deadline=None)
def test_round_trinomial_matches_sympy(L, a, b, step):
    # (L, b; a; q)_2 = sum_n q^(n(n+b)) [L, n] [L-n, n+a], with q = x^step
    want = sum((x ** (n * (n + b) * step) * sympy_binomial(L, n, step)
                * sympy_binomial(L - n, n + a, step)
                for n in range(L + 1)), sympy.Integer(0))
    got = as_sympy(round_trinomial(TrinomialParams(L, b, a, step)))
    assert sympy.expand(got - want) == 0

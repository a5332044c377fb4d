"""Tests for Pochhammer symbols and Gaussian binomials."""

from math import comb

import pytest
from hypothesis import given, strategies as st

from qtrin import qblocks
from qtrin.identities import clear_caches
from qtrin.series import LaurentSeries, slot_words
from qtrin.qblocks import (MonomialArg, Q, ZERO_ARG, gaussian_binomial,
                           gaussian_peak, inv_poch_infinite, inv_poch_series,
                           packed_gaussian, poch_finite, poch_infinite, q_poch)

from dict_series import gaussian_loop, pack_series


def q(k):
    return 2 * k


@pytest.mark.parametrize("sign", [2, -2])
def test_monomial_arg_rejects_sign(sign):
    with pytest.raises(ValueError, match="sign must"):
        MonomialArg(sign, 2)


@pytest.mark.parametrize("step", [0, -2])
@pytest.mark.parametrize("build", [
    lambda step: poch_infinite(Q, step, 10),
    lambda step: inv_poch_infinite(Q, step, 10),
    lambda step: inv_poch_infinite(MonomialArg(-1, 2), step, 10,
                                   LaurentSeries({0: 1, 3: 2})),
    lambda step: inv_poch_series(5, step, 10),
    lambda step: inv_poch_series(-1, step, 10),
    lambda step: poch_finite(Q, step, 3),
    lambda step: gaussian_binomial(4, 2, step),
], ids=["poch_infinite", "inv_poch_infinite", "inv_poch_infinite_out",
        "inv_poch_series", "inv_poch_series_negative_n", "poch_finite",
        "gaussian_binomial"])
def test_step_must_be_positive(build, step):
    # with no check, a step of -2 makes the infinite symbols 1 + O(q^5),
    # with no factor, and a step of 0 raises ZeroDivisionError or
    # range()'s ValueError
    with pytest.raises(ValueError,
                       match="step must be a positive half-exponent"):
        build(step)


class TestPochFinite:
    def test_empty_product(self):
        assert poch_finite(Q, 2, 0) == LaurentSeries.one()

    def test_qq2(self):
        # (q;q)_2 = (1-q)(1-q^2)
        want = LaurentSeries({0: 1, q(1): -1, q(2): -1, q(3): 1})
        assert poch_finite(Q, 2, 2) == want

    def test_negative_monomial_base_q3(self):
        # (-q^3;q^3)_1 = 1 + q^3
        assert poch_finite(MonomialArg(-1, 6), 6, 1) == \
            LaurentSeries({0: 1, q(3): 1})

    def test_zero_arg(self):
        assert poch_finite(ZERO_ARG, 2, 7) == LaurentSeries.one()

    def test_argument_one_vanishes(self):
        # (1;q)_n has the factor 1 - 1 = 0 for every n >= 1
        for n in range(1, 5):
            assert poch_finite(MonomialArg(1, 0), 2, n).is_zero()

    def test_argument_minus_one(self):
        # (-1;q)_2 = (1 + 1)(1 + q)
        assert poch_finite(MonomialArg(-1, 0), 2, 2) == \
            LaurentSeries({0: 2, q(1): 2})

    def test_negative_argument_exponent(self):
        # (q^-1;q)_2 = (1 - q^-1)(1 - 1) = 0; (q^-1;q)_1 = 1 - q^-1
        assert poch_finite(MonomialArg(1, -2), 2, 2).is_zero()
        assert poch_finite(MonomialArg(1, -2), 2, 1) == \
            LaurentSeries({-2: -1, 0: 1})


class TestPochInfinite:
    def test_pentagonal_pattern(self):
        # (q;q)_inf through q^5: 1 - q - q^2 + q^5
        got = poch_infinite(Q, 2, q(5))
        assert got.terms == {0: 1, q(1): -1, q(2): -1, q(5): 1}

    def test_zero_arg(self):
        got = poch_infinite(ZERO_ARG, 2, q(4))
        assert got.terms == {0: 1}

    def test_distinct_partitions(self):
        # (-q;q)_inf counts partitions into distinct parts
        got = poch_infinite(MonomialArg(-1, 2), 2, q(3))
        assert got.terms == {0: 1, q(1): 1, q(2): 1, q(3): 2}

    def test_divergent_rejected(self):
        with pytest.raises(ValueError):
            poch_infinite(MonomialArg(1, 0), 2, 10)

    def test_inverse_consistency(self):
        c = q(12)
        prod = poch_infinite(Q, 2, c) * inv_poch_infinite(Q, 2, c)
        assert prod.first_mismatch(LaurentSeries.one().truncate(c)) is None


# every (argument, step) of an infinite product in the registry
REGISTRY_FACTORS = [
    # kr1 and outlook2: (-q^2, -q^4; q^6)_inf (-q^3; q^3)_inf
    (MonomialArg(-1, 4), 12), (MonomialArg(-1, 8), 12), (MonomialArg(-1, 6), 6),
    # cap2 and outlook2: (-q, -q^5; q^6)_inf
    (MonomialArg(-1, 2), 12), (MonomialArg(-1, 10), 12),
    # jtp: (q^2, -z q, -q/z; q^2)_inf for z = +-q^(e/2), e in {-1, 0, 1}
    (MonomialArg(1, 4), 4),
    *[(MonomialArg(s, 2 + e), 4) for s in (-1, 1) for e in (-1, 0, 1)],
    # q_binomial_theorem and q_exponential: z, a z and -z in base q
    *[(MonomialArg(s, e), 2) for s in (-1, 1) for e in (1, 2, 3, 4, 6)],
    (ZERO_ARG, 2),
    # limit targets
    (MonomialArg(1, 2), 6), (MonomialArg(1, 4), 6),
]

CHAIN_OUTS = [
    None,
    LaurentSeries({0: 1, q(3): -2, q(50): 5}),
    LaurentSeries({0: 3, q(1): 1, q(9): -1}, q(40)),
    # negative exponents: the factors up to cutoff - min(out) reach the
    # terms kept, so a loop that stops at the cutoff leaves them wrong
    LaurentSeries({-q(30): 1, -5: -2, q(2): 1}),
    LaurentSeries({-q(3): 2, q(1): -1}, q(20)),
]


class TestChainedProducts:
    @pytest.mark.parametrize("arg,step", REGISTRY_FACTORS)
    @pytest.mark.parametrize("cutoff", [0, 1, 7, 80, 401])
    def test_out_times_product(self, arg, step, cutoff):
        for out in CHAIN_OUTS:
            t = LaurentSeries.one().truncate(cutoff) if out is None \
                else out.truncate(cutoff)
            # the reference product reaches cutoff - min(out), which keeps
            # the cutoff of out: the chained product is known that far
            reach = cutoff - min(0, t.min_exp())
            assert poch_infinite(arg, step, cutoff, out) == \
                t * poch_infinite(arg, step, reach)
            assert inv_poch_infinite(arg, step, cutoff, out) == \
                t * inv_poch_infinite(arg, step, reach)

    def test_zero_out(self):
        zero = LaurentSeries.zero(q(5))
        assert poch_infinite(Q, 2, q(9), zero) == zero
        assert inv_poch_infinite(Q, 2, q(3), zero) == LaurentSeries.zero(q(3))

    def test_divergent_rejected_with_out(self):
        with pytest.raises(ValueError):
            inv_poch_infinite(MonomialArg(1, 0), 2, 10, LaurentSeries.one())


class TestInvPochSeries:
    def test_negative_length_is_zero(self):
        assert inv_poch_series(-1, 2, q(5)).is_zero()
        assert inv_poch_series(-3, 6, q(5)).is_zero()

    def test_geometric(self):
        assert inv_poch_series(1, 2, q(3)).terms == \
            {0: 1, q(1): 1, q(2): 1, q(3): 1}

    def test_parts_at_most_two(self):
        assert inv_poch_series(2, 2, q(3)).terms == \
            {0: 1, q(1): 1, q(2): 2, q(3): 2}

    def test_factors_past_the_cutoff_are_not_applied(self, monkeypatch):
        # no factor 1 - q^k with k > 10 reaches a term kept through q^10:
        # inv_poch_series hands the packed carry only the factors that do
        want = inv_poch_series(10, 2, 20)
        calls = []
        carry = qblocks.carry_one_minus

        def counted(s, sign, exps, divide=False):
            exps = list(exps)
            calls.extend(exps)
            return carry(s, sign, exps, divide)
        monkeypatch.setattr(qblocks, "carry_one_minus", counted)
        assert inv_poch_series(10_000, 2, 20) == want
        assert 0 < len(calls) <= 11
        # [N, K] = 1/(q;q)_10 + O(q^11) once K and N - K pass 10, and no
        # numerator factor 1 - q^(N-K+i) reaches a kept term
        calls.clear()
        assert gaussian_binomial(10_000, 5_000, 2, 20) == want
        assert 0 < len(calls) <= 11

    def test_truncated_stops_at_cutoff(self):
        assert inv_poch_series(50, 2, q(3)) == inv_poch_series(3, 2, q(3))

    @given(st.integers(0, 6), st.sampled_from([2, 4, 6]))
    def test_reciprocal_of_finite(self, n, step):
        c = q(10)
        prod = inv_poch_series(n, step, c) * poch_finite(
            MonomialArg(1, step), step, n)
        assert prod.first_mismatch(LaurentSeries.one().truncate(c)) is None


class TestGaussianBinomial:
    def test_four_choose_two(self):
        assert gaussian_binomial(4, 2).terms == \
            {0: 1, q(1): 1, q(2): 2, q(3): 1, q(4): 1}

    def test_choose_zero(self):
        for n in range(6):
            assert gaussian_binomial(n, 0) == LaurentSeries.one()

    def test_out_of_range_is_zero(self):
        assert gaussian_binomial(3, 5).is_zero()
        assert gaussian_binomial(3, -1).is_zero()
        assert gaussian_binomial(-2, 0).is_zero()

    def test_base_q3(self):
        assert gaussian_binomial(2, 1, 6).terms == {0: 1, q(3): 1}

    @given(st.integers(0, 10), st.integers(0, 10))
    def test_symmetry(self, n, k):
        if k > n:
            return
        assert gaussian_binomial(n, k) == gaussian_binomial(n, n - k)

    @given(st.integers(0, 10), st.integers(0, 10))
    def test_degree_eval_positivity(self, n, k):
        if k > n:
            return
        b = gaussian_binomial(n, k)
        assert b.eval_at_one() == comb(n, k)
        assert all(c > 0 for c in b.terms.values())
        assert b.max_exp() == q(k * (n - k))
        assert b.min_exp() == 0

    @given(st.integers(1, 10), st.integers(0, 10))
    def test_pascal_recurrence(self, n, k):
        if k > n:
            return
        # [n,k] = [n-1,k-1] + q^k [n-1,k]
        want = gaussian_binomial(n - 1, k - 1) + \
            gaussian_binomial(n - 1, k).shift(q(k))
        assert gaussian_binomial(n, k) == want


def _loop(top, k, step):
    """[top, k] in base q_step, built by the series loop."""
    return gaussian_loop(LaurentSeries.one(), top, k, step)


@pytest.fixture
def empty_caches():
    clear_caches()
    yield
    clear_caches()


@pytest.mark.usefixtures("empty_caches")
class TestPackedGaussian:
    """The packed entries of ``_gaussian_base``, each one checked walk,
    against the series loop packed by ``pack_series``."""

    def _check(self, top, k, ws):
        base_q, base_q3 = _loop(top, k, 2), _loop(top, k, 6)
        x, w, peak = qblocks._gaussian_base(top, k)
        assert x == pack_series(base_q, w, 2)
        assert peak == base_q.coeff_at(2 * (k * (top - k) // 2)) \
            == base_q.max_abs_coeff()
        assert gaussian_peak(top, k) == gaussian_peak(top, top - k) == peak
        for bottom in {k, top - k}:
            assert gaussian_binomial(top, bottom) == base_q
            assert gaussian_binomial(top, bottom, 6) == base_q3
        for v in ws:
            # a base-q^3 binomial spread 3-fold on the q grid
            assert packed_gaussian(top, k, v, 1) == pack_series(base_q, v, 2)
            assert packed_gaussian(top, k, v, 3) == pack_series(base_q3, v, 2)
        return w, peak

    def test_every_entry_through_60(self):
        for top in range(61):
            for k in range(top // 2 + 1):
                self._check(top, k, (1, 2, 3))

    @pytest.mark.parametrize("top, words", [
        (74, 1), (75, 2), (140, 2), (141, 3), (200, 3)])
    def test_width_edges(self, top, words):
        # the middle coefficient passes 2^63 at [75, 37] and 2^127 at
        # [141, 70]
        w, peak = self._check(top, top // 2, (words, words + 1))
        assert slot_words(peak) == words
        assert w >= words

    def test_walk_wider_than_the_slots(self):
        # the walk of [74, 33] ends in two-word slots, and its entry is
        # narrowed to the one word its peak needs
        w, peak = self._check(74, 33, (1, 2))
        assert (w, slot_words(peak)) == (2, 1)

    @pytest.mark.parametrize("top, k, i", [(12, 4, 4), (12, 4, 1),
                                           (80, 40, 40)])
    def test_changed_numerator_raises(self, monkeypatch, top, k, i):
        # step i multiplies by 1 - X^(top - k + i + 1) instead: 1 - X^i,
        # or a later divisor, then leaves a remainder
        walk = qblocks.walk_one_minus

        def changed(x, w, b, steps):
            return walk(x, w, b, ((m + (d == i), d) for m, d in steps))
        monkeypatch.setattr(qblocks, "walk_one_minus", changed)
        for build in (lambda: gaussian_binomial(top, k),
                      lambda: gaussian_peak(top, k),
                      lambda: packed_gaussian(top, k, 2, 1)):
            with pytest.raises(ValueError, match="remainder"):
                build()
        assert qblocks._gaussian_base.cache_info().currsize == 0
        assert packed_gaussian.cache_info().currsize == 0
        monkeypatch.undo()
        assert gaussian_binomial(top, k) == _loop(top, k, 2)


class TestPochReversal:
    @given(st.integers(0, 8))
    def test_reversal_closed_form(self, n):
        # (1/q; 1/q)_n = (-1)^n q^{-n(n+1)/2} (q;q)_n -- note the minus
        # sign in the exponent (direct expansion at n=1: 1 - q^{-1})
        lhs = q_poch(n, 2).reverse_exponents()
        rhs = q_poch(n, 2).scale_coeffs((-1) ** n).shift(-n * (n + 1))
        assert lhs == rhs

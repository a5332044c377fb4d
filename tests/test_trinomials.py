"""Tests for the three q-trinomial families."""

import pytest
from hypothesis import example, given, settings, strategies as st

from qtrin import trinomials
from qtrin.identities import cache_sizes, clear_caches
from qtrin.qblocks import gaussian_binomial, q_poch
from qtrin.series import LaurentSeries, exact_divide
from qtrin.trinomials import (RefinedTParams, TParams, TrinomialParams,
                              refined_trinomial, round_trinomial,
                              round_trinomial_sum, t_trinomial,
                              t_trinomial_sum)


def q(k):
    return 2 * k


PASCAL_ROWS = {
    0: (1,),
    1: (1, 1, 1),
    2: (1, 2, 3, 2, 1),
    3: (1, 3, 6, 7, 6, 3, 1),
    4: (1, 4, 10, 16, 19, 16, 10, 4, 1),
}


@pytest.mark.parametrize("cls, args, step, match", [
    (TrinomialParams, (-1, 0, 0), 2, "L must"),
    (TrinomialParams, (2, 0, 0), 0, "step must"),
    (TParams, (0, -1, 0), 2, "L must"),
    (TParams, (0, 2, 0), 0, "step must"),
    (RefinedTParams, (-1, 0, 0, 0), 2, "L and M must"),
    (RefinedTParams, (0, -1, 0, 0), 2, "L and M must"),
    (RefinedTParams, (2, 2, 0, 0), 0, "step must"),
], ids=["round-L", "round-step", "t-L", "t-step", "refined-L",
        "refined-M", "refined-step"])
def test_params_reject_negative_size_and_step(cls, args, step, match):
    with pytest.raises(ValueError, match=match):
        cls(*args, step=step)
    # the smallest accepted values sit just inside the checks
    cls(*(max(x, 0) for x in args), step=max(step, 1))


class TestRoundTrinomial:
    def test_small_exact_values(self):
        got = round_trinomial(TrinomialParams(2, 0, 0))
        assert got == LaurentSeries({0: 1, q(1): 1, q(2): 1})

    def test_pascal_center(self):
        for b in (-2, 0, 3):
            assert round_trinomial(
                TrinomialParams(4, b, 0)).eval_at_one() == 19

    def test_pascal_off_center(self):
        assert round_trinomial(TrinomialParams(4, 0, -1)).eval_at_one() == 16

    def test_out_of_support(self):
        assert round_trinomial(TrinomialParams(1, 0, 2)).is_zero()
        assert round_trinomial(TrinomialParams(3, 1, -5)).is_zero()

    def test_pascal_rows(self):
        for L, row in PASCAL_ROWS.items():
            got = tuple(
                round_trinomial(TrinomialParams(L, 0, a)).eval_at_one()
                for a in range(-L, L + 1))
            assert got == row

    @given(st.integers(0, 7), st.integers(-3, 3))
    def test_row_sum_is_power_of_three(self, L, b):
        total = sum(
            round_trinomial(TrinomialParams(L, b, a)).eval_at_one()
            for a in range(-L, L + 1))
        assert total == 3 ** L

    @given(st.integers(0, 6), st.integers(-3, 3), st.integers(-6, 6))
    def test_q1_symmetry_in_a(self, L, b, a):
        assert round_trinomial(TrinomialParams(L, b, a)).eval_at_one() == \
            round_trinomial(TrinomialParams(L, b, -a)).eval_at_one()

    @given(st.integers(0, 8), st.integers(-6, -1), st.integers(-8, 8),
           st.sampled_from([1, 2, 3, 6]))
    @example(6, -2, -4, 2)          # b < a: terms below q^0
    def test_exact_symmetry(self, L, a, d, step):
        # an exact build at a < 0 is read from the (L, b-2a; -a) entry;
        # compare it with the sum over its own summands
        b = a + d
        direct = two_binomial_round_sum(L, b, a, step)
        assert round_trinomial(TrinomialParams(L, b, a, step)) == direct
        # (L, b; a) = q^{a(a-b)} (L, b-2a; -a) in the trinomial's base
        assert direct == two_binomial_round_sum(L, b - 2 * a, -a, step).shift(
            a * (a - b) * step)

    def test_sign_pair_shares_one_cache_entry(self):
        clear_caches()
        L, b, a = 7, 1, 2
        round_trinomial(TrinomialParams(L, b, a))
        round_trinomial(TrinomialParams(L, b - 2 * a, -a))
        assert cache_sizes()["_round_trinomial"] == 1
        # T_n(L, a) and T_n(L, -a) reverse the same entry
        clear_caches()
        t_trinomial(TParams(1, L, a))
        t_trinomial(TParams(1, L, -a))
        assert cache_sizes()["_round_trinomial"] == 1

    def test_gaussian_pair_shares_one_cache_entry(self):
        # [7, 2] and [7, 5] in bases q and q^3 read one cached entry
        clear_caches()
        for step in (2, 6):
            for k in (2, 5):
                assert gaussian_binomial(7, k, step) == exact_divide(
                    q_poch(7, step), q_poch(k, step) * q_poch(7 - k, step))
        assert cache_sizes()["_gaussian_base"] == 1

    def test_cold_request_keeps_one_row(self):
        clear_caches()
        round_trinomial(TrinomialParams(30, 1, 0))
        # rows 1..29 were built on the way and dropped; row 30 holds the
        # window d = 0, 1
        assert cache_sizes()["round_rows"] == 1
        assert cache_sizes()["round_row_entries"] == 2 * 31

    @given(st.integers(0, 6), st.integers(-3, 3), st.integers(-6, 6))
    def test_positive_coefficients(self, L, b, a):
        p = round_trinomial(TrinomialParams(L, b, a))
        assert all(c > 0 for c in p.terms.values())

    @given(st.integers(0, 6), st.integers(0, 3), st.integers(-6, 6))
    def test_nonnegative_exponents_for_nonnegative_b(self, L, b, a):
        # the summand exponent n(n+b) dips below zero only when b < 0
        p = round_trinomial(TrinomialParams(L, b, a))
        if not p.is_zero():
            assert p.min_exp() >= 0


def two_binomial_round_sum(L, b, a, step, cutoff=None):
    """(L, b; a; q_step)_2 with each summand the product of two Gaussian
    binomials, [L, n] [L-n, n+a], each truncated below the summand's
    cutoff: the reference for the rows, exact and cut."""
    out = LaurentSeries.zero(cutoff)
    for n in range(0, (L - a) // 2 + 1 if L - a >= 0 else 0):
        if n + a < 0 or L - 2 * n - a < 0:
            continue
        sh = n * (n + b) * step
        below = None if cutoff is None else cutoff - sh
        if below is not None and below < 0:
            continue
        term = gaussian_binomial(L, n, step, cutoff=below) * \
            gaussian_binomial(L - n, n + a, step, cutoff=below)
        out = out + term.shift(sh)
    return out


class TestCarriedSummands:
    """Single values, exact and below a cutoff, against the reference."""

    @given(st.integers(0, 30), st.integers(-32, 32), st.integers(-16, 3),
           st.sampled_from([1, 2, 3, 6]),
           st.one_of(st.none(), st.integers(-80, 120)))
    @example(9, 1, -3, 2, None)     # b < a: the lowest shift is at n = 1
    @example(9, 1, -3, 2, -2)       # only summand 1 reaches below -2
    # column -16 steps down by right shifts: a cut row of only the slots
    # its term reaches, without the _offset(-16) margin, misses q^-15
    @example(2, 0, -16, 2, -30)
    @settings(max_examples=300, deadline=None)
    def test_matches_two_binomial_products(self, L, a, d, step, cutoff):
        # from empty caches, so a cutoff steps the cut row from row 0
        clear_caches()
        b = a + d
        got = round_trinomial_sum(L, step, [(b, a, 0)], cutoff)
        assert got == two_binomial_round_sum(L, b, a, step, cutoff)


class TestRows:
    """Exact values built row by row against the sum of products of
    Gaussian binomials."""

    def test_matches_two_binomial_products(self):
        clear_caches()
        for L in range(15):
            for a in range(-L - 1, L + 2):
                for d in range(-6, 7):
                    # in base q^(1/2), rescaled to each step
                    ref = two_binomial_round_sum(L, a + d, a, 1)
                    for step in (1, 2, 3, 6):
                        got = round_trinomial(
                            TrinomialParams(L, a + d, a, step))
                        assert got == ref.scale_exponents(step), \
                            (L, a + d, a, step)

    @given(st.lists(st.tuples(st.integers(0, 14), st.integers(-15, 15),
                              st.integers(-6, 6),
                              st.sampled_from([1, 2, 3, 6])),
                    min_size=1, max_size=8))
    # descending L, then a wider window at a row already kept
    @example([(12, 1, 1, 2), (5, 0, 0, 6), (12, -2, -4, 2), (3, 2, 1, 1)])
    @settings(max_examples=40, deadline=None)
    def test_any_request_order(self, requests):
        # values must not depend on which rows earlier requests left kept
        clear_caches()
        for L, a, d, step in requests:
            got = round_trinomial(TrinomialParams(L, a + d, a, step))
            assert got == two_binomial_round_sum(L, a + d, a, step)


    def test_rows_across_word_boundary(self):
        # every coefficient up to row L is below 3^L, and 3^40 > 2^63, so
        # from L = 40 a packed slot takes two words; d = -5 and -2 widen
        # the window to [-5, 1], whose columns are held times q^(d^2/4)
        clear_caches()
        for L in range(38, 46):     # each row from the one kept below it
            for a, d in ((0, -5), (3, -2), (L // 2, 0), (L - 1, 1)):
                got = round_trinomial(TrinomialParams(L, a + d, a))
                assert got == two_binomial_round_sum(L, a + d, a, 2), \
                    (L, a, d)
        # from row 0; (50, 0; 2)_2 has coefficients of 68 bits
        clear_caches()
        got = round_trinomial(TrinomialParams(50, 0, 2, 6))
        assert got == two_binomial_round_sum(50, 0, 2, 6)

    def test_rows_past_a_width_edge_are_only_stepped(self, monkeypatch):
        # rows 38 and 39 have one-word slots and rows 40 and 41 two-word
        # ones: row 40 is stepped from row 0, not repacked from row 39,
        # and row 41 from row 40, so no build unpacks an entry
        clear_caches()
        calls = []
        unpack = trinomials.unpack_series
        monkeypatch.setattr(trinomials, "unpack_series",
                            lambda *args: calls.append(args) or unpack(*args))
        for L in (38, 39, 40, 41):
            trinomials._ROWS.row(L, 0, 1)
        assert len(calls) == 0
        for L in (40, 41):
            terms = first_pair_terms(L)
            want = LaurentSeries.sum(two_binomial_round_sum(L, b, a, 6)
                                     .shift(sh) for b, a, sh in terms)
            assert round_trinomial_sum(L, 6, terms) == want, L


@st.composite
def round_sums(draw):
    """(L, step, terms, cutoff) for round_trinomial_sum: terms (b, a,
    shift), each up to four times, with a in [-L-2, L+2] and b - a in
    [-4, 4]."""
    L = draw(st.integers(0, 14))
    step = draw(st.sampled_from([1, 2, 3, 6]))
    terms = []
    for a, d, sh, k in draw(st.lists(st.tuples(
            st.integers(-L - 2, L + 2), st.integers(-4, 4),
            st.integers(-60, 60), st.integers(1, 4)), max_size=6)):
        terms += [(a + d, a, sh)] * k
    cutoff = draw(st.one_of(st.none(), st.integers(-40, 200)))
    return L, step, terms, cutoff


def first_pair_terms(L):
    """The (b, a, shift) of the first pair's RHS: each entry with a > 0
    enters four times once a < 0 is folded, and a = 0 twice."""
    return [(j + 1, j, e) for j in range(-L, L + 1)
            for e in (2 * (L + j + 1), 2 * (L - j))]


class TestRoundTrinomialSum:
    @given(st.lists(round_sums(), min_size=1, max_size=4))
    # truncated: each (b, a) enters at two shifts, built once at the lower
    @example([(5, 6, first_pair_terms(5), 80)])
    @settings(max_examples=60, deadline=None)
    def test_matches_sum_of_entries(self, calls):
        # values must not depend on which rows earlier calls left kept
        clear_caches()
        for L, step, terms, cutoff in calls:
            want = LaurentSeries.sum(
                two_binomial_round_sum(
                    L, b, a, step, None if cutoff is None else cutoff - sh
                ).shift(sh) for b, a, sh in terms)
            if cutoff is not None:
                want = want.truncate(cutoff)
            assert round_trinomial_sum(L, step, terms, cutoff) == want

    def test_first_pair_terms_across_word_boundary(self):
        # 3^40 > 2^63, so row 40 takes two-word slots; these class sums are
        # bounded by 2 * 3^L
        for L in (39, 40, 41):
            clear_caches()
            terms = first_pair_terms(L)
            entries = {k: two_binomial_round_sum(L, *k, 6)
                       for k in {(b, a) for b, a, sh in terms}}
            want = LaurentSeries.sum(entries[b, a].shift(sh)
                                     for b, a, sh in terms)
            assert round_trinomial_sum(L, 6, terms) == want, L

    @pytest.mark.parametrize("b, a, fits", [(0, 0, 4), (1, 1, 9)])
    def test_slot_bound_raises(self, b, a, fits):
        # 3^39 < 2^63: one-word slots hold 2 * 4 * 3^39 / 2 at a = 0 and
        # 9 * 3^39 / 2 at a > 0, but not one more copy; a cut entry is
        # bounded as the exact one is, so a cutoff raises as well
        for cutoff in (None, 300):
            one = two_binomial_round_sum(39, b, a, 6, cutoff)
            terms = [(b, a, 0)] * fits
            assert round_trinomial_sum(39, 6, terms, cutoff) == \
                one.scale_coeffs(fits)
            with pytest.raises(OverflowError):
                round_trinomial_sum(39, 6, terms + [(b, a, 0)], cutoff)


class TestTTrinomialSum:
    @pytest.mark.parametrize("n", [-1, 0, 1])
    @pytest.mark.parametrize("step", [2, 6])
    @pytest.mark.parametrize("L", [0, 1, 5])
    def test_matches_definition(self, n, step, L):
        # T_n(L, a; Q) = Q^((L(L-n) - a(a-n))/2) (L, a-n; a; 1/Q)_2, with
        # the prefactor in half-units of q for Q = q_step
        def t(a):
            pre = (L * (L - n) - a * (a - n)) * step // 2
            return two_binomial_round_sum(L, a - n, a, step) \
                .reverse_exponents().shift(pre)
        support = range(-L - 2, L + 3)
        terms = [(a, e) for a in support for e in (0, 3 * a * a + a)]
        terms += [(L, 5)] * 3 + [(-L - 1, 2)]     # repeats; a zero term
        want = LaurentSeries.sum(t(a).shift(e) for a, e in terms)
        assert t_trinomial_sum(n, L, step, terms) == want
        assert t_trinomial_sum(n, L, step, []) == LaurentSeries.zero()


class TestTTrinomial:
    def test_t1_diagonal_is_one(self):
        for L in range(6):
            assert t_trinomial(TParams(1, L, L)) == LaurentSeries.one()

    def test_t0_half_exponent(self):
        # T_0(1, 0) = q^{1/2}
        assert t_trinomial(TParams(0, 1, 0)) == LaurentSeries({1: 1})

    def test_zero_outside_support(self):
        for n in (-1, 0, 1):
            assert t_trinomial(TParams(n, 2, 4)).is_zero()
            assert t_trinomial(TParams(n, 3, -4)).is_zero()

    @given(st.integers(-1, 1), st.integers(0, 6), st.integers(-6, 6))
    def test_reversal_preserves_coefficients(self, n, L, a):
        t = t_trinomial(TParams(n, L, a))
        r = round_trinomial(TrinomialParams(L, a - n, a))
        assert sorted(t.terms.values()) == sorted(r.terms.values())

    @given(st.integers(-1, 1), st.integers(0, 6), st.integers(-6, 6))
    def test_exponents_nonnegative(self, n, L, a):
        t = t_trinomial(TParams(n, L, a))
        if not t.is_zero():
            assert t.min_exp() >= 0


class TestHalfUnits:
    def test_quarter_powers_raise_one_message(self):
        # in base q^(1/2) the prefactor Q^(1/2) of T_0(1, 0) and of the
        # n = 1 term of cal-T(1, 1; 0, 0) is q^(1/4)
        for build, p in ((t_trinomial, TParams(0, 1, 0, step=1)),
                         (refined_trinomial,
                          RefinedTParams(1, 1, 0, 0, step=1))):
            with pytest.raises(ValueError,
                               match="not a whole number of half-units"):
                build(p)


class TestRefinedTrinomial:
    def test_trivial_cases(self):
        for M in range(4):
            assert refined_trinomial(
                RefinedTParams(0, M, 0, 0)) == LaurentSeries.one()
        assert refined_trinomial(
            RefinedTParams(1, 1, 1, 1)) == LaurentSeries.one()
        assert refined_trinomial(RefinedTParams(0, 1, 1, 0)).is_zero()

    @given(st.integers(0, 5), st.integers(0, 5), st.integers(-4, 4),
           st.integers(-2, 2))
    def test_nonnegative_coefficients(self, L, M, a, b):
        p = refined_trinomial(RefinedTParams(L, M, a, b))
        assert all(c > 0 for c in p.terms.values())

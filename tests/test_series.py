"""Unit and property tests for the exact series kernel."""

import pytest
from hypothesis import example, given, strategies as st

from qtrin import identities, series
from qtrin.series import (LaurentSeries, TrivariateSeries, carry_one_minus,
                          exact_divide, packed_div_one_minus,
                          packed_mul_one_minus, packed_sum, repack,
                          slot_words, unpack_series, walk_one_minus)

from dict_series import DictSeries, one_minus_run, pack_series


def S(terms, cutoff=None):
    return LaurentSeries(terms, cutoff)


# q^k in half-exponent units
def q(k):
    return 2 * k


small_polys = st.dictionaries(
    st.integers(min_value=-8, max_value=12),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
).map(LaurentSeries)


class TestBasics:
    def test_add(self):
        assert S({0: 1, q(1): 1}) + S({q(1): 1}) == S({0: 1, q(1): 2})

    def test_add_zero_identity(self):
        p = S({q(2): 5, -1: 3})
        assert p + LaurentSeries.zero() == p

    def test_add_cutoff_min_rule(self):
        # (1 - q, cutoff q^1) + q^2 -> the q^2 term is beyond the window
        a = S({0: 1, q(1): -1}, cutoff=q(1))
        b = S({q(2): 1})
        out = a + b
        assert out.cutoff == q(1)
        assert out.terms == {0: 1, q(1): -1}

    def test_mul(self):
        assert S({0: 1, q(1): -1}) * S({0: 1, q(1): 1}) == S({0: 1, q(2): -1})

    def test_mul_one_identity(self):
        p = S({0: 1, q(1): 1, q(2): 1})
        assert p * LaurentSeries.one() == p

    def test_mul_hand_convolution(self):
        a = S({0: 1, q(1): 1, q(2): 1})
        b = S({0: 1, q(2): 1, q(4): 1})
        want = S({0: 1, q(1): 1, q(2): 2, q(3): 1, q(4): 2, q(5): 1, q(6): 1})
        assert a * b == want

    def test_zero_coefficients_dropped(self):
        assert S({q(1): 0, 0: 2}).terms == {0: 2}

    def test_coeff_at(self):
        p = S({0: 1, q(2): 2})
        assert p.coeff_at(q(2)) == 2
        assert p.coeff_at(q(1)) == 0

    def test_coeff_at_above_cutoff_errors(self):
        p = S({0: 1}, cutoff=q(3))
        with pytest.raises(ValueError):
            p.coeff_at(q(4))

    def test_eval_at_one(self):
        assert S({0: 1, q(1): 1, q(2): 1}).eval_at_one() == 3
        assert LaurentSeries.zero().eval_at_one() == 0

    def test_eval_at_one_rejects_truncated(self):
        with pytest.raises(ValueError):
            S({0: 1}, cutoff=4).eval_at_one()

    def test_truncate(self):
        p = S({0: 1, q(1): 1, q(5): 1})
        t = p.truncate(q(2))
        assert t.terms == {0: 1, q(1): 1}
        assert t.cutoff == q(2)

    def test_truncate_never_loosens(self):
        p = S({0: 1}, cutoff=q(2))
        assert p.truncate(q(9)).cutoff == q(2)

    def test_reverse(self):
        assert S({3: 1}).reverse_exponents() == S({-3: 1})
        with pytest.raises(ValueError):
            S({0: 1}, cutoff=4).reverse_exponents()

    def test_scale_exponents(self):
        assert S({0: 1, q(1): 1}).scale_exponents(3) == S({0: 1, q(3): 1})
        p = S({0: 1, q(1): 1, q(2): 1})
        assert p.scale_exponents(1) == p
        assert p.scale_exponents(2) == S({0: 1, q(2): 1, q(4): 1})

    def test_shift(self):
        assert S({0: 1, 2: 1}).shift(1) == S({1: 1, 3: 1})

    def test_first_mismatch(self):
        a = S({0: 1, q(2): 3})
        b = S({0: 1, q(2): 4})
        assert a.first_mismatch(b) == (q(2), 3, 4)
        assert a.first_mismatch(a) is None

    def test_first_mismatch_respects_cutoff(self):
        a = S({0: 1}, cutoff=q(1))
        b = S({0: 1, q(2): 7})
        assert a.first_mismatch(b) is None


class TestProperties:
    @given(small_polys, small_polys, small_polys)
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(small_polys, small_polys, st.integers(-4, 20))
    def test_truncation_coherence(self, a, b, c):
        direct = (a * b).truncate(c)
        staged = (a.truncate(c) * b.truncate(c)).truncate(c)
        assert direct.first_mismatch(staged) is None

    @given(small_polys)
    def test_reverse_involution(self, p):
        assert p.reverse_exponents().reverse_exponents() == p
        assert p.reverse_exponents().eval_at_one() == p.eval_at_one()

    @given(small_polys, small_polys, st.integers(1, 4))
    def test_scale_is_ring_homomorphism(self, a, b, k):
        assert (a * b).scale_exponents(k) == \
            a.scale_exponents(k) * b.scale_exponents(k)
        assert (a + b).scale_exponents(k) == \
            a.scale_exponents(k) + b.scale_exponents(k)

    @given(small_polys, small_polys)
    def test_exact_divide_roundtrip(self, a, b):
        if b.is_zero():
            return
        assert exact_divide(a * b, b) == a


class TestExactDivide:
    def test_cyclotomic(self):
        num = S({0: 1, q(3): -1})
        den = S({0: 1, q(1): -1})
        assert exact_divide(num, den) == S({0: 1, q(1): 1, q(2): 1})

    def test_self_division(self):
        p = S({q(1): 2, q(4): -3})
        assert exact_divide(p, p) == LaurentSeries.one()

    def test_non_divisible_raises(self):
        with pytest.raises(ValueError):
            exact_divide(S({0: 1, q(2): -1}), S({0: 1, q(3): -1}))

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            exact_divide(S({0: 1}), LaurentSeries.zero())


def geometric(sign, exp, cutoff):
    """1 / (1 - sign * q^(exp/2)) truncated at cutoff, as a geometric
    series: the reference construction for division by one factor."""
    return S({i * exp: sign ** i for i in range(cutoff // exp + 1)}, cutoff)


signs = st.sampled_from([-1, 0, 1])


class TestDivOneMinus:
    @given(small_polys, signs, st.integers(1, 7))
    def test_matches_exact_divide(self, p, sign, exp):
        den = S({0: 1}) + S({exp: -sign})
        num = p * den
        assert num.div_one_minus(sign, exp) == exact_divide(num, den) == p

    @given(small_polys, signs, st.integers(1, 7), st.integers(-10, 40))
    def test_matches_geometric_series(self, p, sign, exp, cutoff):
        t = p.truncate(cutoff)
        # the geometric factor must reach cutoff - min(t) for the product
        # to be known through the cutoff
        reach = max(0, cutoff - min(0, min(t.terms, default=0)))
        assert t.div_one_minus(sign, exp) == t * geometric(sign, exp, reach)

    def test_cyclotomic(self):
        # (1 - q^3) / (1 - q) = 1 + q + q^2
        assert S({0: 1, q(3): -1}).div_one_minus(1, q(1)) == \
            S({0: 1, q(1): 1, q(2): 1})

    @given(small_polys, st.sampled_from([-1, 1]), st.integers(1, 7),
           st.integers(-8, 12), st.integers(1, 9))
    def test_non_multiple_raises(self, p, sign, exp, e, c):
        # a monomial is never a multiple of 1 -+ q^(exp/2)
        num = p * (S({0: 1}) + S({exp: -sign})) + S({e: c})
        with pytest.raises(ValueError, match="non-zero remainder"):
            num.div_one_minus(sign, exp)

    @pytest.mark.parametrize("exp", [0, -1, -4])
    def test_exponent_below_one_raises(self, exp):
        for series in (S({0: 1, q(1): 1}), S({0: 1}, q(4)),
                       LaurentSeries.zero()):
            for sign in (-1, 0, 1):
                with pytest.raises(ValueError, match="exp >= 1"):
                    series.div_one_minus(sign, exp)


def one_minus(sign, exp):
    """The factor 1 - sign * q^(exp/2) as an exact series (at exp = 0 the
    two terms add): the reference for multiplying by one factor."""
    terms = {0: 1}
    terms[exp] = terms.get(exp, 0) - sign
    return S(terms)


optional_cutoffs = st.one_of(st.none(), st.integers(-10, 40))


class TestMulOneMinus:
    @given(small_polys, signs, st.integers(-4, 8), optional_cutoffs)
    def test_matches_product(self, p, sign, exp, cutoff):
        t = p if cutoff is None else p.truncate(cutoff)
        assert t.mul_one_minus(sign, exp) == t * one_minus(sign, exp)

    def test_exponent_zero(self):
        # 1 - q^0 is the zero polynomial, so even a truncated series goes to
        # the exact zero; 1 + q^0 = 2
        t = S({-2: 3, q(1): 1}, q(2))
        assert t.mul_one_minus(1, 0) == LaurentSeries.zero()
        assert t.mul_one_minus(-1, 0) == S({-2: 6, q(1): 2}, q(2))

    def test_negative_exponent_lowers_cutoff(self):
        # (1 + q)(1 - q^-1) = q - q^-1, known below q^3 - q^1
        assert S({0: 1, q(1): 1}, q(3)).mul_one_minus(1, -q(1)) == \
            S({-q(1): -1, q(1): 1}, q(2))


class TestTrivariate:
    @staticmethod
    def single(t_degree, x_exp, coeff):
        return TrivariateSeries({(t_degree, x_exp): coeff},
                                t_cutoff=3, q_cutoff=10)

    def test_one_and_entry(self):
        t = self.single(0, 0, LaurentSeries.one())
        assert t.entry(0, 0).terms == {0: 1}
        assert t.entry(2, 0).is_zero()

    def test_mul_tracks_degrees(self):
        t = self.single(1, 1, LaurentSeries.one())
        sq = t * t
        assert sq.entry(2, 2).terms == {0: 1}
        assert (sq * sq).entries == {}   # t-degree 4 > cutoff

    # entries on few (t, x) keys, so several products meet on one key
    entries = st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(-1, 1)),
        st.builds(lambda s, cut: s if cut is None else s.truncate(cut),
                  small_polys, st.one_of(st.none(), st.integers(-8, 20))),
        max_size=6)

    @given(entries, entries, st.integers(0, 4), st.integers(0, 4),
           st.integers(-4, 24), st.integers(-4, 24))
    # (0,0)(1,0) and (1,0)(0,0) give q and -q on key (1, 0), which vanishes
    @example({(0, 0): S({0: 1}), (1, 0): S({0: 1})},
             {(0, 0): S({2: -1}), (1, 0): S({2: 1})}, 3, 3, 10, 10)
    def test_mul_matches_per_key_fold(self, ea, eb, ta, tb, qa, qb):
        a = TrivariateSeries(ea, t_cutoff=ta, q_cutoff=qa)
        b = TrivariateSeries(eb, t_cutoff=tb, q_cutoff=qb)
        tcut, qcut = min(ta, tb), min(qa, qb)
        fold = {}
        for (t1, x1), sa in a.entries.items():
            for (t2, x2), sb in b.entries.items():
                key = (t1 + t2, x1 + x2)
                fold[key] = fold[key] + sa * sb if key in fold else sa * sb
        want = {k: (s.terms, s.cutoff) for k, s in
                ((k, s.truncate(qcut)) for k, s in fold.items())
                if k[0] <= tcut and not s.is_zero()}
        got = a * b
        assert {k: (s.terms, s.cutoff) for k, s in got.entries.items()} \
            == want
        assert (got.t_cutoff, got.q_cutoff) == (tcut, qcut)

    def test_first_mismatch(self):
        a = self.single(1, 0, S({2: 5}))
        b = self.single(1, 0, S({2: 6}))
        assert a.first_mismatch(b) == (1, 0, 2, 5, 6)
        assert a.first_mismatch(a) is None

    def test_first_mismatch_rejects_short_entry(self):
        # an entry known only to q^(4/2) cannot be compared through 10
        short = self.single(1, 0, S({2: 5}, 4))
        full = self.single(1, 0, S({2: 5}))
        with pytest.raises(ValueError):
            short.first_mismatch(full)
        with pytest.raises(ValueError):
            full.first_mismatch(short)

    def test_first_mismatch_entry_boundary(self):
        # q_cutoff is 10: an entry known to 9 is short, one known to 10
        # is not
        full = self.single(1, 0, S({2: 5}))
        short = self.single(1, 0, S({2: 5}, 9))
        with pytest.raises(ValueError):
            short.first_mismatch(full)
        with pytest.raises(ValueError):
            full.first_mismatch(short)
        assert self.single(1, 0, S({2: 5}, 10)).first_mismatch(full) is None


# -- the dense strided kernels against the dict reference -------------------

@st.composite
def strided_terms(draw):
    """Terms on the grid offset + stride * k, stride in {1, 2, 3, 6}."""
    stride = draw(st.sampled_from([1, 2, 3, 6]))
    offset = draw(st.integers(-6, 6))
    ks = draw(st.dictionaries(st.integers(-4, 8), st.integers(-9, 9),
                              max_size=8))
    return {offset + stride * k: c for k, c in ks.items()}


@st.composite
def long_terms(draw):
    """Up to 60 slots of the grid offset + stride * k, stride in {0, 1, 2,
    3, 6}; stride 0 is a single term."""
    stride = draw(st.sampled_from([0, 1, 2, 3, 6]))
    offset = draw(st.integers(-12, 12))
    coeffs = draw(st.lists(st.one_of(st.just(0), st.integers(-9, 9)),
                           max_size=60 if stride else 1))
    return {offset + stride * k: c for k, c in enumerate(coeffs)}


@st.composite
def wide_terms(draw):
    """Up to 12 slots of the grid offset + stride * k, stride 0..6, with
    coefficients of up to 200 bits: products then need slots of one, two
    or more 64-bit words."""
    stride = draw(st.integers(0, 6))
    offset = draw(st.integers(-12, 12))
    bits = draw(st.sampled_from([3, 31, 32, 62, 63, 64, 126, 127, 128, 200]))
    coeffs = draw(st.lists(st.integers(-2 ** bits, 2 ** bits),
                           max_size=12 if stride else 1))
    return {offset + stride * k: c for k, c in enumerate(coeffs)}


@st.composite
def monomial_pairs(draw):
    """c q^(e/2) with c in {+-1, +-2, +-2^200} and e in -12..12, exact or
    cut near e (below it, the zero series)."""
    e = draw(st.integers(-12, 12))
    c = draw(st.sampled_from([1, -1, 2, -2, 2 ** 200, -2 ** 200]))
    return pair({e: c}, draw(st.one_of(st.none(), st.integers(e - 4, e + 20))))


def pair(terms, cutoff=None):
    """The same series as a LaurentSeries and as the DictSeries reference."""
    return LaurentSeries(terms, cutoff), DictSeries(terms, cutoff)


@st.composite
def pairs(draw, cutoffs=optional_cutoffs, terms=strided_terms()):
    return pair(draw(terms), draw(cutoffs))


# series long enough for div_one_minus to run both of its loops: per
# residue class when d * d <= n, per block of d slots when d * d > n (n
# slots on the grid, the factor d slots apart)
long_pairs = pairs(st.one_of(st.none(), st.integers(-20, 200)), long_terms())
long_exact_pairs = pairs(st.none(), long_terms())
DENSE = {k: k % 7 - 3 for k in range(45)}     # 45 slots of stride 1


def assert_canonical(s):
    terms = s.terms
    assert all(c != 0 for c in terms.values())
    assert list(terms) == sorted(terms)
    if terms:
        assert (s.min_exp(), s.max_exp()) == (min(terms), max(terms))
        if s.cutoff is not None:
            assert s.max_exp() <= s.cutoff
    # equality and hashing do not depend on the grid a kernel left
    rebuilt = LaurentSeries(terms, s.cutoff)
    assert s == rebuilt and hash(s) == hash(rebuilt)


def same(got, want):
    """got agrees with the reference and is in canonical form: no zero
    coefficient, nothing stored above its cutoff."""
    assert_canonical(got)
    assert (got.terms, got.cutoff) == (want.terms, want.cutoff)


def both(op, *args):
    """op applied to the dict reference: its result, or the error type."""
    try:
        return op(*args)
    except ValueError as e:
        return type(e)


class TestAgainstDictReference:
    @given(pairs(), pairs())
    def test_add_sub(self, a, b):
        same(a[0] + b[0], a[1] + b[1])
        same(a[0] - b[0], a[1] + b[1].scale_coeffs(-1))

    @given(pairs(), pairs())
    def test_mul(self, a, b):
        same(a[0] * b[0], a[1] * b[1])

    @given(pairs(terms=wide_terms()), pairs(terms=wide_terms()))
    # a slot of the product is bounded by min(len a, len b) max|a| max|b|;
    # these sit just below and at 2^63 and 2^127, where a slot needs one
    # more word
    @example(pair({0: 2 ** 63 - 1}), pair({-3: 1}))
    @example(pair({0: -(2 ** 63 - 1)}), pair({5: 1}, 5))
    @example(pair({0: 2 ** 63}, 9), pair({1: -1}))
    @example(pair({0: 2 ** 127 - 1}), pair({0: -1}))
    @example(pair({0: -2 ** 127}), pair({0: 1}))
    @example(pair({0: 2 ** 31 - 1, 2: 2 ** 31 - 1}),
             pair({0: -2 ** 31 - 1, 2: -2 ** 31 - 1}))
    @example(pair({-4: 2 ** 63 - 1, 2: 2 ** 63 - 1}, 30),
             pair({0: 2 ** 63 + 1, 3: 2 ** 63 + 1}))
    @example(pair({0: 2 ** 63 - 1, 1: -2 ** 63 + 1}),
             pair({0: 2 ** 63 + 1, 1: 2 ** 63 + 1}, 0))
    @example(pair({0: 3, 6: -2 ** 200}), pair({-2: 5, 1: 2 ** 200}))
    @example(pair({}, 4), pair({0: 2 ** 100}))            # zero operands
    @example(pair({0: 2 ** 100}), pair({}))
    def test_mul_wide_coefficients(self, a, b):
        same(a[0] * b[0], a[1] * b[1])

    @given(monomial_pairs(),
           pairs(terms=st.one_of(strided_terms(), wide_terms())),
           st.booleans())
    # exact times truncated monomial: cut at m.cutoff + s.min_exp = 3
    @example(pair({3: 2}, 5), pair({-2: 1, 0: 3, 4: -1}), False)
    # a monomial above its own cutoff is the zero series: the cut 3 - 2
    # falls below the shifted min_exp 7 - 2, and the zero keeps it
    @example(pair({7: -1}, 3), pair({-2: 1, 0: 3, 4: -1}), True)
    @example(pair({0: 1}), pair({-3: 2, 3: 5}, 7), True)   # x * one
    def test_mul_monomial(self, m, x, flip):
        got, want = (x[0] * m[0], x[1] * m[1]) if flip \
            else (m[0] * x[0], m[1] * x[1])
        same(got, want)
        if m[0] == LaurentSeries.one():
            assert got == x[0]          # cutoff included

    @given(long_pairs, signs, st.integers(-40, 40))
    @example(pair(DENSE, 30), 1, -17)
    @example(pair(DENSE), -1, -40)
    def test_mul_one_minus(self, a, sign, exp):
        same(a[0].mul_one_minus(sign, exp), a[1].mul_one_minus(sign, exp))

    @given(long_pairs, signs, st.integers(-2, 40))
    @example(pair(DENSE, 50), -1, 3)      # per class: n = 51, d = 3
    @example(pair(DENSE, 50), 1, 17)      # per block: n = 51, d = 17
    @example(pair(DENSE, 50), -1, 40)     # per block, one step
    def test_div_one_minus(self, a, sign, exp):
        want = both(DictSeries.div_one_minus, a[1], sign, exp)
        if isinstance(want, DictSeries):
            same(a[0].div_one_minus(sign, exp), want)
        else:
            with pytest.raises(want):
                a[0].div_one_minus(sign, exp)

    @given(long_exact_pairs, st.sampled_from([-1, 1]), st.integers(1, 40),
           st.integers(-12, 60), st.integers(1, 9))
    @example(pair(DENSE), -1, 2, 50, 4)   # per class: n = 47, d = 2
    @example(pair(DENSE), 1, 31, -3, 1)   # per block: n = 76, d = 31
    def test_div_one_minus_exact_multiples(self, a, sign, exp, e, c):
        # a multiple divides back; a monomial added to it leaves a remainder
        num = (a[0].mul_one_minus(sign, exp), a[1].mul_one_minus(sign, exp))
        same(num[0].div_one_minus(sign, exp), num[1].div_one_minus(sign, exp))
        assert num[0].div_one_minus(sign, exp) == a[0]
        off = (num[0] + LaurentSeries({e: c}), num[1] + DictSeries({e: c}))
        for s in off:
            with pytest.raises(ValueError, match="non-zero remainder"):
                s.div_one_minus(sign, exp)

    @given(pairs(), st.integers(-10, 10), st.integers(-30, 60))
    def test_shift_truncate(self, a, exp, cutoff):
        same(a[0].shift(exp), a[1].shift(exp))
        same(a[0].truncate(cutoff), a[1].truncate(cutoff))

    @given(pairs(), st.integers(-1, 4))
    def test_scale_and_reverse_exponents(self, a, k):
        for name, args in (("scale_exponents", (k,)),
                           ("reverse_exponents", ())):
            want = both(getattr(DictSeries, name), a[1], *args)
            if isinstance(want, DictSeries):
                same(getattr(a[0], name)(*args), want)
            else:
                with pytest.raises(want):
                    getattr(a[0], name)(*args)

    def test_first_mismatch_in_last_kept_slot(self):
        # stride 3 from q^-3 against stride 1 from q^-3: the tighter cutoff
        # 4 keeps exponent 3 last, and b's term at 5 lies above it
        a = S({-6: 1, -3: 2, 0: 3, 3: 5}, 4)
        b = S({-6: 1, -3: 2, 0: 3, 3: 6, 5: 7}, 10)
        assert a.first_mismatch(b) == (3, 5, 6)
        assert b.first_mismatch(a) == (3, 6, 5)
        assert a.first_mismatch(S({-6: 1, -3: 2, 0: 3, 3: 5, 5: 7})) is None
        # a term on one side only, at the last kept slot of the other
        assert S({-1: 2}, 3).first_mismatch(S({-1: 2, 3: 1})) == (3, 0, 1)
        assert S({4: 1}, 3).first_mismatch(LaurentSeries.zero()) is None

    @given(pairs(), pairs(), st.integers(0, 40))
    def test_first_mismatch(self, a, b, k):
        # c agrees with a below min(b) + k, on a grid that may be finer
        c = (a[0] + b[0].shift(k), a[1] + b[1].shift(k))
        for x in (a, b, c):
            for y in (a, b, c):
                assert x[0].first_mismatch(y[0]) == x[1].first_mismatch(y[1])


def fold(terms, zero):
    """The left fold of + over terms, from zero."""
    out = zero
    for t in terms:
        out = out + t
    return out


class TestPacking:
    @given(st.dictionaries(st.integers(-8, 40), st.integers(0, 2 ** 200),
                           max_size=8),
           st.integers(0, 12), st.integers(1, 6))
    @example({}, 0, 1)
    @example({-3: 1, 3: 2 ** 64, 9: 2 ** 191 - 1}, 3, 1)  # stride 6
    @example({5: 2 ** 63 - 1}, 0, 1)                       # one word
    @example({5: 2 ** 63}, 0, 1)                           # two words
    @example({-3: 1, 1: 2 ** 64, 2: 7}, 2, 6)              # unpacked at q^3
    def test_round_trip(self, terms, lowest, stride):
        # the series packed as sum c_e X^(e + shift) unpacks to itself,
        # and q^(u/2) is a shift by 64 w u bits; shift puts its lowest
        # slot at X^lowest.  Unpacked on stride k from lo = -shift * k, it
        # is the series at q -> q^k
        s = LaurentSeries(terms)
        w = slot_words(max(terms.values(), default=0))
        shift = lowest - (0 if s.is_zero() else s.min_exp())
        x = sum(c << 64 * w * (e + shift) for e, c in s.terms.items())
        assert unpack_series(x, w, -shift) == s
        assert unpack_series(x << 64 * w * 5, w, -shift) == s.shift(5)
        assert unpack_series(x, w, -shift * stride, stride) == \
            s.scale_exponents(stride)
        if not s.is_zero():
            assert x.bit_length() > 64 * w * lowest
            assert x & ((1 << 64 * w * lowest) - 1) == 0


@st.composite
def packed_classes(draw):
    """(parts, w, step, reference): up to step packed integers of unsigned
    slots of 64 w bits, up to X - 1, each lowest exponent in its own class
    mod step, and their sum as a DictSeries."""
    step = draw(st.sampled_from([1, 2, 3, 6]))
    w = draw(st.integers(1, 3))
    top = (1 << 64 * w) - 1
    slot = st.one_of(st.just(0), st.just(top), st.integers(0, top))
    parts, terms = [], {}
    for r in draw(st.sets(st.integers(0, step - 1), max_size=step)):
        lo = r + step * draw(st.integers(-6, 6))
        c = draw(st.lists(slot, max_size=8))
        parts.append((sum(x << 64 * w * i for i, x in enumerate(c)), lo))
        terms.update({lo + step * i: x for i, x in enumerate(c)})
    return parts, w, step, DictSeries(terms)


class TestUnpackClasses:
    """Packed classes, each unpacked on the stride step and placed on one
    grid by LaurentSeries.sum, as the exact round-trinomial sums do."""

    @given(packed_classes())
    # a full top word reads unsigned
    @example(([(2 ** 64 - 1 << 64, -3), (1, 0)], 1, 2,
              DictSeries({-1: 2 ** 64 - 1, 0: 1})))
    def test_matches_dict_reference(self, case):
        parts, w, step, want = case
        same(LaurentSeries.sum(unpack_series(x, w, lo, step)
                               for x, lo in parts), want)


@st.composite
def packed_parts(draw):
    """(parts, w, stride, signed, reference): parts (x, e, minus) for
    packed_sum, some repeated, at exponents of mixed classes mod the
    stride, and their sum as a DictSeries.  Each slot of a part is at most
    the slot's limit over the number of parts, and at that limit in
    absolute value often, so every class sum fits its slots and a single
    part reaches +-(X / 2 - 1) signed, X - 1 unsigned."""
    stride = draw(st.sampled_from([1, 2, 6]))
    w = draw(st.integers(1, 3))
    signed = draw(st.booleans())
    drawn = draw(st.lists(st.tuples(st.integers(-12, 12), st.booleans(),
                                    st.integers(1, 3)), max_size=5))
    m = max(1, sum(k for e, minus, k in drawn))
    top = ((1 << 64 * w - 1) - 1 if signed else (1 << 64 * w) - 1) // m
    low = -top if signed else 0
    slot = st.one_of(st.just(0), st.just(top), st.just(low),
                     st.integers(low, top))
    parts, want = [], DictSeries()
    for e, minus, k in drawn:
        minus = minus and signed
        c = draw(st.lists(slot, max_size=8))
        x = sum(v << 64 * w * i for i, v in enumerate(c))
        part = DictSeries({e + stride * i: -v if minus else v
                           for i, v in enumerate(c)})
        for _ in range(k):
            parts.append((x, e, minus))
            want = want + part
    return parts, w, stride, signed, want


def _signed_slots(w):
    limit = (1 << 64 * w - 1) - 1
    slot = st.one_of(st.sampled_from([limit, -limit]),
                     st.integers(-limit, limit))
    return st.tuples(st.just(w), st.lists(slot, min_size=1, max_size=12))


# (w, c): up to 12 two's-complement slots of 64 w bits, often at their
# limits +-(X / 2 - 1)
signed_slots = st.integers(1, 3).flatmap(_signed_slots)


class TestPackedSum:
    """The one class-sum kernel of the round-trinomial and the _ratio3
    sums against the dict reference, and the guard of the _ratio3 sums."""

    @given(packed_parts())
    @example(([], 1, 2, True, DictSeries()))
    # one signed part at both limits of a two-word slot, subtracted
    @example(([(-(2 ** 127 - 1) + ((2 ** 127 - 1) << 128), 3, True)], 2, 2,
              True, DictSeries({3: 2 ** 127 - 1, 5: -(2 ** 127 - 1)})))
    # two classes mod 6 that cancel to one slot, and a full unsigned slot
    @example(([(1 + (5 << 64), 0, False), (5, 7, False),
               (2 ** 64 - 1, -6, False)], 1, 6, False,
              DictSeries({-6: 2 ** 64 - 1, 0: 1, 6: 5, 7: 5})))
    def test_matches_dict_reference(self, case):
        parts, w, stride, signed, want = case
        same(packed_sum(iter(parts), w, stride, signed), want)

    @given(signed_slots, st.sampled_from([1, 2, 6]))
    @example((1, [0, 2 ** 63 - 1, 0, -(2 ** 63 - 1)]), 2)
    def test_signed_pack_round_trip(self, case, stride):
        w, c = case
        s = LaurentSeries({i * stride: v for i, v in enumerate(c)})
        x = pack_series(s, w, stride)
        assert x == sum(v << 64 * w * i for i, v in enumerate(c))
        assert unpack_series(x, w, 0, stride, signed=True) == s

    @given(signed_slots, st.integers(1, 16))
    @example((1, [1] * 12), 1)
    @example((2, [-(2 ** 127 - 1), 2 ** 127 - 1, 0, 0, 5]), 3)
    def test_packed_one_minus_steps(self, case, d):
        # Q (1 - X^d) is a multiple of 1 - X^d, and dividing it out gives
        # Q back on its n slots
        w, c = case
        want = DictSeries({i: v for i, v in enumerate(c)}) + \
            DictSeries({i + d: -v for i, v in enumerate(c)})
        x = sum(v << 64 * w * i for i, v in enumerate(c))
        p = packed_mul_one_minus(x, w, d)
        assert p == sum(v << 64 * w * e for e, v in want.terms.items())
        assert packed_div_one_minus(p, w, d,
                                    (1 << 64 * w * len(c)) - 1) == x

    def test_ratio3_sum_guard(self):
        # a sum fits while its heights add up below X / 2; at L = 40 the
        # table has one-word slots, sized for each entry read twice
        identities.clear_caches()
        w, h, table = identities._ratio3(40)
        k = 2
        while slot_words((k + 1) * h) == w:
            k += 1

        def e(n):
            return 3 * n * n + n
        one = identities._ratio3_sum(40, -1, e)
        assert identities._ratio3_sum(40, -1, *[e] * k) == \
            one.scale_coeffs(k)
        with pytest.raises(OverflowError):
            identities._ratio3_sum(40, -1, *[e] * (k + 1))


@st.composite
def carry_outs(draw):
    """A truncated series for carry_one_minus: Laurent (its lowest
    exponent down to -40), a single term (stride 0) or up to 40 slots of
    stride 1, 2, 3 or 6, with small coefficients or ones of 63 to 130
    bits, so that the first pack may already take two or three words;
    cut at 0..900."""
    stride = draw(st.sampled_from([0, 1, 2, 3, 6]))
    offset = draw(st.integers(-40, 20))
    big = st.integers(2 ** 63 - 3, 2 ** 130).map(
        lambda v: v if v % 2 else -v)
    coeffs = draw(st.lists(st.one_of(st.integers(-9, 9), big),
                           max_size=40 if stride else 1))
    terms = {offset + stride * k: c for k, c in enumerate(coeffs)}
    return LaurentSeries(terms, draw(st.integers(0, 900)))


# the exponents of a run of factors: a few anywhere up to 1100 half-units,
# past the slots of most outs, many small ones, whose coefficients grow
# fastest, or a long run start, start + step, ...
carry_exps = st.one_of(
    st.lists(st.integers(1, 1100), max_size=12),
    st.lists(st.integers(1, 4), max_size=80),
    st.builds(lambda a, step, k: list(range(a, a + step * k, step)),
              st.integers(1, 12), st.integers(1, 12), st.integers(0, 120)))


def partition_counts(n):
    """p(0), ..., p(n) by Euler's pentagonal recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        k, total = 1, 0
        while k * (3 * k - 1) // 2 <= m:
            sign = 1 if k % 2 else -1
            total += sign * p[m - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= m:
                total += sign * p[m - k * (3 * k + 1) // 2]
            k += 1
        p[m] = total
    return p


class TestCarryOneMinus:
    """The packed carry of the truncated Pochhammer symbols against the
    per-factor loop it replaced, and its width re-measured mid-chain."""

    @given(carry_outs(), st.sampled_from([-1, 1]), carry_exps,
           st.booleans())
    # a 64-bit coefficient: the first pack already takes two-word slots
    @example(S({-3: 2 ** 63, 0: -1}, 40), 1, [1, 2, 3], True)
    # only factors past the n = 11 slots
    @example(S({0: 5, 2: -1}, 10), -1, [11, 40, 1100], False)
    # (1 + q^(1/2))^70 and 1/(1 - q^(1/2))^10 through q^450: coefficients
    # past 2^64, so the slots widen as they grow
    @example(S({0: 1}, 900), -1, [1] * 70, False)
    @example(S({0: 1}, 900), 1, [1] * 10, True)
    # a single term on a grid of 6 carried by factors of 1 and 4
    @example(S({-6: 7}, 900), 1, list(range(1, 481, 4)), True)
    def test_matches_per_factor_loop(self, out, sign, exps, divide):
        same(carry_one_minus(out, sign, exps, divide),
             one_minus_run(out, sign, exps, divide))

    @given(carry_outs(), st.sampled_from([-1, 1]), st.booleans())
    def test_matches_dict_reference(self, out, sign, divide):
        exps = [1, 2, 5, 9, 30]
        want = one_minus_run(DictSeries(out.terms, out.cutoff), sign, exps,
                             divide)
        same(carry_one_minus(out, sign, exps, divide), want)

    @pytest.mark.parametrize("cutoff", [812, 813, 1000])
    def test_widened_mid_chain(self, cutoff, monkeypatch):
        # 1/(q;q)_inf: its coefficient p(n) first reaches 2^63 at n = 406,
        # so one-word slots of the first pack must widen before then
        widths = []
        pack = series._pack
        monkeypatch.setattr(series, "_pack", lambda c, w, signs:
                            widths.append(w) or pack(c, w, signs))
        one = LaurentSeries.one().truncate(cutoff)
        exps = range(2, cutoff + 1, 2)
        got = carry_one_minus(one, 1, exps, True)
        p = partition_counts(cutoff // 2)
        assert p[406] >= 2 ** 63 > p[405]
        same(got, DictSeries({2 * m: v for m, v in enumerate(p)}, cutoff))
        same(got, one_minus_run(one, 1, exps, True))
        assert widths[0] == 1 and max(widths) >= 2

    def test_zero_and_empty_runs_are_returned(self):
        zero, s = LaurentSeries.zero(5), S({0: 1, 3: 2}, 9)
        assert carry_one_minus(zero, 1, [1, 2]) is zero
        assert carry_one_minus(s, 1, [], True) is s
        # sign 0 is the argument a = 0, whose exponent may be 0
        assert carry_one_minus(s, 0, [0, 2]) is s

    def test_rejects_exact_series_and_exponents_below_one(self):
        with pytest.raises(ValueError, match="truncated"):
            carry_one_minus(S({0: 1}), 1, [2])
        for exps in ([0], [3, -2]):
            with pytest.raises(ValueError, match="e >= 1"):
                carry_one_minus(S({0: 1}, 9), 1, exps, True)


@st.composite
def walk_cases(draw):
    """(start, steps) for walk_one_minus: a polynomial P in q^(1/2) from
    exponent 0 up, with small coefficients or ones of 63 to 140 bits and
    P(1) != 0, times a 1 - q^(d/2) for the divisor d of each step, so
    every step divides exactly; each step multiplies by up to two
    factors 1 - q^(m/2) first.  Exponents are slots, up to 40."""
    big = st.integers(2 ** 63 - 3, 2 ** 140).map(
        lambda v: v if v % 2 else -v)
    coeffs = draw(st.lists(st.one_of(st.integers(-9, 9), big), min_size=1,
                           max_size=30))
    if sum(coeffs) == 0:
        coeffs[0] += 1
    p = LaurentSeries(dict(enumerate(coeffs)))
    steps = draw(st.lists(st.tuples(
        st.lists(st.integers(1, 40), max_size=2), st.integers(1, 40)),
        max_size=12))
    for _, d in steps:
        p = p.mul_one_minus(1, d)
    return p, [(*muls, d) for muls, d in steps]


class TestWalkOneMinus:
    """The exact packed walk of the multinomial quotients against the same
    steps taken on LaurentSeries, its checks, its heights and the signed
    repack it widens with."""

    @staticmethod
    def walked(start, steps, w, measure):
        b = start.max_abs_coeff().bit_length()
        out = list(walk_one_minus(pack_series(start, w, 1), w, b, steps,
                                  measure))
        want, r = [start], start
        for *muls, d in steps:
            for m in muls:
                r = r.mul_one_minus(1, m)
            r = r.div_one_minus(1, d)
            want.append(r)
        assert [unpack_series(x, v, 0, 1, signed=True) for x, v, _ in out] \
            == want
        for (x, v, height), r in zip(out, want):
            if measure:
                assert height == r.max_abs_coeff()
            else:
                assert height >= r.max_abs_coeff()
        widths = [v for _, v, _ in out]
        assert widths == sorted(widths)
        return widths

    @given(walk_cases(), st.booleans())
    # (1 - q^(1/2))^2 / (1 - q^(1/2)), then 1 / (1 - q^(1/2))
    @example((S({0: 1, 1: -2, 2: 1}), [(1, 1), (1,)]), True)
    # coefficients near 2^63 that must widen at the first step
    @example((S({0: 2 ** 63 - 3, 1: -(2 ** 63 - 3)}), [(1, 1, 1)]), False)
    def test_matches_series_steps(self, case, measure):
        start, steps = case
        self.walked(start, steps, slot_words(start.max_abs_coeff()),
                    measure)

    @pytest.mark.parametrize("measure", [False, True])
    def test_widens_from_one_word(self, measure):
        # each of the first 40 steps multiplies by (1 - q^(1/2))^2 and
        # divides by 1 - q, so the coefficients grow past 2^63: a walk
        # started in one word must widen and keep every slot
        start = S({0: 1})
        steps = [(1, 1, 2)] * 40 + [(3, 1)] * 10
        for *muls, d in steps:
            start = start.mul_one_minus(1, d)
        widths = self.walked(start, steps, 1, measure)
        assert widths[0] == 1 and widths[-1] >= 2

    @pytest.mark.parametrize("measure", [False, True])
    def test_inexact_division_raises(self, measure):
        # P(1) != 0, so 1 - q does not divide P; 1 - q^(7/2) does not
        # divide P (1 - q^(3/2)) (1 - q); and 1 - q^(9/2), past the top
        # slot, leaves P as its remainder
        p = S({0: 2 ** 70 + 1, 1: -3, 5: 2 ** 100})
        x, b = pack_series(p, 2, 1), p.max_abs_coeff().bit_length()
        for steps in ([(2,)], [(3, 2, 7), (4,)], [(9,)]):
            with pytest.raises(ValueError, match="remainder"):
                list(walk_one_minus(x, 2, b, steps, measure))

    def test_rejects_divisors_below_one(self):
        for step in [(0,), (2, 0), (2, -1)]:
            with pytest.raises(ValueError, match="d >= 1"):
                list(walk_one_minus(1, 1, 1, [step]))

    def test_zero_stays_zero(self):
        assert [x for x, _, _ in walk_one_minus(0, 1, 0, [(2, 3), (5,)])] \
            == [0, 0, 0]

    @given(signed_slots, st.integers(0, 40))
    # many slots at the extremes: every slot is unpacked
    @example((2, [2 ** 100] * 5 + [-(2 ** 100)] * 5), 0)
    @example((3, [1, -1, 0]), 100)
    def test_heights(self, case, slack):
        w, c = case
        top = max(max(c), -min(c))
        b = min(top.bit_length() + slack, 64 * w - 1)
        x = sum(v << 64 * w * i for i, v in enumerate(c))
        assert series._height(x, len(c), w, b, True) == top
        bound = series._height(x, len(c), w, b, False)
        assert top <= bound < top + 2 ** max(b - 63, 0) + 1

    @given(signed_slots, st.integers(1, 4))
    @example((1, [-(2 ** 63 - 1), 2 ** 63 - 1]), 2)
    @example((3, [2 ** 60, -5, 0, -(2 ** 62)]), 1)
    def test_signed_repack(self, case, v):
        # widened, or narrowed to slots that still hold every slot
        w, c = case
        if slot_words(max(max(c), -min(c))) > v:
            v = w + v
        x = sum(u << 64 * w * i for i, u in enumerate(c))
        assert repack(x, w, v, signed=True) == \
            sum(u << 64 * v * i for i, u in enumerate(c))


class TestSum:
    """The one-pass LaurentSeries.sum against a left fold of + and against
    the dict reference."""

    @given(st.lists(pairs(terms=st.one_of(strided_terms(), long_terms())),
                    max_size=7), optional_cutoffs)
    @example([], None)
    @example([], 5)
    @example([pair({-4: 1, 2: 3}, 10)], None)             # one term
    @example([pair({-4: 1, 2: 3}, 10)], 0)                # one term, cut
    # zero terms add nothing, but their cutoffs still count
    @example([pair({}, 3), pair({1: 2, -5: 1}), pair({})], None)
    # mixed strides and offsets, negative exponents
    @example([pair({-3: 1, 3: 1}), pair({-2: 1, 2: 1, 6: -1}),
              pair({1: 4}), pair({-3: -1})], None)
    # the second and third lie wholly above the cut
    @example([pair({-2: 1, 4: 1}, 12), pair({30: 5, 36: 1}),
              pair({13: 2}, 40)], 11)
    def test_matches_fold_and_reference(self, terms, cutoff):
        before = [t[0].terms for t in terms]
        got = LaurentSeries.sum((t[0] for t in terms), cutoff)  # generator
        same(got, fold((t[1] for t in terms), DictSeries.zero(cutoff)))
        assert got == fold((t[0] for t in terms), LaurentSeries.zero(cutoff))
        assert [t[0].terms for t in terms] == before

    def test_empty(self):
        assert LaurentSeries.sum([]) == LaurentSeries.zero()
        assert LaurentSeries.sum(iter(()), 7) == LaurentSeries.zero(7)

    def test_single_term(self):
        s = S({-2: 1, 4: 3, 10: -2}, 12)
        assert LaurentSeries.sum([s]) is s
        assert LaurentSeries.sum([s], 5) == s.truncate(5)
        assert LaurentSeries.sum([LaurentSeries.zero(), s]) is s

    def test_terms_above_the_cut_dropped(self):
        got = LaurentSeries.sum([S({0: 1, 4: 2}, 6), S({8: 4}),
                                 S({-2: 1, 20: 1})])
        assert got == S({-2: 1, 0: 1, 4: 2}, 6)
        assert LaurentSeries.sum([S({8: 4}), S({9: 1})], 7) == \
            LaurentSeries.zero(7)


class TestCanonicalForm:
    def test_cancellation_to_a_coarser_grid(self):
        half = S({0: 1, 1: 1}) - S({1: 1})         # (1 + q^(1/2)) - q^(1/2)
        assert half == LaurentSeries.one()
        assert hash(half) == hash(LaurentSeries.one())
        six = S({0: 1, 6: 1})                      # stride 6
        two = S({2: 1, 4: 1, 6: 1})                # stride 2
        mixed = six + two - S({2: 1, 4: 1})        # cancels to stride 6
        assert mixed == S({0: 1, 6: 2}) and mixed.terms == {0: 1, 6: 2}
        assert hash(mixed) == hash(S({0: 1, 6: 2}))
        assert mixed != S({0: 1, 6: 2}, 6)

    def test_zero_from_cancellation(self):
        p = S({-3: 2, 0: 1, 6: 5}, 9)
        assert (p - p) == LaurentSeries.zero(9)
        assert hash(p - p) == hash(LaurentSeries.zero(9))
        assert (p - p).terms == {}

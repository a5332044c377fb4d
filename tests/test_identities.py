"""Tests for the identity registry, the Bailey transform, the trivariate
generating-function check and limit stabilization.

Scale here is kept small; the acceptance battery (test_acceptance.py)
runs the full desk-scale sweeps.
"""

import dataclasses
import sys
from functools import lru_cache
from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given, settings, strategies as st

from qtrin import identities, trinomials
from qtrin.identities import (REGISTRY, IdentityDef, IdentityInstance,
                              bailey_sides, cache_sizes, clear_caches,
                              compute_side, verify_identity, verify_lemma31,
                              verify_limit_stabilization)
from qtrin.qblocks import (MonomialArg, gaussian_binomial, poch_finite,
                           q_poch)
from qtrin.series import (LaurentSeries, TrivariateSeries, exact_divide,
                          slot_words, unpack_series, walk_one_minus)
from qtrin.trinomials import (TParams, TrinomialParams, round_trinomial,
                              t_trinomial)

from dict_series import (pack_series, ratio3_walk, ratio4_columns,
                         ratio4_fold)


def q(k):
    return 2 * k


class TestRegistrySchema:
    def test_unknown_id(self):
        with pytest.raises(KeyError):
            verify_identity(IdentityInstance("nonsense", {}))

    def test_missing_and_extra_params(self):
        with pytest.raises(ValueError):
            verify_identity(IdentityInstance("third_pair", {}))
        with pytest.raises(ValueError):
            verify_identity(IdentityInstance("third_pair", {"L": 1, "x": 2}))

    def test_cutoff_required_for_truncated(self):
        with pytest.raises(ValueError):
            verify_identity(IdentityInstance("kr1", {}))

    @pytest.mark.parametrize("cutoff", [-1, -4])
    def test_negative_cutoff_rejected(self, cutoff):
        with pytest.raises(ValueError, match="cutoff >= 0"):
            verify_identity(IdentityInstance("kr1", {}, cutoff))

    def test_cutoff_rejected_for_exact(self):
        with pytest.raises(ValueError):
            verify_identity(IdentityInstance("third_pair", {"L": 2}, q(10)))

    def test_negative_parameter_rejected(self):
        with pytest.raises(ValueError):
            verify_identity(IdentityInstance("third_pair", {"L": -1}))


class TestComputeSide:
    def test_third_pair_base_case(self):
        got = compute_side(IdentityInstance("third_pair", {"L": 0}), "LHS")
        assert got == LaurentSeries.one()

    def test_thm71_small_instance(self):
        want = LaurentSeries({0: 1, q(2): 1, q(3): 1, q(4): 1})
        inst = IdentityInstance("thm71", {"M": 1})
        assert compute_side(inst, "LHS") == want
        assert compute_side(inst, "RHS") == want

    def test_kr1_product_coefficient(self):
        inst = IdentityInstance("kr1", {}, q(6))
        rhs = compute_side(inst, "RHS")
        # partitions of 6 into the allowed parts: {6}, {4,2}
        assert rhs.coeff_at(q(6)) == 2

    def test_unknown_side_rejected(self):
        inst = IdentityInstance("third_pair", {"L": 1})
        for side in ("lhs", "MIDDLE", ""):
            with pytest.raises(ValueError):
                compute_side(inst, side)

    def test_exact_sides_have_no_cutoff(self):
        side = compute_side(IdentityInstance("t0_sum", {"L": 3, "a": 1}),
                            "RHS")
        assert side.cutoff is None


# D(L), in half-units, with X_dual(L) = q^(D/2) X(L)(1/q) on both sides.
# For third_pair at odd L the dual starts at q^(1/2), so D is one
# half-unit above the pair's degree there
DUAL_SHIFTS = {
    "first_pair": lambda L: 3 * L * L + 5 * L + 2,
    "second_pair": lambda L: 3 * L * L + L,
    "third_pair": lambda L: 3 * L * L + 2 * L,
}


class TestDuality:
    @pytest.mark.parametrize("id", sorted(DUAL_SHIFTS))
    @pytest.mark.parametrize("side", ["LHS", "RHS"])
    def test_dual_is_the_reversed_pair(self, id, side):
        # each dual side has its own builder (the dual RHS sums T_n, the
        # pair RHS reads round-trinomial rows), so this ties them together
        for L in range(31):
            pair = compute_side(IdentityInstance(id, {"L": L}), side)
            dual = compute_side(IdentityInstance(id + "_dual", {"L": L}),
                                side)
            assert dual == pair.reverse_exponents().shift(
                DUAL_SHIFTS[id](L)), L


class TestVerifyIdentity:
    @pytest.mark.parametrize("id", ["first_pair", "second_pair", "third_pair",
                                    "first_pair_dual", "second_pair_dual",
                                    "third_pair_dual"])
    def test_pair_families_small(self, id):
        for L in range(6):
            rep = verify_identity(IdentityInstance(id, {"L": L}))
            assert rep.match, (id, L, rep.first_mismatch)

    def test_truncated_series(self):
        for id in ("kr1", "cap2", "outlook2"):
            rep = verify_identity(IdentityInstance(id, {}, q(30)))
            assert rep.match, (id, rep.first_mismatch)

    def test_poch_reversal(self):
        for n in range(8):
            assert verify_identity(
                IdentityInstance("poch_reversal", {"n": n})).match

    @given(st.integers(0, 7), st.integers(-7, 7))
    @settings(max_examples=40, deadline=None)
    def test_summations_property(self, L, a):
        for id in ("t0_sum", "t1_sum", "tm1_sum", "bmo_transform"):
            rep = verify_identity(IdentityInstance(id, {"L": L, "a": a}))
            assert rep.match, (id, L, a, rep.first_mismatch)

    @given(st.sampled_from([-1, 0, 1]), st.integers(0, 4),
           st.sampled_from([-1, 1]), st.integers(1, 4))
    @example(1, 0, 1, 2)
    @example(-1, 0, -1, 1)
    @settings(max_examples=60, deadline=None)
    def test_q_binomial_theorem_schema(self, a_sign, a_exp, z_sign, z_exp):
        params = {"a_sign": a_sign, "a_exp": a_exp,
                  "z_sign": z_sign, "z_exp": z_exp}
        rep = verify_identity(
            IdentityInstance("q_binomial_theorem", params, q(20)))
        assert rep.match, (params, rep.first_mismatch)

    def test_report_fields(self):
        rep = verify_identity(IdentityInstance("thm71", {"M": 2}))
        assert rep.match is True
        assert rep.first_mismatch is None
        assert rep.elapsed_ms >= 0

    @pytest.mark.parametrize("inst", [
        IdentityInstance("first_pair", {"L": 4}),
        IdentityInstance("kr1", {}, q(10)),
        IdentityInstance("lemma_genfun", {"n": 1, "t_cutoff": 2}, q(5))])
    def test_detail_times_each_stage(self, inst):
        rep = verify_identity(inst)
        assert rep.match
        assert set(rep.detail) == {"lhs_ms", "rhs_ms", "compare_ms"}
        assert all(v >= 0 for v in rep.detail.values())


class TestPerturbationFixture:
    """The harness must locate a planted defect, not just rubber-stamp."""

    @pytest.fixture
    def perturbed(self):
        base = REGISTRY["first_pair"]

        def bad_rhs(params, cutoff):
            return base.rhs(params, cutoff) + LaurentSeries({q(2): 1})

        REGISTRY["perturbed_pair"] = IdentityDef(
            "perturbed_pair", base.param_names, base.mode, base.lhs,
            bad_rhs, base.check)
        yield "perturbed_pair"
        del REGISTRY["perturbed_pair"]

    def test_mismatch_located(self, perturbed):
        rep = verify_identity(IdentityInstance(perturbed, {"L": 3}))
        assert not rep.match
        exp, lhs_c, rhs_c = rep.first_mismatch
        assert exp == q(2)
        assert rhs_c == lhs_c + 1


class TestShortenedWindow:
    """A side known only below the requested cutoff is an error, not a
    comparison over a shorter window."""

    @staticmethod
    def shorten(monkeypatch, id, rhs):
        monkeypatch.setitem(REGISTRY, id,
                            dataclasses.replace(REGISTRY[id], rhs=rhs))

    def test_truncated_side_shorter_than_request(self, monkeypatch):
        base = REGISTRY["kr1"].rhs
        self.shorten(monkeypatch, "kr1", lambda p, c: base(p, c - 2))
        with pytest.raises(ValueError, match="known only to"):
            verify_identity(IdentityInstance("kr1", {}, q(10)))

    @pytest.mark.parametrize("short,raises", [(1, True), (0, False)])
    def test_side_boundary_half_unit(self, monkeypatch, short, raises):
        # known to exactly c - 1 is short; known to exactly c is not
        base = REGISTRY["kr1"].rhs
        self.shorten(monkeypatch, "kr1",
                     lambda p, c: base(p, c + 2).truncate(c - short))
        inst = IdentityInstance("kr1", {}, q(10))
        if raises:
            with pytest.raises(ValueError, match="known only to"):
                verify_identity(inst)
        else:
            assert verify_identity(inst).match

    def test_exact_side_truncated(self, monkeypatch):
        base = REGISTRY["third_pair"].rhs
        self.shorten(monkeypatch, "third_pair",
                     lambda p, c: base(p, c).truncate(q(40)))
        with pytest.raises(ValueError, match="known only to"):
            verify_identity(IdentityInstance("third_pair", {"L": 2}))

    def test_stabilization_member_short(self, monkeypatch):
        base = REGISTRY["third_pair"].rhs
        self.shorten(monkeypatch, "third_pair",
                     lambda p, c: base(p, c - 2))
        with pytest.raises(ValueError, match="member 0"):
            verify_limit_stabilization("third_pair", window=q(6))

    def test_stabilization_member_short_by_one(self, monkeypatch):
        # members 0..3 are built at window q^6; only member 3 is short
        defaults, member, target, law = identities._LIMIT_TARGETS["third_pair"]
        monkeypatch.setitem(
            identities._LIMIT_TARGETS, "third_pair",
            (defaults, lambda p, n, c: member(p, n, c - (n == 3)), target,
             law))
        with pytest.raises(ValueError, match="member 3 "):
            verify_limit_stabilization("third_pair", window=q(6))

    def test_stabilization_target_short(self, monkeypatch):
        defaults, member, target, law = identities._LIMIT_TARGETS["third_pair"]
        monkeypatch.setitem(identities._LIMIT_TARGETS, "third_pair",
                            (defaults, member, lambda p, c: target(p, c - 2),
                             law))
        with pytest.raises(ValueError, match="target"):
            verify_limit_stabilization("third_pair", window=q(6))


class TestCaches:
    NAMES = {"q_poch", "_gaussian_base", "packed_gaussian",
             "_round_trinomial", "_ratio3", "_ratio4", "round_rows",
             "round_row_entries"}

    def test_clear_then_rebuild(self):
        inst = IdentityInstance("first_pair", {"L": 4})

        def run_cold():
            clear_caches()
            assert cache_sizes() == dict.fromkeys(self.NAMES, 0)
            rep = verify_identity(inst)
            return (rep.match, rep.first_mismatch), cache_sizes()

        verify_identity(inst)
        verify_identity(IdentityInstance("thm71", {"M": 2}))
        # the pair sums read packed rows; T_n is built from a cached entry
        verify_identity(IdentityInstance("bmo_transform", {"L": 3, "a": 1}))
        # only poch_reversal reads q_poch
        verify_identity(IdentityInstance("poch_reversal", {"n": 3}))
        assert all(n > 0 for n in cache_sizes().values())
        first, second = run_cold(), run_cold()
        assert first == second
        assert first[0] == (True, None)


class TestBuildsOnce:
    """A sum builds each of its q-blocks once and shifts it to every
    exponent it enters at: row L once, in one round-trinomial sum, for the
    first pair's RHS, one double sum for both exponents of cap2, and
    (-q^3;q^3)_inf once for both Capparelli products."""

    def test_first_pair_rhs_builds_its_row_once(self, monkeypatch):
        clear_caches()
        build, seen = trinomials._RowStore._build, []

        def counted(self, L, lo, hi, top):
            seen.append(L)
            return build(self, L, lo, hi, top)
        monkeypatch.setattr(trinomials._RowStore, "_build", counted)
        compute_side(IdentityInstance("first_pair", {"L": 10}), "RHS")
        assert seen == [10]

    @pytest.mark.parametrize("id, steps", [
        ("first_pair", 99), ("second_pair", 360), ("third_pair", 99)])
    def test_limit_steps_each_row_once(self, monkeypatch, id, steps):
        # the members L = 0, 1, ... are built below the window, each from
        # the cut row of member L - 1; rows 40, 81 and 121 take wider
        # slots, so each steps up from row 0
        clear_caches()
        step, seen = trinomials._next_row, []

        def counted(k, *args):
            seen.append(k)
            return step(k, *args)
        monkeypatch.setattr(trinomials, "_next_row", counted)
        assert verify_limit_stabilization(id, 240).match
        top = max(seen)
        edges = [L for L in range(1, top + 1)
                 if slot_words(3 ** L) > slot_words(3 ** (L - 1))]
        assert sorted(seen) == sorted([*range(1, top + 1),
                                       *(k for e in edges
                                         for k in range(1, e))])
        assert len(seen) == steps
        assert cache_sizes()["round_rows"] == 1

    def test_exact_sums_unpack_no_entry_on_its_own(self):
        # the six pair and dual RHS and the hierarchy RHS add packed
        # entries: none is unpacked into the entry cache
        clear_caches()
        for id in ("first_pair", "second_pair", "third_pair",
                   "first_pair_dual", "second_pair_dual",
                   "third_pair_dual"):
            compute_side(IdentityInstance(id, {"L": 12}), "RHS")
        compute_side(IdentityInstance("hierarchy", {"nu": 2, "L": 9}), "RHS")
        assert cache_sizes()["_round_trinomial"] == 0
        assert cache_sizes()["round_rows"] == 2

    def test_quotients_walked_once_per_order(self):
        # the pair LHS at L = M and the three bounded Capparelli LHS at M
        # read one _ratio3(M) table: it is built once, one cache miss
        clear_caches()
        assert verify_identity(IdentityInstance("first_pair", {"L": 8})).match
        for id in ("thm71", "thm72", "fincap2m"):
            assert verify_identity(IdentityInstance(id, {"M": 8})).match
        info = identities._ratio3.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    @pytest.mark.parametrize("id, side, params, cutoff, name, calls", [
        ("first_pair", "RHS", {"L": 10}, None, "round_trinomial_sum", 1),
        ("cap2", "LHS", {}, q(30), "_double_sum", 1),
        ("outlook2", "RHS", {}, q(30), "poch_infinite", 5),
    ])
    def test_build_count(self, monkeypatch, id, side, params, cutoff, name,
                         calls):
        fn, seen = getattr(identities, name), []

        def counted(*args, **kwargs):
            seen.append(args)
            return fn(*args, **kwargs)
        monkeypatch.setattr(identities, name, counted)
        compute_side(IdentityInstance(id, params, cutoff), side)
        assert len(seen) == calls


def every_term_bailey_sides(kind, alpha, L, step):
    """Both Bailey sides summed over every a and i, zero T_kind and zero
    binomials included: the reference for the builders that skip them."""
    offsets = (0, 1) if kind == -1 else (0,)
    powers = {0: (0,), 1: (1, -1), -1: (-1,)}[kind]
    lhs = LaurentSeries.zero()
    for i in range(L + 1):
        f = LaurentSeries.zero()
        for a, coeff in alpha.items():
            f = f + coeff * LaurentSeries.sum(
                t_trinomial(TParams(kind, i, a + o, step)) for o in offsets)
        lhs = lhs + (gaussian_binomial(L, i, step) * f).shift(
            i * (i - kind) * step // 2)
    if kind == 1:
        lhs = lhs + lhs.shift(L * step)
    rhs = LaurentSeries.zero()
    for a, coeff in alpha.items():
        b = gaussian_binomial(2 * L + (kind == -1), L - a, step)
        for s in powers:
            rhs = rhs + coeff * b.shift(a * (a - s) * step // 2)
    return lhs, rhs


@st.composite
def bailey_cases(draw):
    """(kind, alpha, L, step): alpha holds monomials, exact or truncated,
    at some a in [-L-3, L+3]."""
    L = draw(st.integers(0, 6))
    monomials = st.builds(
        lambda c, e, cut: LaurentSeries({e: c}, cut),
        st.sampled_from([1, -1, 3]), st.integers(-6, 12),
        st.one_of(st.none(), st.none(), st.integers(12, 60)))
    alpha = draw(st.dictionaries(st.integers(-L - 3, L + 3), monomials,
                                 max_size=2 * L + 7))
    return (draw(st.sampled_from([-1, 0, 1])), alpha, L,
            draw(st.sampled_from([2, 6])))


class TestBailey:
    @given(bailey_cases())
    # kind -1 at a = -i - 1 for i = 2: only T_-1(2, -2) of the pair is
    # non-zero
    @example((-1, {-3: LaurentSeries.one()}, 4, 2))
    @example((-1, {-7: LaurentSeries.one(), 6: LaurentSeries.one()}, 6, 6))
    @example((1, {9: LaurentSeries({2: -1}, 20)}, 6, 2))
    # T_0(i, 1) = T_0(i, -1): each F(i), i >= 1, is a zero known only
    # below a cutoff, which both sides keep
    @example((0, {1: LaurentSeries({0: 1}, 20), -1: -LaurentSeries.one()},
              3, 2))
    @settings(deadline=None)
    def test_skipped_terms_are_zero(self, case):
        # equal series have equal cutoffs
        assert bailey_sides(*case) == every_term_bailey_sides(*case)

    def test_empty_alpha(self):
        lhs, rhs = bailey_sides(0, {}, 3)
        assert lhs.is_zero() and rhs.is_zero()

    def test_unit_alpha_hand_case(self):
        # alpha supported at 0 with value 1, L=1: both sides are [2,1]
        lhs, rhs = bailey_sides(0, {0: LaurentSeries.one()}, 1)
        want = LaurentSeries({0: 1, q(1): 1})
        assert lhs == want and rhs == want

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            bailey_sides(2, {}, 1)

    @pytest.mark.parametrize("kind,efn,tid", [
        (0, lambda j: 3 * j * j + 2 * j, "thm71"),
        (1, lambda j: 3 * j * j - j, "thm72"),
        (-1, lambda j: 3 * j * j + j, "fincap2m"),
    ])
    def test_reproduces_bounded_identities(self, kind, efn, tid):
        for M in range(4):
            alpha = {j: LaurentSeries.monomial(1, efn(j))
                     for j in range(-M - 2, M + 3)}
            lhs, rhs = bailey_sides(kind, alpha, M, step=6)
            inst = IdentityInstance(tid, {"M": M})
            assert lhs.first_mismatch(rhs) is None
            assert lhs.first_mismatch(compute_side(inst, "LHS")) is None
            assert rhs.first_mismatch(compute_side(inst, "RHS")) is None


class TestLemma31:
    def test_degree_zero(self):
        rep = verify_lemma31(0, t_cutoff=0, q_cutoff=q(4))
        assert rep.match

    def test_no_t_degrees(self):
        # both sides would be empty series in t: no window to compare
        with pytest.raises(ValueError, match="non-negative"):
            verify_lemma31(1, t_cutoff=-1, q_cutoff=q(4))

    def test_negative_q_cutoff_rejected(self):
        with pytest.raises(ValueError, match="cutoff >= 0"):
            verify_lemma31(0, t_cutoff=0, q_cutoff=-5)

    def test_small_window(self):
        for n in (-1, 0, 1):
            rep = verify_lemma31(n, t_cutoff=4, q_cutoff=q(8))
            assert rep.match, (n, rep.first_mismatch)

    def test_large_n_rejected(self):
        with pytest.raises(ValueError):
            verify_lemma31(5, t_cutoff=2, q_cutoff=10)

    @pytest.mark.parametrize("n", [-4, 4])
    def test_extreme_n_at_the_tightest_working_cutoff(self, n):
        # the RHS working cutoff grows with n * t_cutoff; at |n| = 4 it
        # is tightest, and a short entry would raise, not pass
        rep = verify_lemma31(n, t_cutoff=8, q_cutoff=40)
        assert rep.match, (n, rep.first_mismatch)
        assert rep.instance == IdentityInstance(
            "lemma_genfun", {"n": n, "t_cutoff": 8}, 40)

    def test_genfun_products(self):
        for pair in (1, 2, 3):
            rep = verify_identity(IdentityInstance(
                "genfun_products", {"pair": pair, "t_cutoff": 4}, q(8)))
            assert rep.match, (pair, rep.first_mismatch)

    def test_genfun_lhs_reads_no_registry_side(self, monkeypatch):
        # a traced run wraps every registry side; a side read inside
        # another would be timed as both
        def unbuilt(p, c):
            raise AssertionError("a registry side was built")
        for id in ("first_pair", "second_pair", "third_pair"):
            monkeypatch.setitem(REGISTRY, id, dataclasses.replace(
                REGISTRY[id], rhs=unbuilt))
        for pair in (1, 2, 3):
            compute_side(IdentityInstance(
                "genfun_products", {"pair": pair, "t_cutoff": 2}, q(4)), "LHS")


class TestEuler:
    """Euler's two sums give (z; Q)_inf and its reciprocal, z = t^a x^b
    q^(c/2); their product is 1 as a series in t."""

    def test_inverse_entry(self):
        # t^1 of 1/(t; q)_inf is 1/(1 - q)
        inv = identities._euler(1, 0, 0, 2, True, 2, q(3))
        assert inv.entry(1) == LaurentSeries({0: 1, q(1): 1, q(2): 1,
                                              q(3): 1}, q(3))

    @given(st.sampled_from([2, 6]), st.integers(1, 3), st.integers(-1, 1),
           st.integers(-6, 6), st.integers(0, 6), st.integers(0, 24))
    @settings(max_examples=60, deadline=None)
    def test_direct_times_inverse_is_one(self, step, a, b, c, tcut, qcut):
        # with c < 0 an entry at t^k starts at q^(kc/2), so the product
        # is known through qcut only if both are built that much higher
        work = qcut + max(0, -c) * tcut
        direct = identities._euler(a, b, c, step, False, tcut, work)
        inverse = identities._euler(a, b, c, step, True, tcut, work)
        # every entry is known through the cutoff it was asked for
        for side in (direct, inverse):
            assert all(s.cutoff == work for s in side.entries.values())
        prod = direct * inverse
        prod = TrivariateSeries(prod.entries, t_cutoff=tcut, q_cutoff=qcut)
        one = TrivariateSeries({(0, 0): LaurentSeries.one()},
                               t_cutoff=tcut, q_cutoff=qcut)
        assert prod.first_mismatch(one) is None


def _ratio_reference(M, m, n):
    """(q^3;q^3)_M / ((q;q)_m (q^3;q^3)_n (q^3;q^3)_d) by long division."""
    den = q_poch(m, 2) * q_poch(n, 6) * q_poch(M - 2 * n - m, 6)
    return exact_divide(q_poch(M, 6), den)


def unpacked(table):
    """The entries of a packed _ratio3 table as series."""
    w, h, entries = table
    return [unpack_series(x, w, 0, 2, signed=True) for x in entries]


def _band_width(M):
    # wider than 3M(M + 1), the largest half-unit degree of a quotient
    return 3 * M * (M + 1) + 2


@lru_cache(maxsize=None)
def band_exp(M):
    """e(m, n) = B (m + (M + 1) n) for B = _band_width(M): the fold
    _ratio4(M, band_exp(M)) puts each (m, n) quotient alone in its own
    band of B half-units.  One callable per M, so repeated requests hit
    the cache."""
    B = _band_width(M)
    return lambda m, n: B * (m + (M + 1) * n)


def bands(M, fold):
    """(m, n) -> the quotient in band m + (M + 1) n of the fold
    _ratio4(M, band_exp(M)), shifted down to q^0; only the non-empty
    bands appear."""
    out = {}
    for e, c in fold.terms.items():
        k, e = divmod(e, _band_width(M))
        n, m = divmod(k, M + 1)
        out.setdefault((m, n), {})[e] = c
    return {mn: LaurentSeries(terms) for mn, terms in out.items()}


class TestRatios:
    """The multinomial quotients, built one denominator factor at a
    time, against long division by the whole Pochhammer product: the
    packed _ratio3 table, and the _ratio4 fold read band by band."""

    def test_tables_hold_exactly_the_range(self):
        for M in range(13):
            assert len(unpacked(identities._ratio3(M))) == M // 2 + 1
            assert set(bands(M, identities._ratio4(M, band_exp(M)))) == \
                {(m, n) for n in range(M // 2 + 1)
                 for m in range(M - 2 * n + 1)}

    def test_ratio4_matches_exact_divide(self):
        for M in range(13):
            fold = identities._ratio4(M, band_exp(M))
            for (m, n), r in bands(M, fold).items():
                assert r == _ratio_reference(M, m, n), (M, m, n)

    def test_ratio3_is_ratio4_at_d_zero(self):
        clear_caches()
        for L in range(13):
            table = identities._ratio3(L)
            entries = unpacked(table)
            fold = bands(L, identities._ratio4(L, band_exp(L)))
            for n, r in enumerate(entries):
                assert r == fold[L - 2 * n, n]
                assert r == _ratio_reference(L, L - 2 * n, n)
            assert table[1] == sum(r.max_abs_coeff() for r in entries)

    @given(st.lists(st.tuples(st.sampled_from(["_ratio3", "_ratio4"]),
                              st.integers(0, 12)), min_size=1, max_size=6))
    # a _ratio3 table first built for _ratio4, then read again; and a
    # fold asked for again
    @example([("_ratio4", 9), ("_ratio3", 9), ("_ratio3", 12),
              ("_ratio4", 12), ("_ratio3", 0), ("_ratio4", 9)])
    @settings(max_examples=30, deadline=None)
    def test_any_request_order(self, requests):
        # a table or fold must not depend on what earlier requests cached
        clear_caches()
        for name, M in requests:
            if name == "_ratio3":
                entries = unpacked(identities._ratio3(M))
                table = {(M - 2 * n, n): r for n, r in enumerate(entries)}
            else:
                table = bands(M, identities._ratio4(M, band_exp(M)))
            for (m, n), r in table.items():
                assert r == _ratio_reference(M, m, n), (name, M, m, n)

    @pytest.mark.parametrize("ratio, args", [("_ratio3", (80,)),
                                             ("_ratio4", (30, band_exp(30)))])
    def test_cold_deep_request_nests_no_call_per_step(self, ratio, args):
        # 40 and 30 carried steps per column, built from empty caches with
        # the recursion limit 40 frames above the current depth
        fn = getattr(identities, ratio)
        clear_caches()
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            cold = fn(*args)
        except RecursionError:
            cold = None
        finally:
            sys.setrecursionlimit(limit)
        assert cold is not None, "a cold request nested a call per step"
        # the last carried entries have closed forms: _ratio3(80) ends at
        # (q^3;q^3)_80 / (q^3;q^3)_40, and column 0 of _ratio4(30) walks
        # down to (q^3;q^3)_30 / (q^3;q^3)_30 = 1
        if ratio == "_ratio3":
            assert unpacked(cold)[40] == \
                poch_finite(MonomialArg(1, 6 * 41), 6, 40)
        else:
            assert bands(30, cold)[0, 0] == LaurentSeries.one()


class TestPackedWalks:
    """The packed, checked walks of _ratio3 and _ratio4 against the series
    walks they replaced (dict_series.ratio3_walk and ratio4_fold)."""

    @staticmethod
    def same_table(L):
        w, h, table = identities._ratio3(L)
        walk = list(ratio3_walk(L))
        assert unpacked((w, h, table)) == walk, L
        assert h == sum(r.max_abs_coeff() for r in walk)
        assert w == slot_words(2 * h)

    def test_tables_through_90(self):
        for L in range(91):
            clear_caches()
            self.same_table(L)

    # the table's slots take one word through L = 40, two from 41, three
    # from 78 and four from 115
    @pytest.mark.parametrize("L, w", [(40, 1), (41, 2), (77, 2), (78, 3),
                                      (114, 3), (115, 4)])
    def test_table_width_edges(self, L, w):
        clear_caches()
        assert identities._ratio3(L)[0] == w
        self.same_table(L)

    @pytest.mark.parametrize("M", [39, 40, 41, 42])
    def test_folds_at_the_table_width_edge(self, M):
        clear_caches()
        for exps in ((identities._kr1_exp,), (identities._outlook2_exp,),
                     (identities._cap2_exp_a, identities._cap2_exp_b)):
            assert identities._ratio4(M, *exps) == ratio4_fold(M, *exps)

    @pytest.mark.parametrize("M", [12, 28, 29, 30, 34, 40])
    def test_fold_bound_holds(self, M):
        # the slots of the fold come from this bound: at least the sum of
        # the largest |coefficient| of every quotient, k times; from
        # M = 29 (k = 2) it measures the C_m, and it takes one word
        # through M = 30
        heights = sum(r.max_abs_coeff() for _, r in ratio4_columns(M))
        for k in (1, 2):
            assert k * heights <= identities._ratio4_bound(M, k)
            assert slot_words(identities._ratio4_bound(M, k)) == \
                (1 if M <= 30 else 2)

    def test_columns_pass_the_table_width_at_40(self):
        # the table of M = 40 has one-word slots, but the quotients down
        # its columns do not fit them: each column walked from the table
        # in its own slots widens, and gives the series walk's quotients
        clear_caches()
        w, h, table = identities._ratio3(40)
        assert w == 1
        want = dict(ratio4_columns(40))
        assert max(r.max_abs_coeff() for r in want.values()) >= 2 ** 63
        widths = set()
        for n, x in enumerate(table):
            top = 40 - 2 * n
            steps = [(top - d + 1, 3 * d) for d in range(1, top + 1)]
            for d, (y, v, _) in enumerate(walk_one_minus(
                    x, w, h.bit_length(), steps)):
                assert unpack_series(y, v, 0, 2, signed=True) == \
                    want[top - d, n]
                widths.add(v)
        assert widths == {1, 2}

    @pytest.mark.parametrize("L", [42, 45])
    def test_table_walk_started_narrow_widens(self, L):
        # _ratio3 packs the head in the slots of its bound 3^L, two words
        # here; its coefficients fit one, and a walk started there widens
        # when it must and gives the same entries
        walk = list(ratio3_walk(L))
        head = walk[0]
        assert slot_words(3 ** L) == 2 == slot_words(head.max_abs_coeff()) + 1
        out = list(walk_one_minus(pack_series(head, 1, 2), 1,
                                  head.max_abs_coeff().bit_length(),
                                  identities._ratio3_steps(L), measure=True))
        assert [unpack_series(x, v, 0, 2, signed=True) for x, v, _ in out] \
            == walk
        assert [h for _, _, h in out] == [r.max_abs_coeff() for r in walk]
        assert {v for _, v, _ in out} == {1, 2}

    @pytest.mark.parametrize("L, p", [(20, 61), (60, 181)])
    def test_changed_step_raises(self, monkeypatch, L, p):
        # the third step divides by 1 - q^p instead, p a prime above 3L:
        # no factor 1 - q^k, k <= 3L, of the quotients vanishes at a
        # primitive p-th root of unity, so that division leaves a
        # remainder, and no table is cached
        steps = identities._ratio3_steps

        def changed(L):
            out = steps(L)
            a, b, _ = out[2]
            out[2] = a, b, p
            return out
        monkeypatch.setattr(identities, "_ratio3_steps", changed)
        clear_caches()
        with pytest.raises(ValueError, match="remainder"):
            identities._ratio3(L)
        assert identities._ratio3.cache_info().currsize == 0


def pair_lhs_terms(L):
    """id -> (sign, exponents) of the six pair and dual LHS sums
    sum_n sign^n _ratio3 entry n q^(e(n)/2), one term per exponent e."""
    def binom2(x):
        return x * (x - 1) // 2
    return {
        "first_pair": (-1, [lambda n: 3 * n * n + n,
                            lambda n: 3 * n * n - n + 4 * L + 2]),
        "second_pair": (-1, [lambda n: 3 * n * n - n]),
        "third_pair": (-1, [lambda n: 3 * n * n + n]),
        "first_pair_dual": (1, [lambda n: 2 * binom2(L - 2 * n),
                                lambda n: 2 * (binom2(L - 2 * n + 1)
                                               + n + L + 1)]),
        "second_pair_dual": (1, [lambda n: 2 * binom2(L - 2 * n)]),
        "third_pair_dual": (1, [lambda n: (L - 2 * n) ** 2]),
    }


class TestRatio3Sums:
    """The pair and dual LHS add packed entries; the reference adds the
    signed, shifted series of the walk."""

    # the table takes w = slot_words(2 * sum of its heights): one word
    # through L = 40, two from L = 41 and three from L = 78.  L = 41 and
    # 77 are odd, where third_pair_dual lives on odd exponents
    @pytest.mark.parametrize("L, w", [(40, 1), (41, 2), (77, 2), (78, 3)])
    def test_lhs_across_width_edges(self, L, w):
        clear_caches()
        assert identities._ratio3(L)[0] == w
        walk = list(ratio3_walk(L))
        for id, (sign, exps) in pair_lhs_terms(L).items():
            want = LaurentSeries.sum((r if sign ** n > 0 else -r).shift(e(n))
                                     for n, r in enumerate(walk)
                                     for e in exps)
            got = compute_side(IdentityInstance(id, {"L": L}), "LHS")
            assert got == want, (id, L)


LAW_FAMILIES = [("first_pair", {}), ("second_pair", {}), ("third_pair", {}),
                ("binom_limit", {"m": 0}), ("binom_limit", {"m": 2}),
                ("binom_limit", {"m": 5}),
                ("binom_limit2", {"nu": 0, "j": 0}),
                ("binom_limit2", {"nu": 1, "j": 0}),
                ("binom_limit2", {"nu": 1, "j": 2})]


def scanned_indices(id, params, top):
    """The reference for the laws, the scan they replaced: for each window
    0..top, the first index from which members 0..30 all agree with the
    limit below it, or None if member 30 differs.  Each member is built
    once below top and truncated to each window."""
    defaults, member, target, _ = identities._LIMIT_TARGETS[id]
    p = {**defaults, **params}
    members = [member(p, n, top) for n in range(31)]
    full_limit = target(p, top)
    indices = []
    for window in range(top + 1):
        limit = full_limit.truncate(window)
        agree_from = None
        for n, value in enumerate(members):
            if value.truncate(window).first_mismatch(limit) is None:
                if agree_from is None:
                    agree_from = n
            else:
                agree_from = None
        indices.append(agree_from)
    return indices


class TestStabilization:
    def test_trivial_window(self):
        rep = verify_limit_stabilization("third_pair", window=0)
        assert rep.match
        assert rep.detail["stabilized_at"] == 0

    def test_pair_limits(self):
        for id in ("first_pair", "second_pair", "third_pair"):
            rep = verify_limit_stabilization(id, window=q(6))
            assert rep.match, id
            assert rep.detail["stabilized_at"] >= 0

    def test_binomial_limits(self):
        assert verify_limit_stabilization(
            "binom_limit", q(6), {"m": 2}).match
        assert verify_limit_stabilization(
            "binom_limit2", q(6), {"nu": 1, "j": 0}).match

    def test_unknown_target(self):
        with pytest.raises(KeyError):
            verify_limit_stabilization("thm71", 10)

    @pytest.mark.parametrize("id,params", [
        ("binom_limit", {"mm": 3}),
        ("binom_limit2", {"nu": 1, "m": 2}),
        ("third_pair", {"L": 5}),
    ])
    def test_unknown_parameter_rejected(self, id, params):
        with pytest.raises(ValueError, match="unexpected"):
            verify_limit_stabilization(id, q(6), params)

    @pytest.mark.parametrize("id,name", [("binom_limit", "m"),
                                         ("binom_limit2", "j")])
    def test_large_index_stabilizes(self, id, name):
        # members 0..30 are zero, and so differ from the limit at q^0
        rep = verify_limit_stabilization(id, 0, {name: 31})
        assert rep.match
        assert rep.detail["stabilized_at"] == 31

    @pytest.mark.parametrize("id,name", [("binom_limit", "m"),
                                         ("binom_limit2", "j")])
    def test_negative_index_rejected(self, id, name):
        with pytest.raises(ValueError, match=f"{name} >= 0"):
            verify_limit_stabilization(id, q(6), {name: -3})

    @pytest.mark.parametrize("id,params", [
        ("binom_limit", {"m": 30}),
        ("binom_limit2", {"nu": 0, "j": 30}),
    ])
    def test_index_at_search_bound_stabilizes(self, id, params):
        rep = verify_limit_stabilization(id, 0, params)
        assert rep.match
        assert rep.detail["stabilized_at"] == 30

    @pytest.mark.parametrize("id", ["first_pair", "binom_limit"])
    def test_negative_window_rejected(self, id):
        with pytest.raises(ValueError, match="window"):
            verify_limit_stabilization(id, -4)

    @pytest.mark.parametrize("id,params", LAW_FAMILIES)
    def test_law_index_matches_scan(self, id, params):
        for window, want in enumerate(scanned_indices(id, params, 40)):
            assert want is not None, window
            rep = verify_limit_stabilization(id, window, params)
            assert rep.match, (window, rep.detail)
            assert rep.detail["stabilized_at"] == want, window

    @pytest.mark.parametrize("id,params", LAW_FAMILIES)
    def test_law_holds_at_window_120(self, id, params):
        rep = verify_limit_stabilization(id, 120, params)
        assert rep.match, rep.detail

    @pytest.mark.parametrize("id,params,n,replace", [
        # member n agrees with the limit where its law has it differ
        ("third_pair", {}, 3, lambda member, target, p, n, c: target(p, c)),
        ("binom_limit", {"m": 2}, 4,
         lambda member, target, p, n, c: target(p, c)),
        # member n agrees one degree further than its law says; the
        # stabilization index does not move
        ("binom_limit2", {"nu": 1, "j": 0}, 2,
         lambda member, target, p, n, c: member(p, n + 1, c)),
    ])
    def test_member_breaking_its_law(self, monkeypatch, id, params, n,
                                     replace):
        defaults, member, target, law = identities._LIMIT_TARGETS[id]
        monkeypatch.setitem(identities._LIMIT_TARGETS, id, (
            defaults,
            lambda p, k, c: (replace(member, target, p, k, c) if k == n
                             else member(p, k, c)),
            target, law))
        rep = verify_limit_stabilization(id, q(10), params)
        assert not rep.match
        assert rep.detail["error"].startswith(f"member {n} ")


def nested_loop_hierarchy_lhs(p, c):
    """The hierarchy LHS summed over every (n_1..n_nu), i and m, with the
    m-sum of outlook1's LHS written out: the reference for the builder
    that calls it."""
    nu, L = p["nu"], p["L"]
    out = LaurentSeries.zero()
    # enumerate the inner multiplicities n_1..n_nu with N_1 <= L
    def tuples(k, budget):
        if k == 0:
            yield ()
            return
        for v in range(budget + 1):
            for rest in tuples(k - 1, budget - v):
                yield (v,) + rest
    for ns in tuples(nu, L):
        Ns = [sum(ns[k:]) for k in range(nu)]   # N_1, ..., N_nu
        n_nu = ns[-1]
        Ntot = sum(Ns)
        for i in range(L - Ns[0] + 1):
            for m in range(3 * n_nu + 1):
                if (i + m - Ntot) % 2 != 0:
                    continue
                mid_top = 2 * n_nu + (i - Ntot - m) // 2
                term = gaussian_binomial(L - Ns[0], i, 6) * \
                    gaussian_binomial(3 * n_nu, m) * \
                    gaussian_binomial(mid_top, 2 * n_nu, 6)
                if term.is_zero():
                    continue
                for j in range(1, nu):
                    top = i - sum(Ns[:j]) + ns[j - 1]
                    term = term * gaussian_binomial(top, ns[j - 1], 6)
                    if term.is_zero():
                        break
                e = m * m + 3 * (i * i + sum(N * N for N in Ns))
                out = out + term.shift(e)
    return out


class TestHierarchy:
    @pytest.mark.parametrize("nu, L_max", [(1, 9), (2, 9), (3, 9), (4, 8),
                                           (5, 8)])
    def test_matches_nested_loops(self, nu, L_max):
        for L in range(L_max + 1):
            p = {"nu": nu, "L": L}
            assert REGISTRY["hierarchy"].lhs(p, None) == \
                nested_loop_hierarchy_lhs(p, None), p

    @pytest.mark.parametrize("nu", [1, 2, 5, 40])
    def test_rhs_skips_only_zeros(self, nu):
        coef = 3 * (nu + 2) * (nu + 1) // 2
        for L in range(10):
            want = LaurentSeries.sum(
                round_trinomial(TrinomialParams(
                    L, (nu + 2) * j, (nu + 2) * j, step=6)).shift(
                    2 * (coef * j * j + j)) for j in range(-L, L + 1))
            assert REGISTRY["hierarchy"].rhs({"nu": nu, "L": L}, None) \
                == want, L

    def test_deep_nu(self):
        # the enumeration must not take one stack frame per level
        inst = IdentityInstance("hierarchy", {"nu": 1500, "L": 1})
        assert verify_identity(inst).match

    @pytest.mark.parametrize("nu", [1, 2, 3, 4, 7])
    def test_tuples_are_the_feasible_ones(self, nu):
        for L in range(9):
            want = {Ns[::-1] for Ns in combinations_with_replacement(
                range(L + 1), nu) if Ns[-1] + sum(Ns) <= L}
            got = list(identities._hierarchy_tuples(nu, L))
            # each is cut after its first 0; the rest of it is zero
            full = [Ns + (0,) * (nu - len(Ns)) for Ns in got]
            assert len(full) == len(set(full)) and set(full) == want, L
            assert all(0 not in Ns[:-1] for Ns in got)

    @pytest.mark.parametrize("nu, L", [(40, 6), (300, 2), (60, 12)])
    def test_wide_nu(self, nu, L):
        inst = IdentityInstance("hierarchy", {"nu": nu, "L": L})
        assert verify_identity(inst).match


class TestEmpiricalPositivity:
    """Exploratory: the bounded double-sum sides look coefficientwise
    non-negative at desk scale; recorded as observation, not theorem."""

    def test_thm71_and_fincap2m_lhs_nonnegative(self):
        for id in ("thm71", "fincap2m"):
            for M in range(9):
                side = compute_side(IdentityInstance(id, {"M": M}), "LHS")
                assert all(c >= 0 for c in side.terms.values()), (id, M)

"""Exact sums of products of Gaussian binomials, built as one packed sum
(``qblocks.gaussian_sum`` and the Bailey LHS), against the series
constructions they replaced: products of ``gaussian_binomial`` series
added with ``LaurentSeries.sum``, and ``every_term_bailey_sides``.

The slot width of a packed sum comes from a bound taken before anything
is packed; the width-edge tests pin, for each builder, the smallest size
whose sum takes two-word slots, and check that side there.
"""

from itertools import accumulate

import pytest
from hypothesis import example, given, settings, strategies as st

from qtrin import identities, qblocks
from qtrin.identities import (IdentityInstance, _cap2_exp_a, _cap2_exp_b,
                              _hierarchy_tuples, _kr1_exp, clear_caches,
                              compute_side)
from qtrin.qblocks import gaussian_binomial, gaussian_sum
from qtrin.series import LaurentSeries
from qtrin.trinomials import RefinedTParams, refined_trinomial

from test_identities import every_term_bailey_sides


# -- the series constructions, as the builders made them before ------------

def product_sum(terms):
    """sum c q^(e/2) prod [top, bottom]_{q_step} (times the inner sum of a
    four-element term), one series product at a time."""
    parts = []
    for c, e, factors, *inner in terms:
        p = LaurentSeries.one() if not inner else product_sum(inner[0])
        for top, bottom, step in factors:
            p = p * gaussian_binomial(top, bottom, step)
        parts.append(p.scale_coeffs(c).shift(e))
    return LaurentSeries.sum(parts)


def refined_reference(L, M, a, b, step):
    parts = []
    for n in range(M + 1):
        if (L - a - n) % 2:
            continue
        up, down = M + b + (L - a - n) // 2, M - b + (L + a - n) // 2
        parts.append((gaussian_binomial(M, n, step)
                      * gaussian_binomial(up, M + b, step)
                      * gaussian_binomial(down, M - b, step)
                      ).shift(n * n * step // 2))
    return LaurentSeries.sum(parts)


def outlook1_lhs_reference(L, M):
    return LaurentSeries.sum(
        (gaussian_binomial(3 * M, m)
         * gaussian_binomial(2 * M + (L - m) // 2, 2 * M, 6)).shift(m * m)
        for m in range(L % 2, 3 * M + 1, 2))


def outlook1_rhs_reference(L, M):
    return LaurentSeries.sum(
        refined_reference(L, M, j, j, 6).shift(3 * j * j + 2 * j)
        for j in range(-L - M - 1, L + M + 2))


def mn_reference(N, k, e):
    return LaurentSeries.sum(
        (gaussian_binomial(3 * d + k, m)
         * gaussian_binomial(2 * d + n + k // 2, n, 6)).shift(e(m, n))
        for n in range(N // 2 + 1) for m in range(N - 2 * n + 1)
        for d in (N - 2 * n - m,))


def hierarchy_lhs_reference(nu, L):
    parts = []
    for Ns in _hierarchy_tuples(nu, L):
        ns = [N - M for N, M in zip(Ns, Ns[1:] + (0,))]
        heads = list(accumulate(Ns))
        for i in range(heads[-1], L - Ns[0] + 1):
            term = outlook1_lhs_reference(i - heads[-1], ns[-1]) \
                * gaussian_binomial(L - Ns[0], i, 6)
            for n, head in zip(ns, heads[:-1]):
                term = term * gaussian_binomial(i - head + n, n, 6)
            parts.append(term.shift(3 * (i * i + sum(N * N for N in Ns))))
    return LaurentSeries.sum(parts)


def binomial_rhs_reference(top, bottom, exps, js):
    """sum_j [top(M), bottom(j)]_{q^3} q^(e(j)/2) over e in exps."""
    return LaurentSeries.sum(gaussian_binomial(top, bottom(j), 6).shift(e(j))
                             for j in js for e in exps)


REFERENCES = {
    ("thm71", "RHS"): lambda M: binomial_rhs_reference(
        2 * M, lambda j: M + j, [lambda j: 2 * (3 * j * j + j)],
        range(-M, M + 1)),
    ("thm72", "RHS"): lambda M: binomial_rhs_reference(
        2 * M, lambda j: M + j, [lambda j: 2 * (3 * j * j - 2 * j),
                                 lambda j: 2 * (3 * j * j + j)],
        range(-M, M + 1)),
    ("fincap2m", "RHS"): lambda M: binomial_rhs_reference(
        2 * M + 1, lambda j: M - j, [lambda j: 2 * (3 * j * j + 2 * j)],
        range(-M - 1, M + 1)),
    ("fincap1n", "LHS"): lambda N: mn_reference(N, 0, _kr1_exp),
    ("fincap2n", "LHS"): lambda N: mn_reference(N, 2, _cap2_exp_a)
    + mn_reference(N, 0, _cap2_exp_b),
}


# -- slot widths ------------------------------------------------------------

@pytest.fixture
def widths(monkeypatch):
    """The slot words of every packed_sum that a Gaussian sum or the Bailey
    LHS hands its products to."""
    seen = []
    kernel = qblocks.packed_sum

    def spy(parts, w, stride, signed=False):
        seen.append(w)
        return kernel(parts, w, stride, signed)
    monkeypatch.setattr(qblocks, "packed_sum", spy)
    monkeypatch.setattr(identities, "packed_sum", spy)
    return seen


def _width(widths, build):
    """The slot words of the one packed sum that build makes, and what it
    built."""
    widths.clear()
    out = build()
    assert len(widths) == 1
    return widths[0], out


# (id, side, parameters of the edge, the same one size down, the size
# parameter): the smallest sizes whose sum takes two-word slots
EDGES = [
    ("t0_sum", "LHS", {"L": 35, "a": -3}, "L"),
    ("t1_sum", "LHS", {"L": 35, "a": 0}, "L"),
    ("tm1_sum", "LHS", {"L": 35, "a": 5}, "L"),
    ("t0_sum", "RHS", {"L": 38, "a": 0}, "L"),
    ("t1_sum", "RHS", {"L": 37, "a": -3}, "L"),
    ("tm1_sum", "RHS", {"L": 37, "a": 0}, "L"),
    ("thm71", "RHS", {"M": 36}, "M"),
    ("thm72", "RHS", {"M": 35}, "M"),
    ("fincap2m", "RHS", {"M": 35}, "M"),
    ("fincap1n", "LHS", {"N": 45}, "N"),
    ("fincap2n", "LHS", {"N": 44}, "N"),
]


def _reference(id, side, p):
    if id.endswith("_sum"):
        kind = {"t0_sum": 0, "t1_sum": 1, "tm1_sum": -1}[id]
        lhs, rhs = every_term_bailey_sides(
            kind, {p["a"]: LaurentSeries.one()}, p["L"], 2)
        return lhs if side == "LHS" else rhs
    return REFERENCES[id, side](*p.values())


class TestWidthEdges:
    @pytest.mark.parametrize("id, side, p, size", EDGES,
                             ids=[f"{e[0]}-{e[1]}" for e in EDGES])
    def test_first_two_word_sum(self, widths, id, side, p, size):
        clear_caches()
        below = {**p, size: p[size] - 1}
        assert _width(widths, lambda: compute_side(
            IdentityInstance(id, below), side))[0] == 1
        w, got = _width(widths, lambda: compute_side(
            IdentityInstance(id, p), side))
        assert w == 2
        assert got == _reference(id, side, p)

    @pytest.mark.parametrize("side, reference", [
        ("LHS", outlook1_lhs_reference), ("RHS", outlook1_rhs_reference)])
    def test_outlook1(self, widths, side, reference):
        for n, want in ((23, 1), (24, 2)):
            w, got = _width(widths, lambda: compute_side(
                IdentityInstance("outlook1", {"L": n, "M": n}), side))
            assert w == want
        assert got == reference(24, 24)

    def test_refined_trinomial(self, widths):
        for n, want in ((24, 1), (25, 2)):
            w, got = _width(widths, lambda: refined_trinomial(
                RefinedTParams(n, n, 0, 0, 6)))
            assert w == want
        assert got == refined_reference(25, 25, 0, 0, 6)

    def test_hierarchy(self, widths):
        # the inner sums over m are outlook1's LHS, each multiplied by the
        # binomials of its (N, i) once
        for L, want in ((44, 1), (45, 2)):
            w, got = _width(widths, lambda: compute_side(
                IdentityInstance("hierarchy", {"nu": 1, "L": L}), "LHS"))
            assert w == want
        assert got == hierarchy_lhs_reference(1, 45)

    @pytest.mark.parametrize("kind", [0, 1, -1])
    @pytest.mark.parametrize("a", [-3, 0, 5])
    def test_t_sums_past_the_row_edge(self, widths, kind, a):
        # rows 40 and 41 take two-word slots, and the sum does too: the
        # one-word entries of rows below 40 are repacked into it
        id = {0: "t0_sum", 1: "t1_sum", -1: "tm1_sum"}[kind]
        clear_caches()
        p = {"L": 41, "a": a}
        for side in ("LHS", "RHS"):
            w, got = _width(widths, lambda: compute_side(
                IdentityInstance(id, p), side))
            assert w == 2
            assert got == _reference(id, side, p)


# -- the slot bound ---------------------------------------------------------

def factors(steps):
    """Up to three (top, bottom, step), now and then out of range."""
    return st.lists(st.integers(-1, 80).flatmap(
        lambda top: st.tuples(st.just(top), st.integers(-1, top + 1),
                              st.sampled_from(steps))), max_size=3)


@st.composite
def gaussian_terms(draw):
    """Terms (c, e, factors) of binomials with tops up to 80, some out of
    range, all in base q, all in base q^3, or mixed (spread 3-fold on the
    q grid); shifts and signs of any class, and now and then a term with
    an inner sum of positive coefficients in one class mod 6."""
    steps = draw(st.sampled_from([[2], [6], [2, 6]]))
    coeff = st.sampled_from([1, 1, -1, 3, -7])
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        term = (draw(coeff), draw(st.integers(-40, 40)), draw(factors(steps)))
        if draw(st.integers(0, 3)) == 0:
            r = draw(st.integers(-10, 10))
            term += ([(draw(st.sampled_from([1, 2])),
                       r + 6 * draw(st.integers(-5, 5)), draw(factors(steps)))
                      for _ in range(draw(st.integers(0, 3)))],)
        terms.append(term)
    return terms


class TestSlotBound:
    @given(gaussian_terms())
    # [80, 40] has a middle coefficient of 69 bits: two-word slots
    @example([(1, 0, [(80, 40, 2)])])
    @example([(-1, 3, [(80, 40, 6)]), (1, 0, [(80, 41, 2)])])
    # a product bound of 145 bits: three-word slots
    @example([(1, 0, [(80, 40, 2), (80, 40, 6)]), (-3, 1, [(70, 30, 2)])])
    # eighteen one-word products whose sum takes two-word slots
    @example([(1, 2 * j, [(70, 35, 2)]) for j in range(18)])
    @example([(1, 5, [(40, 20, 6)], [(1, 1, [(80, 40, 2)]),
                                     (2, 5, [(30, 15, 6)])])])
    @settings(deadline=None)
    def test_matches_series_products(self, terms):
        assert gaussian_sum(terms) == product_sum(terms)

    @pytest.mark.parametrize("terms, w", [
        ([(1, 0, [(80, 40, 2)])], 2),
        ([(1, 0, [(80, 40, 2), (80, 40, 6)])], 3),
        ([(1, 2 * j, [(70, 35, 2)]) for j in range(17)], 1),
        ([(1, 2 * j, [(70, 35, 2)]) for j in range(18)], 2),
    ])
    def test_widths_of_the_pinned_examples(self, widths, terms, w):
        w_got, got = _width(widths, lambda: gaussian_sum(terms))
        assert w_got == w
        assert got == product_sum(terms)

    def test_inner_sum_checks(self):
        with pytest.raises(ValueError, match="positive"):
            gaussian_sum([(1, 0, [], [(-1, 0, [(3, 1, 2)])])])
        with pytest.raises(ValueError, match="class"):
            gaussian_sum([(1, 0, [], [(1, 0, [(3, 1, 2)]),
                                      (1, 1, [(3, 1, 2)])])])

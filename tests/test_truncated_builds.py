"""Builds below a cutoff against the exact builds.

Limit stabilization builds each family member only below its window.
Every truncated build must equal the exact build truncated at the same
cutoff, the recorded cutoff included (``LaurentSeries.__eq__`` compares
it), and the stabilization indices must stay as they were when the
family members were built exactly.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from qtrin.identities import REGISTRY, verify_limit_stabilization
from qtrin.qblocks import gaussian_binomial
from qtrin.trinomials import (TrinomialParams, round_trinomial,
                              round_trinomial_sum)


@given(st.integers(-1, 15), st.integers(-1, 16), st.sampled_from([1, 2, 6]),
       st.integers(-3, 60))
@example(15, 7, 1, 0)       # cutoff 0: only the constant term
@example(4, 2, 6, -1)       # negative cutoff: the zero series
@settings(max_examples=200, deadline=None)
def test_gaussian_binomial_below_cutoff(top, bottom, step, cutoff):
    want = gaussian_binomial(top, bottom, step).truncate(cutoff)
    assert gaussian_binomial(top, bottom, step, cutoff=cutoff) == want


@given(st.integers(0, 8), st.integers(-9, 9), st.integers(-10, 10),
       st.sampled_from([2, 6]), st.integers(-60, 120))
@example(8, 2, -10, 6, -40)     # b < a: Laurent terms below zero
@settings(max_examples=200, deadline=None)
def test_round_trinomial_below_cutoff(L, a, b, step, cutoff):
    p = TrinomialParams(L, b, a, step)
    assert round_trinomial_sum(L, step, [(b, a, 0)], cutoff) == \
        round_trinomial(p).truncate(cutoff)


@pytest.mark.parametrize("id", ["first_pair", "second_pair", "third_pair"])
@given(L=st.integers(0, 9), cutoff=st.integers(-3, 200))
@settings(max_examples=40, deadline=None)
def test_pair_rhs_below_cutoff(id, L, cutoff):
    rhs = REGISTRY[id].rhs
    assert rhs({"L": L}, cutoff) == rhs({"L": L}, None).truncate(cutoff)


# Recorded with every member built exactly and then truncated.
@pytest.mark.parametrize("id,params,index", [
    ("first_pair", {}, 5),
    ("second_pair", {}, 11),
    ("third_pair", {}, 5),
    ("binom_limit", {"m": 2}, 12),
    ("binom_limit", {"m": 5}, 15),
    ("binom_limit2", {"nu": 0, "j": 0}, 10),
    ("binom_limit2", {"nu": 1, "j": 2}, 12),
])
def test_stabilization_indices_pinned(id, params, index):
    rep = verify_limit_stabilization(id, window=20, params=params)
    assert rep.match
    assert rep.detail["stabilized_at"] == index

"""Every registry schema under hypothesis.

Each identity id has a strategy of small parameters and, for a truncated
id, a cutoff.  The ranges reach a little past the schema (negative
sizes, a negative cutoff), so the test also sees instances the schema
rejects; every instance it accepts must match.  The table must cover
every id, so a new id without a strategy fails here.
"""

import pytest
from hypothesis import given, settings, strategies as st

from qtrin.identities import (REGISTRY, IdentityInstance, _resolve,
                              verify_identity)


def exact(**ranges):
    """Parameters drawn from inclusive integer ranges; no cutoff."""
    return st.tuples(st.fixed_dictionaries(
        {k: st.integers(lo, hi) for k, (lo, hi) in ranges.items()}),
        st.none())


def truncated(top, **ranges):
    """Parameters as in ``exact`` and a cutoff from -1 to ``top``
    (half-units)."""
    return st.tuples(st.fixed_dictionaries(
        {k: st.integers(lo, hi) for k, (lo, hi) in ranges.items()}),
        st.integers(-1, top))


SCHEMAS = {
    "first_pair": exact(L=(-1, 6)),
    "second_pair": exact(L=(-1, 6)),
    "third_pair": exact(L=(-1, 6)),
    "first_pair_dual": exact(L=(-1, 6)),
    "second_pair_dual": exact(L=(-1, 6)),
    "third_pair_dual": exact(L=(-1, 6)),
    "t0_sum": exact(L=(-1, 5), a=(-7, 7)),
    "t1_sum": exact(L=(-1, 5), a=(-7, 7)),
    "tm1_sum": exact(L=(-1, 5), a=(-7, 7)),
    "bmo_transform": exact(L=(-1, 5), a=(-7, 7)),
    "binom_shift": exact(L=(-1, 8), i=(-1, 10)),
    "thm71": exact(M=(-1, 4)),
    "thm72": exact(M=(-1, 4)),
    "fincap2m": exact(M=(-1, 4)),
    "fincap1n": exact(N=(-1, 5)),
    "fincap2n": exact(N=(-1, 5)),
    "kr1": truncated(80),
    "cap2": truncated(80),
    "outlook2": truncated(80),
    "q_binomial_theorem": truncated(40, a_sign=(-1, 1), a_exp=(-1, 4),
                                    z_sign=(-1, 1), z_exp=(0, 4)),
    "q_exponential": truncated(40, z_sign=(-1, 1), z_exp=(0, 4)),
    "jtp": truncated(40, z_sign=(-1, 1), z_exp=(-2, 2)),
    "poch_reversal": exact(n=(-1, 8)),
    "genfun_products": truncated(16, pair=(0, 3), t_cutoff=(-1, 4)),
    "lemma_genfun": truncated(16, n=(-5, 5), t_cutoff=(-1, 4)),
    "outlook1": exact(L=(-1, 4), M=(-1, 2)),
    "hierarchy": exact(nu=(0, 3), L=(-1, 3)),
}


def test_every_id_has_a_strategy():
    assert set(SCHEMAS) == set(REGISTRY)


@pytest.mark.parametrize("id", sorted(SCHEMAS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_accepted_instances_match(id, data):
    params, cutoff = data.draw(SCHEMAS[id])
    inst = IdentityInstance(id, params, cutoff)
    try:
        _resolve(inst)
    except ValueError:
        return                      # rejected by the schema
    rep = verify_identity(inst)
    assert rep.match, (params, cutoff, rep.first_mismatch)

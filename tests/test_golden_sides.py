"""Pinned side values: one small instance of every registry id, and the
Capparelli chain columns.

The other tests check that LHS equals RHS; these check that each side
still has the value it had when the digests were recorded, so a refactor
of a side builder cannot change both sides in step unnoticed.  A digest
is the sha256 of the repr of both sides' sorted terms and cutoffs.
"""

import hashlib

import pytest

from qtrin.identities import REGISTRY, IdentityInstance, compute_side
from qtrin.partitions import VARIANTS, capparelli_chain
from qtrin.series import LaurentSeries


def q(k):
    return 2 * k


CASES = [
    IdentityInstance("first_pair", {"L": 4}),
    IdentityInstance("second_pair", {"L": 4}),
    IdentityInstance("third_pair", {"L": 4}),
    IdentityInstance("first_pair_dual", {"L": 4}),
    IdentityInstance("second_pair_dual", {"L": 4}),
    IdentityInstance("third_pair_dual", {"L": 4}),
    IdentityInstance("t0_sum", {"L": 5, "a": 2}),
    IdentityInstance("t1_sum", {"L": 5, "a": -1}),
    IdentityInstance("tm1_sum", {"L": 5, "a": -3}),
    IdentityInstance("bmo_transform", {"L": 4, "a": 1}),
    IdentityInstance("binom_shift", {"L": 5, "i": 2}),
    IdentityInstance("thm71", {"M": 3}),
    IdentityInstance("thm72", {"M": 3}),
    IdentityInstance("fincap2m", {"M": 3}),
    IdentityInstance("fincap1n", {"N": 4}),
    IdentityInstance("fincap2n", {"N": 4}),
    IdentityInstance("kr1", {}, q(30)),
    IdentityInstance("cap2", {}, q(30)),
    IdentityInstance("outlook2", {}, q(30)),
    IdentityInstance("q_binomial_theorem",
                     {"a_sign": 1, "a_exp": 2, "z_sign": -1, "z_exp": 2},
                     q(20)),
    IdentityInstance("q_exponential", {"z_sign": 1, "z_exp": 1}, q(20)),
    IdentityInstance("jtp", {"z_sign": -1, "z_exp": 1}, q(20)),
    IdentityInstance("poch_reversal", {"n": 5}),
    IdentityInstance("genfun_products", {"pair": 1, "t_cutoff": 4}, q(8)),
    IdentityInstance("lemma_genfun", {"n": 2, "t_cutoff": 4}, q(8)),
    IdentityInstance("outlook1", {"L": 3, "M": 2}),
    IdentityInstance("hierarchy", {"nu": 2, "L": 3}),
]

CHAIN_COLUMNS = ("congruence", "difference", "product", "double_sum")

# Recorded before the Capparelli columns and the T-summations were
# rebuilt on the shared registry and Bailey-transform builders;
# lemma_genfun from the two sides verify_lemma31 compared before the
# lemma became a registry id.
SIDE_DIGESTS = {
    "first_pair":
        "687612948247f906136c7bb6d7ea8ef73747d829992a617deb15093b571fa8a3",
    "second_pair":
        "fb3c0586596ddeaf9cb31d77822a7916528a5acdd8974b5abbce6c1ecfe101a2",
    "third_pair":
        "3d959d1d4094e591f27ccdf407dcebd8020585c87bac352031b838bcaddfed60",
    "first_pair_dual":
        "f8cf0e53c5712f55194a2d9847ed5cde335f4c1162bb693a81476def237ae546",
    "second_pair_dual":
        "ae6a8eaed711657b3eaeaca0c29cf7163e409708898315f01238b838c720d965",
    "third_pair_dual":
        "5ad1564a4b1af57b87d4c761d1a99cdc6a80662d2169ce134a9245f08ea9a1b0",
    "t0_sum":
        "13c996050fcf7ab6f94eac5ed972bc47d256453e16b50180f8d2dadfd47f42f5",
    "t1_sum":
        "cd703603d741b8245ec618cb4e732c0e60c86d6fff95c210787031dd1fabbe44",
    "tm1_sum":
        "eed6fd81c20f1ba69c74668a62ee2d8b480ca1d274c0bc4d60effb20b89d4e58",
    "bmo_transform":
        "8d515dcaf9abdbf8f89d9f63c49c9e8b10924052c7898124c4174641132fcb99",
    "binom_shift":
        "a37d6e5a3c72a238bef8c32dca3537a36e2e1d3e8d6d73ab12516814433a892e",
    "thm71":
        "b2d8082ff87f2372adb94ac005a3ef0aeba9409fced341c15b3b63279f18a001",
    "thm72":
        "1d9eebbdfa5ac64e4717afa36e097e176eec2480c84fede4015d2eab3253d6f6",
    "fincap2m":
        "fea24fc3d081e661b77711354e4490b5cc6a87a506aa894ee823305bd6fb84b1",
    "fincap1n":
        "1cdbb51af2bdc349b9c6f25172aa16d7898e40b1ca704bb512f6fc16721ea68b",
    "fincap2n":
        "4a2c8e54de5d653b922891c21e49bb4bec2b20ab604d9683b07892a84b633b45",
    "kr1":
        "116be3f3f1cf43c72fe3a08fc9a8893c3296b7d3bd5191b36e0c0c242cdd775e",
    "cap2":
        "a01d8975dae7c2defe7545a0b85106cdd418ba175d86ed4a9bebe36c6b9dc4f4",
    "outlook2":
        "c5866a1d305c961571f0265518ddba5ea6f6d6b6df824f7c3945101c852d1cc3",
    "q_binomial_theorem":
        "bd79095e7d14e6dcba279d25da4f95b248782622bcaf0afc85b3bf16da64d24b",
    "q_exponential":
        "2b5693e5a7901ec204678ef3e4b8b97de9768fe1d092d3611de8e376fd297adb",
    "jtp":
        "e65b806a38fdc159c397fa3023f046d7c827c837361fff393151f7cd11ccf976",
    "poch_reversal":
        "5aca52e4df7d390d6a42d774ee401e95d0fc93182584b4bed8fde30feff2042d",
    "genfun_products":
        "44fa11f788489e1c28f343f91cb9edc7f5f81f4d9df0f0f7fbe969a35e9c6010",
    "lemma_genfun":
        "c6e3226c49a5e12c7c01a6090e826696ba764d4990dd57c79753549ac76322d1",
    "outlook1":
        "2c2047a9ad78589be7be7ed62ea26b3a8c63df33b5198b855f991c52f623ba01",
    "hierarchy":
        "f98a4fd49623eebaf4ebfb6696aaa66fd5ab2192a06f15f690ca607016eb9339",
}

# The four columns agree (that is the chain), so one digest per variant.
CHAIN_DIGESTS = {
    "first":
        "7477d9761c601f805611216287fbf47e0fe71392bcdfa2dae4f151c06e145e68",
    "second":
        "230d5fae46611ace3670b439e4f1a036def423339aad238e328635bd29d4ba76",
}


def _canonical(side):
    if isinstance(side, LaurentSeries):
        return (tuple(sorted(side.terms.items())), side.cutoff)
    return (tuple(sorted((k, _canonical(s)) for k, s in side.entries.items())),
            side.t_cutoff, side.q_cutoff)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def sides_digest(inst: IdentityInstance) -> str:
    return _digest((_canonical(compute_side(inst, "LHS")),
                    _canonical(compute_side(inst, "RHS"))))


def test_every_registry_id_is_pinned():
    assert sorted(inst.id for inst in CASES) == sorted(REGISTRY)
    assert sorted(SIDE_DIGESTS) == sorted(REGISTRY)


@pytest.mark.parametrize("inst", CASES, ids=lambda inst: inst.id)
def test_sides_unchanged(inst):
    assert sides_digest(inst) == SIDE_DIGESTS[inst.id]


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_chain_columns_unchanged(name):
    rows = capparelli_chain(30, VARIANTS[name])
    for column in CHAIN_COLUMNS:
        got = _digest([row[column] for row in rows])
        assert got == CHAIN_DIGESTS[name], column

"""Exact verification engine for q-trinomial and q-series identities,
with partition-enumeration cross-checks for the two Capparelli theorems.

Everything is exact integer arithmetic over Laurent polynomials /
truncated power series in q^(1/2), stored as dense lists on strided
exponent grids; see series.py for the layout and exponent convention.
"""

from .series import LaurentSeries, TrivariateSeries, exact_divide
from .qblocks import (MonomialArg, Q, ZERO_ARG, poch_finite, q_poch,
                      poch_infinite, inv_poch_infinite, inv_poch_series,
                      gaussian_binomial)
from .trinomials import (TrinomialParams, TParams, RefinedTParams,
                         round_trinomial, t_trinomial, refined_trinomial)
from .identities import (IdentityInstance, VerificationReport, REGISTRY,
                         identity_ids, compute_side, verify_identity,
                         bailey_sides, verify_lemma31,
                         verify_limit_stabilization, cache_sizes,
                         clear_caches)

# qtrin.partitions loads on the first read of one of its names, so a
# process that counts no partitions never imports it
_PARTITION_NAMES = frozenset({
    "CapparelliVariant", "Partition", "FIRST", "SECOND", "VARIANTS",
    "congruence_side_count", "difference_side_count",
    "difference_side_partitions", "product_coefficients",
    "doublesum_coefficients", "capparelli_chain"})


def __getattr__(name):
    if name in _PARTITION_NAMES:
        from . import partitions
        return getattr(partitions, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "1.0.0"

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
from .partitions import (CapparelliVariant, Partition, FIRST, SECOND,
                         VARIANTS, congruence_side_count,
                         difference_side_count, difference_side_partitions,
                         product_coefficients, doublesum_coefficients,
                         capparelli_chain)

__version__ = "1.0.0"

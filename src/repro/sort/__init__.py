"""Sorting substrates.

The paper treats sorting as a first-class meta-kernel:

- :mod:`repro.sort.ocs` — On-Chip Sorting with RMA (OCS-RMA, §4.4): the
  producer/consumer bucket sort running on a core group's CPEs, used for
  message generation, L2L forwarding, and two-stage destination updates.
- :mod:`repro.sort.bucket` — the sequential MPE bucketing baseline and the
  vectorized bucket partition primitive shared by the runtime.

The §5 in-place global sort (PSRS + PARADIS) is not simulated here: the
host builds each component's two access paths with one key-value sort
each (:mod:`repro.core.subgraphs`, the push sort through
:func:`repro.core.lanes.key_order`), and :mod:`repro.core.preprocessing`
prices the construction's exchange and local passes.
"""

from repro.sort.bucket import bucket_partition, mpe_bucket_sort
from repro.sort.ocs import OCSConfig, OCSResult, simulate_ocs_rma

__all__ = [
    "OCSConfig",
    "OCSResult",
    "simulate_ocs_rma",
    "bucket_partition",
    "mpe_bucket_sort",
]

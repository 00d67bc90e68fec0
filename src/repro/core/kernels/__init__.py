"""The component-kernel layer: per-component traversal kernels behind a
shared level-synchronous scheduler.

The paper's six edge components (EH2EH, E2L, L2E, H2L, L2H, L2L) each
carry their own kernel, direction policy, and message routing (§4.2–§4.4);
the 1D, 1D-with-delegates and 2D baselines (§2, Table 1) are the same
traversal with other arc placements.  This package makes that structure
first-class:

- :mod:`repro.core.kernels.base` — the :class:`ComponentKernel` contract
  (one object per component: push/pull execution, compute-rate selection,
  message routing, ledger charging); :class:`PushPullKernel`, the one
  push/pull skeleton (select or scan, charge, route, first writer wins)
  under the 1.5D kernels and the baselines' alike, each scheme supplying
  only its rates, routes and pull prerequisite; and :class:`MeshContext`,
  the mesh pricing context they charge through (cost model, kernel
  rates, supernode splits, alltoallv, receiver kernel).
- :mod:`repro.core.kernels.fifteend` — the six 1.5D kernels, keyed by
  component name in :data:`FIFTEEND_KERNELS`, and
  :class:`FifteenDContext`, the mesh context plus what only 1.5D charges
  (class masks, segmenting, the L2L two-stage path, the delegate sync,
  the parent reduction).
- :mod:`repro.core.kernels.scheduler` — :class:`LevelSyncScheduler`, the
  one densest-first sub-iteration loop every engine runs through
  (``DistributedBFS``, ``ReplayBFS``, and the 1D/2D baselines), and the
  :class:`SchedulerHost` hook surface engines implement.

Adding an engine means mounting a kernel set on the scheduler; adding a
partitioning scheme means writing the policy hooks of its kernels — the
loop, the commit, the frontier semantics, and the tracing shape are
shared.
"""

from repro.core.kernels.base import ComponentKernel, MeshContext, PushPullKernel
from repro.core.kernels.fifteend import FIFTEEND_KERNELS, FifteenDContext
from repro.core.kernels.scheduler import LevelSyncScheduler, SchedulerHost

__all__ = [
    "ComponentKernel",
    "MeshContext",
    "PushPullKernel",
    "FifteenDContext",
    "FIFTEEND_KERNELS",
    "LevelSyncScheduler",
    "SchedulerHost",
]

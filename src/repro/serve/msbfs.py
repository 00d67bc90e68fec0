"""Bit-parallel multi-source BFS (the serving layer's batch runs).

Packs up to 64 concurrent roots into a uint64 lane word per vertex and
runs them as *one* level-synchronous traversal through the shared
:class:`~repro.core.kernels.scheduler.LevelSyncScheduler` and the 1.5D
:class:`~repro.core.kernels.fifteend` kernel set — the same
:class:`~repro.core.engine.DistributedBFS` object that runs one root
(:meth:`~repro.core.engine.DistributedBFS.run_batch` beside ``run``;
``MultiSourceBFS`` is that class under its serving name).  The design
contract:

**Bit-identity.**  Lane ``l``'s parent tree is bit-identical to a
single-source run from ``roots[l]`` under the same config.  Two
properties make that hold:

1. every component picks its direction *per lane* with exactly the
   single-source §4.2 rule: one call of the scalar
   :func:`~repro.core.direction.pull_wins` per live lane, on that lane's
   integer population counts, hence the same float comparisons.  Lanes
   are grouped by chosen direction — a component executes at most one
   shared push pass and one shared pull pass per wave, so no lane is
   ever traversed in a direction its
   single-source run would not have used (push and pull pick different
   parents when a destination's arcs span ranks);
2. within a pass, lane ``l``'s arc subset is the single-source selection
   in the same deterministic order, so first-writer-per-destination
   (push) and lowest-(rank, position) winners (pull) coincide per lane.

**Amortization.**  Traffic is charged through the same
:class:`~repro.runtime.ledger.TrafficLedger` choke point.  With more
than one lane a message is a 16-byte lane word (vertex ID + 64-bit lane
mask, vs 8 bytes single-source); a batch of one is charged exactly what
its root's single-source run is, and on the host it runs as one too
(its state is a :class:`~repro.core.lanes.OneLaneState`, and each
sub-iteration is the lane's single-source one).  Overlapping frontiers collapse
per-arc messages, frontier syncs and parent reductions are priced per
batch instead of per root, and the wave count is the *max* of the
lanes' depths rather than their sum — which is why a 64-root batch
charges strictly less than 64 single-source runs combined.

The batch's result, :class:`~repro.core.metrics.MSBFSResult`, is built
once by the scheduler's wave mode and re-exported here.
"""

from __future__ import annotations

from repro.core.engine import DistributedBFS
from repro.core.lanes import MAX_LANES
from repro.core.metrics import MSBFSResult
from repro.obs.metrics import NULL_METRICS
from repro.resilience.faults import NULL_FAULTS
from repro.resilience.recovery import (
    RecoveryPolicy,
    ResilientRunResult,
    recover,
)

__all__ = [
    "MAX_BATCH_ROOTS",
    "MSBFSResult",
    "MultiSourceBFS",
    "run_batch_with_recovery",
]

#: Lane-word width: roots per batch.
MAX_BATCH_ROOTS = MAX_LANES

#: The serving name of the one 1.5D engine (its ``run_batch`` is the
#: batched entry point).
MultiSourceBFS = DistributedBFS


def run_batch_with_recovery(
    engine: DistributedBFS,
    roots,
    *,
    faults=NULL_FAULTS,
    policy: RecoveryPolicy = RecoveryPolicy(),
    metrics=NULL_METRICS,
) -> ResilientRunResult:
    """Run one batch, replaying it from scratch on injected rank crashes.

    A mid-batch crash fails only this batch: the whole batch is re-run
    (there is no per-root checkpoint inside a shared wave, so the shared
    :func:`~repro.resilience.recovery.recover` loop always restarts from
    scratch) and the aborted attempts' ledgers are merged into the final
    result so ``total_seconds`` reflects the true end-to-end cost.  Only
    ``restart`` mode is meaningful for a batch — ``degrade`` excision is
    per-root machinery.
    """
    out = recover(
        lambda resume: engine.run_batch(roots, faults=faults),
        policy=policy,
        metrics=metrics,
    )
    out.result.total_seconds = out.result.ledger.total_seconds
    return out

"""Bit-parallel multi-source BFS (the serving layer's batch engine).

Packs up to 64 concurrent roots into a uint64 lane word per vertex and
runs them as *one* level-synchronous traversal through the shared
:class:`~repro.core.kernels.scheduler.LevelSyncScheduler` and the 1.5D
:class:`~repro.core.kernels.fifteend` kernel set.  The design contract:

**Bit-identity.**  Lane ``l``'s parent tree is bit-identical to a
sequential :class:`~repro.core.engine.DistributedBFS` run from
``roots[l]`` under the same config.  Two properties make that hold:

1. every component picks its direction *per lane* with exactly the
   sequential §4.2 heuristics (same integer population counts, same
   float comparisons), and lanes are grouped by chosen direction — a
   component executes at most one shared push pass and one shared pull
   pass per wave, so no lane is ever traversed in a direction its
   sequential run would not have used (push and pull pick different
   parents when a destination's arcs span ranks);
2. within a pass, lane ``l``'s arc subset is the sequential selection in
   the same deterministic order, so first-writer-per-destination (push)
   and lowest-(rank, position) winners (pull) coincide per lane.

**Amortization.**  Traffic is charged through the same
:class:`~repro.runtime.ledger.TrafficLedger` choke point with lane-word
message sizes (16 bytes: vertex ID + lane word, vs 8 sequential):
overlapping frontiers collapse per-arc messages, frontier syncs and
parent reductions are priced per batch instead of per root, and the
wave count is the *max* of the lanes' depths rather than their sum —
which is why a 64-root batch charges strictly less than 64 sequential
runs combined.

The batch's result, :class:`~repro.core.metrics.MSBFSResult`, is built
once by the scheduler's wave mode and re-exported here.
"""

from __future__ import annotations

import numpy as np

from repro.core.direction import choose_whole_iteration_direction
from repro.core.engine import FifteenDHost
from repro.core.lanes import MAX_LANES, iter_lanes, lane_bit, lanes_word
from repro.core.metrics import IterationRecord, MSBFSResult
from repro.core.partition import (
    CLASS_CODES,
    COMPONENT_CLASSES,
    NODE_LOCAL_COMPONENTS,
    class_count,
)
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


def _class_counts(counts, cls) -> np.ndarray:
    """Per-lane population of degree class ``cls`` in a ``LaneState``
    ``[lane, class]`` count array."""
    return counts[:, CLASS_CODES[cls]].sum(axis=1)


class MultiSourceBFS(FifteenDHost):
    """Multi-source 1.5D BFS host: the batched sibling of
    :class:`~repro.core.engine.DistributedBFS`, sharing its kernels,
    context, and config — differing only in the batched scheduler hooks."""

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run_batch(self, roots, *, faults=None, trace_id=None) -> MSBFSResult:
        """Traverse up to 64 distinct roots as one batched wave sequence.

        ``faults`` forwards the scheduler's injector hook; a crash fault
        aborts the whole batch with a
        :class:`~repro.resilience.faults.RankCrashError` (recover with
        :func:`run_batch_with_recovery`, or let the service replay the
        batch from its queue).  ``trace_id`` (the request ids the batch
        serves) labels the ``msbfs`` span.
        """
        return self.scheduler.run_batch(roots, faults=faults, trace_id=trace_id)

    # ------------------------------------------------------------------
    # batched scheduler hooks (the 1.5D policy, per lane)
    # ------------------------------------------------------------------

    def begin_batch_iteration(self, ledger, lanes) -> None:
        # One exchange syncs every lane's delegated frontier bits, so the
        # populations are the union frontier's (kept by ``lanes.commit``).
        counts = lanes.frontier.counts
        self.ctx.charge_delegate_sync(
            ledger,
            class_count(counts, "E"),
            class_count(counts, "H"),
            lanes.num_lanes,
        )

    def batch_iteration_directions(self, lanes):
        if self.config.sub_iteration_direction:
            return None
        # Whole-iteration (Beamer) mode, per lane: each lane evaluates
        # the sequential heuristic on its own boolean view.
        degrees = self.part.degrees
        push_mask = np.uint64(0)
        pull_mask = np.uint64(0)
        for lane in iter_lanes(lanes.active_lane_mask):
            bit = lane_bit(lane)
            active = (lanes.active & bit) != 0
            visited = (lanes.visited & bit) != 0
            direction = choose_whole_iteration_direction(
                active, visited, degrees, self.config
            )
            if direction == "pull":
                pull_mask |= bit
            else:
                push_mask |= bit
        return push_mask, pull_mask

    def batch_component_directions(self, name, lanes):
        # Fresh per-lane ratios (§4.2) from the run's running counts: the
        # integers a popcount of each lane's class bits would give, so the
        # floats and comparisons match each lane's sequential decision
        # (a class without members reads 0, as in ``ClassState.measure``).
        src_cls, dst_cls = COMPONENT_CLASSES[name]
        sizes = self.ctx.class_state.sizes
        active_src = _class_counts(lanes.active_counts, src_cls) / max(
            sizes[src_cls], 1
        )
        unvisited_dst = (
            sizes[dst_cls] - _class_counts(lanes.visited_counts, dst_cls)
        ) / max(sizes[dst_cls], 1)
        if name in NODE_LOCAL_COMPONENTS:
            pull = active_src > self.config.local_pull_threshold
        else:
            pull = unvisited_dst < active_src * self.config.cross_pull_bias
        live = lanes.active_counts.any(axis=1)
        return lanes_word(np.flatnonzero(live & ~pull)), lanes_word(
            np.flatnonzero(live & pull)
        )

    def record_batch_activation(self, record: IterationRecord, newly) -> None:
        # (vertex, lane) activation pairs per class — the batch analogue
        # of the sequential per-class counts.
        for cls in ("E", "H", "L"):
            record.newly_activated[cls] = int(_class_counts(newly, cls).sum())

    def end_batch_iteration(self, ledger, record, lanes, newly) -> None:
        if not self.config.delayed_reduction:
            self.ctx.charge_parent_reduction(ledger, lanes.num_lanes)

    def end_batch_run(self, ledger, tracer, lanes) -> None:
        if self.config.delayed_reduction:
            with tracer.span("parent_reduction", category="phase"):
                self.ctx.charge_parent_reduction(ledger, lanes.num_lanes)


def run_batch_with_recovery(
    engine: MultiSourceBFS,
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

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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.direction import choose_whole_iteration_direction
from repro.core.engine import FifteenDHost
from repro.core.lanes import MAX_LANES, iter_lanes, lane_bit, lanes_word
from repro.core.metrics import BFSRunResult, IterationRecord
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


@dataclass
class MSBFSResult:
    """Outcome of one multi-source batch.

    Per-root views (:meth:`lane_parent`, :meth:`lane_records`,
    :meth:`per_root_result`) expose each lane as if it had been a
    sequential run; batch-level aggregates (``ledger``,
    ``total_seconds``, ``records``) price the shared traversal once.
    """

    roots: np.ndarray
    #: ``parent[lane, vertex]`` — lane ``l``'s full parent tree.
    parent: np.ndarray = field(repr=False)
    #: One aggregate record per wave.
    records: list[IterationRecord] = field(repr=False)
    #: Per wave: per-lane frontier sizes.
    lane_frontiers: list[np.ndarray] = field(repr=False)
    #: Per wave: ``{component: (push_mask, pull_mask)}`` lane groups.
    lane_directions: list[dict] = field(repr=False)
    ledger: object = field(repr=False)
    total_seconds: float = 0.0
    num_input_edges: int = 0
    metrics: object = field(default=NULL_METRICS, repr=False)

    @property
    def num_lanes(self) -> int:
        return int(self.roots.size)

    @property
    def num_waves(self) -> int:
        return len(self.records)

    @property
    def amortized_seconds(self) -> float:
        """Simulated cost per query when the batch is shared fairly."""
        return self.total_seconds / self.num_lanes

    def lane_parent(self, lane: int) -> np.ndarray:
        return self.parent[lane]

    def lane_depth(self, lane: int) -> int:
        """Levels lane ``lane`` actually ran (its sequential iteration
        count)."""
        depth = 0
        for sizes in self.lane_frontiers:
            if sizes[lane] == 0:
                break
            depth += 1
        return depth

    def lane_records(self, lane: int) -> list[IterationRecord]:
        """Lane-eye view of the wave records: one record per level the
        lane was live, with the direction *that lane* ran per component
        (matching its sequential run's records)."""
        bit = lane_bit(lane)
        out = []
        for it, sizes in enumerate(self.lane_frontiers):
            if sizes[lane] == 0:
                break
            rec = IterationRecord(index=it, frontier_size=int(sizes[lane]))
            dirs = self.lane_directions[it]
            for name, agg_dir in self.records[it].directions.items():
                if name not in dirs:
                    rec.directions[name] = agg_dir  # "-": component empty
                    continue
                push_mask, pull_mask = dirs[name]
                if int(push_mask) & int(bit):
                    rec.directions[name] = "push"
                elif int(pull_mask) & int(bit):
                    rec.directions[name] = "pull"
                else:
                    rec.directions[name] = "-"
            out.append(rec)
        return out

    def per_root_result(self, lane: int, *, share_ledger: bool = False) -> BFSRunResult:
        """A :class:`BFSRunResult`-shaped view of one lane.

        ``total_seconds`` is the amortized share of the batch.  The
        batch ledger is attached only when ``share_ledger`` — exactly
        one lane of a batch should carry it, so that summing ledgers
        across per-root results counts the shared traversal once.
        """
        from repro.runtime.ledger import TrafficLedger

        ledger = (
            self.ledger
            if share_ledger
            else TrafficLedger(self.ledger.cost_model)
        )
        return BFSRunResult(
            root=int(self.roots[lane]),
            parent=self.parent[lane],
            iterations=self.lane_records(lane),
            ledger=ledger,
            total_seconds=self.amortized_seconds,
            num_input_edges=self.num_input_edges,
            metrics=self.metrics,
        )


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
        state = self.scheduler.run_batch(roots, faults=faults, trace_id=trace_id)
        return MSBFSResult(
            roots=state.lanes.roots,
            parent=state.lanes.parent,
            records=state.records,
            lane_frontiers=state.lane_frontiers,
            lane_directions=state.lane_directions,
            ledger=state.ledger,
            total_seconds=state.ledger.total_seconds,
            num_input_edges=self.num_input_edges,
            metrics=self.metrics,
        )

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

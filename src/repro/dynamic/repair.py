"""Incremental partition repair: :class:`IncrementalGraph`.

The static pipeline (``core/partition.py``) prices a full construction —
every arc crosses the network once and is re-sorted — for *any* change.
:class:`IncrementalGraph` instead keeps a ``placement="stable"``
:class:`~repro.core.partition.PartitionedGraph` live under a stream of
:class:`~repro.dynamic.updates.UpdateBatch` deltas:

1. **Reclassification.**  Degrees are bumped and the next generation's
   vertex layout is :func:`~repro.core.partition.vertex_layout` of them,
   as in the static partition; vertices whose degree crossed
   ``h_threshold``/``e_threshold`` change class, and only *their*
   incident arcs re-place.  Stable placement makes this sound:
   an arc's component and rank are pure functions of its endpoints'
   identities and classes, so an arc moves iff an endpoint's class
   changed (or the arc itself was inserted/deleted).
2. **Delta overlays.**  Each affected component accumulates an overlay
   of pending added/dropped arcs.  Every ``compact_every`` batches (or
   on demand via :meth:`graph`) the overlay is merged into the packed
   arrays with :func:`~repro.core.subgraphs.merge_arc_delta` — a linear
   merge, not a rebuild.  Because the packed orders are value sorts of
   arc content, the merged component is bit-identical to a from-scratch
   rebuild of the same arc set; :mod:`repro.dynamic.gate` asserts this.
3. **Honest pricing.**  Every repair charges the shared
   :class:`~repro.runtime.ledger.TrafficLedger` under phase
   ``"dynamic"``, mirroring kernel 1's accounting: the delta arcs cross
   the network once (16 B each, alltoallv), the batch's endpoints take a
   degree/class pass, and each compaction streams the dirty components
   once.  :meth:`rebuild_cost_estimate` is the full-rebuild baseline,
   kernel 1's own price of the current generation
   (:func:`~repro.core.preprocessing.construction_ledger`);
   ``benchmarks/bench_dynamic_repair.py`` reports the ratio.  Each
   batch and each compaction publishes the events it charged to the
   attached registry (:meth:`~repro.runtime.ledger.TrafficLedger.publish`).

Metric families (all under the attached registry): ``dynamic_batches``,
``dynamic_updates_applied{kind}``, ``dynamic_class_migrations``,
``dynamic_arcs_migrated{component}``, ``dynamic_compactions{component}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.partition import (
    PartitionedGraph,
    partition_graph,
    place_arcs,
    vertex_layout,
)
from repro.core.preprocessing import ARC_BYTES, construction_ledger
from repro.core.subgraphs import COMPONENT_ORDER, arc_keys, member, merge_arc_delta
from repro.dynamic.updates import UpdateBatch, canonical_edges
from repro.machine.costmodel import CollectiveKind, CostModel, NodeKernelRates
from repro.machine.network import MachineSpec
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER
from repro.runtime.ledger import TrafficLedger
from repro.runtime.mesh import ProcessMesh

__all__ = ["GraphDelta", "IncrementalGraph", "RepairReport"]


@dataclass(frozen=True)
class GraphDelta:
    """The exact structural change one batch produced.

    All arc arrays are *directed* (both directions of each undirected
    edge appear).  ``moved_*`` are surviving arcs whose (component,
    rank) placement changed because an endpoint was reclassified.
    """

    inserted_src: np.ndarray
    inserted_dst: np.ndarray
    deleted_src: np.ndarray
    deleted_dst: np.ndarray
    moved_src: np.ndarray
    moved_dst: np.ndarray
    #: Vertices whose E/H/L class changed this batch.
    class_changed: np.ndarray
    #: Vertices whose adjacency or placement changed in any way — the
    #: set result caching must treat as dirty.
    touched: np.ndarray

    @property
    def num_changed_arcs(self) -> int:
        return int(
            self.inserted_src.size + self.deleted_src.size + self.moved_src.size
        )

    def is_empty(self) -> bool:
        return self.num_changed_arcs == 0


@dataclass(frozen=True)
class RepairReport:
    """Cost account of one :meth:`IncrementalGraph.apply_batch`."""

    batch_index: int
    delta: GraphDelta
    num_inserted_edges: int
    num_deleted_edges: int
    num_class_changes: int
    num_arcs_moved: int
    #: Ledger seconds charged for this batch (including any compaction
    #: it triggered).
    seconds: float
    compacted: bool


@dataclass
class _Overlay:
    """Pending per-component arc delta (adds carry their rank)."""

    add_src: list = field(default_factory=list)
    add_dst: list = field(default_factory=list)
    add_rank: list = field(default_factory=list)
    drop_src: list = field(default_factory=list)
    drop_dst: list = field(default_factory=list)

    def is_empty(self) -> bool:
        return not (self.add_src or self.drop_src)


class IncrementalGraph:
    """A :class:`PartitionedGraph` kept live under an update stream.

    Construction partitions the base edge list with
    ``placement="stable"`` (required; see :mod:`repro.core.partition`).
    :meth:`apply_batch` ingests one :class:`UpdateBatch`;
    :meth:`graph` returns the up-to-date partition (forcing a pending
    compaction first); :meth:`rebuild_reference` builds the
    from-scratch partition of the current edge set for the gate.
    """

    def __init__(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        num_vertices: int,
        mesh: ProcessMesh,
        *,
        e_threshold: int,
        h_threshold: int,
        machine: MachineSpec | None = None,
        compact_every: int = 4,
        metrics=NULL_METRICS,
        tracer=NULL_TRACER,
    ) -> None:
        if compact_every < 1:
            raise ValueError("compact_every must be >= 1")
        self.mesh = mesh
        self.num_vertices = int(num_vertices)
        self.e_threshold = int(e_threshold)
        self.h_threshold = int(h_threshold)
        self.compact_every = int(compact_every)
        self.metrics = metrics
        self.machine = (
            machine
            if machine is not None
            else (mesh.machine or MachineSpec(num_nodes=mesh.num_ranks))
        )
        self._rates = NodeKernelRates(chip=self.machine.chip)
        self.ledger = TrafficLedger(
            CostModel(self.machine), tracer=tracer, metrics=metrics
        )

        # Canonical live edge set, sorted by packed key (lo < hi).  The
        # base partition is built from the canonical set — duplicates in
        # the raw list would otherwise break the live-set invariant.
        self._edge_lo, self._edge_hi = canonical_edges(src, dst, num_vertices)
        self._part = self.rebuild_reference()

        self._overlays = {name: _Overlay() for name in COMPONENT_ORDER}
        self._batches_since_compact = 0
        self.num_batches = 0

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return int(self._edge_lo.size)

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The live canonical edge set ``(lo, hi)``, sorted by key."""
        return self._edge_lo.copy(), self._edge_hi.copy()

    def graph(self) -> PartitionedGraph:
        """A frozen snapshot of the current partition (forces a pending
        compaction first).

        :meth:`apply_batch` makes each generation a new partition object
        and compaction replaces component entries — neither writes into
        an array — so a shallow copy per call keeps a handed-out
        generation intact while the next batch is repaired (an engine
        may still be traversing it).
        """
        if any(not o.is_empty() for o in self._overlays.values()):
            self._compact()
        return replace(self._part, components=dict(self._part.components))

    def rebuild_reference(self) -> PartitionedGraph:
        """From-scratch stable partition of the live edge set (the gate's
        ground truth)."""
        return partition_graph(
            self._edge_lo,
            self._edge_hi,
            self.num_vertices,
            self.mesh,
            e_threshold=self.e_threshold,
            h_threshold=self.h_threshold,
            placement="stable",
        )

    def rebuild_cost_estimate(self) -> float:
        """Modeled seconds a full reconstruction would charge: kernel 1's
        price of the current generation, which once compacted is the
        price of :meth:`rebuild_reference`."""
        return construction_ledger(self._part, self.machine).total_seconds

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------

    def apply_batch(self, batch: UpdateBatch) -> RepairReport:
        """Ingest one batch: reclassify, stage overlays, price the work.

        Every update must be a canonical edge ``0 <= src < dst < n``; a
        batch with any other pair raises :class:`ValueError` naming the
        first one, before any state changes.
        """
        n = self.num_vertices
        bad = np.flatnonzero(
            (batch.src < 0) | (batch.src >= batch.dst) | (batch.dst >= n)
        )
        if bad.size:
            i = bad[0]
            raise ValueError(
                f"update ({batch.src[i]}, {batch.dst[i]}) is not a canonical "
                f"edge: expected 0 <= src < dst < {n}"
            )
        before_seconds = self.ledger.total_seconds
        live = arc_keys(self._edge_lo, self._edge_hi, n)

        ins = batch.op > 0
        ins_keys = np.unique(
            arc_keys(batch.src[ins], batch.dst[ins], n)
        )
        del_keys = np.unique(
            arc_keys(batch.src[~ins], batch.dst[~ins], n)
        )
        # Idempotent semantics: insert-of-present / delete-of-absent are
        # no-ops (matching updates.apply_updates).
        ins_keys = ins_keys[~member(ins_keys, live)]
        del_keys = del_keys[member(del_keys, live)]
        # A key both inserted and deleted in one batch cancels.
        both = np.intersect1d(ins_keys, del_keys, assume_unique=True)
        if both.size:
            ins_keys = np.setdiff1d(ins_keys, both, assume_unique=True)
            del_keys = np.setdiff1d(del_keys, both, assume_unique=True)

        ins_lo, ins_hi = ins_keys // n, ins_keys % n
        del_lo, del_hi = del_keys // n, del_keys % n

        # --- the next generation's vertex layout ----------------------
        old = self._part
        degrees = old.degrees.copy()
        for ends in (ins_lo, ins_hi):
            np.add.at(degrees, ends, 1)
        for ends in (del_lo, del_hi):
            np.add.at(degrees, ends, -1)
        new = replace(old, **vertex_layout(
            degrees, self.mesh, e_threshold=self.e_threshold,
            h_threshold=self.h_threshold, placement="stable",
        ))
        changed = np.flatnonzero(new.vclass != old.vclass)

        # --- the three directed-arc groups ----------------------------
        # inserted arcs place under the NEW layout, deleted arcs are
        # located under the OLD, and surviving arcs incident to a
        # reclassified vertex are re-placed under both to find movers.
        ins_s, ins_d = _both_directions(ins_lo, ins_hi)
        del_s, del_d = _both_directions(del_lo, del_hi)
        ins_comp, ins_rank = place_arcs(ins_s, ins_d, new)
        del_comp, _ = place_arcs(del_s, del_d, old)

        if changed.size:
            changed_mask = np.zeros(n, dtype=bool)
            changed_mask[changed] = True
            # Surviving incident edges = (live - deleted) touching a
            # reclassified vertex; inserted edges are already placed new.
            surv = ~member(live, del_keys)
            inc = surv & (
                changed_mask[self._edge_lo] | changed_mask[self._edge_hi]
            )
            cand_s, cand_d = _both_directions(
                self._edge_lo[inc], self._edge_hi[inc]
            )
            oc, orank = place_arcs(cand_s, cand_d, old)
            nc, nrank = place_arcs(cand_s, cand_d, new)
            moved = (oc != nc) | (orank != nrank)
            mov_s, mov_d = cand_s[moved], cand_d[moved]
            mov_old_comp = oc[moved]
            mov_new_comp, mov_new_rank = nc[moved], nrank[moved]
        else:
            mov_s = mov_d = np.array([], dtype=np.int64)
            mov_old_comp = mov_new_comp = mov_new_rank = np.array(
                [], dtype=np.int64
            )
        self._part = new

        # --- stage the overlays ---------------------------------------
        names = list(COMPONENT_ORDER)
        for i, name in enumerate(names):
            ov = self._overlays[name]
            m = del_comp == i
            self._stage_drop(ov, del_s[m], del_d[m])
            m = mov_old_comp == i
            self._stage_drop(ov, mov_s[m], mov_d[m])
            m = ins_comp == i
            self._stage_add(ov, ins_s[m], ins_d[m], ins_rank[m])
            m = mov_new_comp == i
            self._stage_add(ov, mov_s[m], mov_d[m], mov_new_rank[m])

        # --- commit the edge set --------------------------------------
        new_keys = np.setdiff1d(
            np.union1d(live, ins_keys), del_keys, assume_unique=False
        )
        self._edge_lo, self._edge_hi = new_keys // n, new_keys % n

        # --- price the repair -----------------------------------------
        delta_arcs = int(ins_s.size + del_s.size + mov_s.size)
        self._charge_batch(
            batch, delta_arcs,
            np.concatenate([ins_rank, mov_new_rank])
            if (ins_rank.size or mov_new_rank.size)
            else np.array([], dtype=np.int64),
        )

        # --- metrics ---------------------------------------------------
        m = self.metrics
        m.counter("dynamic_batches").inc()
        m.counter("dynamic_updates_applied", kind="insert").inc(ins_keys.size)
        m.counter("dynamic_updates_applied", kind="delete").inc(del_keys.size)
        m.counter("dynamic_class_migrations").inc(changed.size)
        if mov_s.size:
            moved_counts = np.bincount(mov_new_comp, minlength=len(names))
            for i, name in enumerate(names):
                if moved_counts[i]:
                    m.counter("dynamic_arcs_migrated", component=name).inc(
                        int(moved_counts[i])
                    )

        # --- compaction cadence ---------------------------------------
        self.num_batches += 1
        self._batches_since_compact += 1
        compacted = False
        if self._batches_since_compact >= self.compact_every:
            self._compact()
            compacted = True

        touched = np.unique(
            np.concatenate([ins_s, del_s, mov_s, mov_d, changed])
        )
        delta = GraphDelta(
            inserted_src=ins_s,
            inserted_dst=ins_d,
            deleted_src=del_s,
            deleted_dst=del_d,
            moved_src=mov_s,
            moved_dst=mov_d,
            class_changed=changed,
            touched=touched,
        )
        return RepairReport(
            batch_index=self.num_batches - 1,
            delta=delta,
            num_inserted_edges=int(ins_keys.size),
            num_deleted_edges=int(del_keys.size),
            num_class_changes=int(changed.size),
            num_arcs_moved=int(mov_s.size),
            seconds=self.ledger.total_seconds - before_seconds,
            compacted=compacted,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _stage_add(self, ov: _Overlay, s, d, r) -> None:
        if s.size:
            ov.add_src.append(s)
            ov.add_dst.append(d)
            ov.add_rank.append(r)

    def _stage_drop(self, ov: _Overlay, s, d) -> None:
        """Stage dropped arcs, cancelling against pending (unmerged) adds.

        An arc still sitting in the overlay's add list is not in the
        frozen base, so dropping it means removing it from the pending
        adds, not asking the merge to drop it from the base.
        """
        if not s.size:
            return
        n = self.num_vertices
        drop = arc_keys(s, d, n)
        if ov.add_src:
            add_s = np.concatenate(ov.add_src)
            add_d = np.concatenate(ov.add_dst)
            add_r = np.concatenate(ov.add_rank)
            add_keys = arc_keys(add_s, add_d, n)
            cancel = member(add_keys, np.sort(drop))
            if np.any(cancel):
                ov.add_src = [add_s[~cancel]]
                ov.add_dst = [add_d[~cancel]]
                ov.add_rank = [add_r[~cancel]]
                hit = member(drop, np.sort(add_keys[cancel]))
                s, d = s[~hit], d[~hit]
        if s.size:
            ov.drop_src.append(s)
            ov.drop_dst.append(d)

    def _compact(self) -> None:
        """Merge every dirty component's overlay into its packed arrays."""
        per_rank_items = np.zeros(self.mesh.num_ranks, dtype=np.int64)
        dirty = 0
        for name in COMPONENT_ORDER:
            ov = self._overlays[name]
            if ov.is_empty():
                continue
            dirty += 1
            comp = self._part.components[name]
            merged = merge_arc_delta(
                comp,
                add_src=_cat(ov.add_src),
                add_dst=_cat(ov.add_dst),
                add_rank=_cat(ov.add_rank),
                drop_src=_cat(ov.drop_src),
                drop_dst=_cat(ov.drop_dst),
                num_vertices=self.num_vertices,
            )
            self._part.components[name] = merged
            # The merge streams the surviving arcs once plus the overlay.
            per_rank_items += merged.arcs_per_rank
            self.metrics.counter("dynamic_compactions", component=name).inc()
            self._overlays[name] = _Overlay()
        if dirty:
            rates = self._rates
            ws = self.machine.work_scale
            max_items = int(per_rank_items.max())
            self.ledger.charge_compute(
                "dynamic",
                "merge_components",
                per_rank_items,
                rates.kernel_time(max_items, rates.message_rate(), ws),
            )
            self.ledger.publish()
        self._batches_since_compact = 0

    def _charge_batch(
        self, batch: UpdateBatch, delta_arcs: int, dest_ranks: np.ndarray
    ) -> None:
        """Price one batch: delta alltoallv + reclassify pass.

        Mirrors kernel 1's accounting: every changed arc crosses the
        network once at 16 B (an alltoallv of only the delta), and the
        batch endpoints take one degree/class kernel pass.
        """
        rates = self._rates
        ws = self.machine.work_scale
        p = self.mesh.num_ranks
        if delta_arcs:
            per_rank = np.bincount(dest_ranks, minlength=p).astype(np.float64)
            max_send = float(per_rank.max(initial=0.0)) * ARC_BYTES
            # Movers also leave their old rank; count both directions of
            # the wire, split 50/50 intra/inter as a balanced exchange
            # would.
            self.ledger.charge_collective(
                "dynamic",
                CollectiveKind.ALLTOALLV,
                p,
                max_bytes_intra=max_send * 0.5,
                max_bytes_inter=max_send * 0.5,
                total_bytes=float(delta_arcs * ARC_BYTES),
            )
        batch_items = max(int(batch.size), 1)
        per_node = np.full(p, -(-batch_items // p), dtype=np.int64)
        self.ledger.charge_compute(
            "dynamic",
            "reclassify",
            per_node,
            rates.kernel_time(
                -(-batch_items // p), rates.message_rate(), ws
            ),
        )
        self.ledger.publish()


def _both_directions(lo: np.ndarray, hi: np.ndarray):
    """Directed arc arrays for undirected edges: (lo,hi) then (hi,lo)."""
    return (
        np.concatenate([lo, hi]).astype(np.int64),
        np.concatenate([hi, lo]).astype(np.int64),
    )


def _cat(parts: list) -> np.ndarray:
    return (
        np.concatenate(parts) if parts else np.array([], dtype=np.int64)
    )

"""The six 1.5D component kernels (paper §4.2–§4.4).

Each kernel owns its component's push and pull execution, its
compute-rate selection, its message routing, and its ledger charging —
the knowledge that used to be string-keyed ``if/elif`` chains inside the
monolithic engine:

========  =================================================================
kernel    execution semantics
========  =================================================================
EH2EH     node-local 2D core; push pays the edge-aware vertex-cut balance
          factor (§5), pull runs at the segmented rate when the §4.3 plan
          is feasible.
E2L/L2E   node-local by placement; LDM-resident pull rate, no messages.
H2L       push messages travel intra-row to ``owner(dst)``; pull first
          row-allgathers the row's unvisited-L set, then routes hits.
L2H       push messages travel intra-row to the column-delegate
          intersection rank; pull routes hits the same way.
L2L       push forwards through the §4.4 two-stage (column then row)
          alltoallv; pull is batched query/reply messaging — twice the
          bytes per scanned arc and no early exit (the §2.1.2 limit).
========  =================================================================

All six charge through one :class:`FifteenDContext`, which carries the
partition, mesh, machine rates, and the supernode traffic splits; the
context also prices the per-iteration delegate frontier sync and the §5
parent reduction for the engine facade.
"""

from __future__ import annotations

import numpy as np

from repro.core.balance import vertex_cut_imbalance
from repro.core.config import BFSConfig
from repro.core.direction import ClassState
from repro.core.kernels.base import (
    EMPTY_ACTIVATION,
    ComponentKernel,
    KernelBodySpec,
    KernelRegistry,
)
from repro.core.lanes import iter_lanes, lane_bit
from repro.core.partition import PartitionedGraph, class_count
from repro.core.segmenting import plan_segmenting
from repro.core.vertexset import VertexSet, first_writers
from repro.machine.costmodel import CollectiveKind, CostModel, NodeKernelRates
from repro.machine.network import MachineSpec

__all__ = [
    "FifteenDContext",
    "FIFTEEND_KERNELS",
    "build_fifteend_kernels",
    "MESSAGE_BYTES",
    "LANE_MESSAGE_BYTES",
]

MESSAGE_BYTES = 8
#: A batched-wave message carries the 8-byte vertex ID plus the 64-bit
#: lane word, so up to 64 lanes share one message where sequential runs
#: would each send their own.
LANE_MESSAGE_BYTES = 16

#: The six 1.5D kernels, keyed by component name.
FIFTEEND_KERNELS = KernelRegistry()


class FifteenDContext:
    """Shared machine/partition state the six kernels charge through."""

    def __init__(
        self,
        part: PartitionedGraph,
        machine: MachineSpec,
        config: BFSConfig,
    ) -> None:
        self.part = part
        self.mesh = part.mesh
        self.machine = machine
        self.config = config
        self.cost = CostModel(machine)
        self.rates = NodeKernelRates(chip=machine.chip)
        self.work_scale = machine.work_scale

        self.masks = part.class_masks()
        self.class_state = ClassState(self.masks)
        self.seg_plan = plan_segmenting(part, chip=machine.chip)
        self.use_segmenting = config.segmenting and self.seg_plan.feasible

        self.num_vertices = part.num_vertices
        self.num_ranks = self.mesh.num_ranks
        self.block_bytes = -(-self.mesh.block_size(part.num_vertices) // 8)

        # Supernode (intra_frac, inter_frac) splits of the three
        # collective scopes, from the canonical mesh helper.
        self.split_global = self.mesh.group_traffic_split(
            np.arange(self.num_ranks)
        )
        self.split_row = self.mesh.group_traffic_split(self.mesh.row_ranks(0))
        self.split_col = self.mesh.group_traffic_split(self.mesh.col_ranks(0))

    # ------------------------------------------------------------------
    # shared pricing helpers
    # ------------------------------------------------------------------

    @staticmethod
    def sync_bytes(bitmap_bits: int, sparse_count: int) -> float:
        """Wire bytes of a frontier-set exchange: packed bitmap or sparse
        8-byte vertex IDs, whichever is smaller (what real implementations
        switch between)."""
        return float(min(-(-bitmap_bits // 8), sparse_count * 8))

    @staticmethod
    def sync_bytes_lanes(bitmap_bits: int, sparse_count: int, num_lanes: int) -> float:
        """Lane-word variant of :meth:`sync_bytes`: the packed bitmap
        widens by the lane count, a sparse entry carries its vertex ID
        plus the 64-bit lane word."""
        return float(
            min(-(-bitmap_bits * num_lanes // 8), sparse_count * LANE_MESSAGE_BYTES)
        )

    @staticmethod
    def split_bytes(nbytes: float, split: tuple[float, float]) -> tuple[float, float]:
        return nbytes * split[0], nbytes * split[1]

    def kernel_time(self, max_items: int, rate: float) -> float:
        return self.rates.kernel_time(max_items, rate, self.work_scale)

    def message_rate(self) -> float:
        return self.rates.message_rate(self.config.num_cgs)

    # ------------------------------------------------------------------
    # shared charging paths
    # ------------------------------------------------------------------

    def charge_row_alltoallv(
        self, name, send_msgs_per_rank, ledger, message_bytes=MESSAGE_BYTES
    ):
        """Intra-row alltoallv of fixed-size messages (H2L / L2H routing);
        batched waves pass ``message_bytes=LANE_MESSAGE_BYTES``."""
        max_bytes = float(send_msgs_per_rank.max()) * message_bytes
        intra, inter = self.split_bytes(max_bytes, self.split_row)
        ledger.charge_collective(
            name,
            CollectiveKind.ALLTOALLV,
            participants=self.mesh.cols,
            max_bytes_intra=intra,
            max_bytes_inter=inter,
            total_bytes=float(send_msgs_per_rank.sum()) * message_bytes,
        )

    def charge_l2l_alltoallv(
        self, sender_rank, dest_rank, ledger, message_bytes=MESSAGE_BYTES
    ):
        """Two-stage forwarded global alltoallv (§4.4): sender's column to
        the intersection rank, then the destination's row."""
        fwd_rank = (
            self.mesh.row_of(dest_rank) * self.mesh.cols
            + self.mesh.col_of(sender_rank)
        )
        stage1 = np.bincount(sender_rank, minlength=self.num_ranks) * message_bytes
        intra, inter = self.split_bytes(float(stage1.max()), self.split_col)
        ledger.charge_collective(
            "L2L",
            CollectiveKind.ALLTOALLV,
            participants=self.mesh.rows,
            max_bytes_intra=intra,
            max_bytes_inter=inter,
            total_bytes=float(stage1.sum()),
        )
        self.charge_receiver_kernel("L2L", fwd_rank, ledger, "forward")
        stage2 = np.bincount(fwd_rank, minlength=self.num_ranks) * message_bytes
        intra, inter = self.split_bytes(float(stage2.max()), self.split_row)
        ledger.charge_collective(
            "L2L",
            CollectiveKind.ALLTOALLV,
            participants=self.mesh.cols,
            max_bytes_intra=intra,
            max_bytes_inter=inter,
            total_bytes=float(stage2.sum()),
        )

    def charge_receiver_kernel(self, name, recv_rank_per_msg, ledger, label):
        counts = np.bincount(recv_rank_per_msg, minlength=self.num_ranks)
        seconds = self.kernel_time(int(counts.max()), self.message_rate())
        ledger.charge_compute(name, f"{label}:{name}", counts, seconds)

    # ------------------------------------------------------------------
    # per-iteration delegate sync and §5 parent reduction (engine-level
    # charges shared by the facade and the hosts)
    # ------------------------------------------------------------------

    def charge_delegate_sync(self, ledger, active):
        """Per-iteration frontier synchronization of delegated classes."""
        p = self.num_ranks
        if self.part.num_e:
            active_e = class_count(active.counts, "E")
            e_bytes = self.sync_bytes(self.part.num_e, active_e)
            intra, inter = self.split_bytes(float(e_bytes), self.split_global)
            for kind in (CollectiveKind.REDUCE_SCATTER, CollectiveKind.ALLGATHER):
                ledger.charge_collective(
                    "other", kind, p, intra, inter, total_bytes=float(e_bytes) * p
                )
        active_h = class_count(active.counts, "H")
        if self.part.num_h and self.mesh.rows > 1:
            col_bytes = self.sync_bytes(
                int(self.part.col_eh_counts.max()),
                -(-active_h // self.mesh.cols),
            )
            intra, inter = self.split_bytes(float(col_bytes), self.split_col)
            for kind in (CollectiveKind.REDUCE_SCATTER, CollectiveKind.ALLGATHER):
                ledger.charge_collective(
                    "other",
                    kind,
                    self.mesh.rows,
                    intra,
                    inter,
                    total_bytes=float(col_bytes) * self.mesh.rows,
                )
        if self.part.num_h and self.mesh.cols > 1:
            row_bytes = self.sync_bytes(
                int(self.part.row_eh_counts.max()),
                -(-active_h // self.mesh.rows),
            )
            intra, inter = self.split_bytes(float(row_bytes), self.split_row)
            for kind in (CollectiveKind.REDUCE_SCATTER, CollectiveKind.ALLGATHER):
                ledger.charge_collective(
                    "other",
                    kind,
                    self.mesh.cols,
                    intra,
                    inter,
                    total_bytes=float(row_bytes) * self.mesh.cols,
                )

    def charge_parent_reduction(self, ledger, num_lanes: int = 1):
        """Reduce delegated parent arrays to their owners (§5).

        A batched wave reduces one parent array per lane, so the bytes
        scale with ``num_lanes`` — but the collective launch overhead is
        paid once, which is part of the batch amortization.
        """
        if self.part.num_e:
            e_bytes = float(self.part.num_e) * 8 * num_lanes
            intra, inter = self.split_bytes(e_bytes, self.split_global)
            ledger.charge_collective(
                "reduce",
                CollectiveKind.REDUCE_SCATTER,
                self.num_ranks,
                intra,
                inter,
                total_bytes=e_bytes * self.num_ranks,
            )
        if self.part.num_h and self.mesh.rows > 1:
            col_bytes = float(self.part.col_eh_counts.max()) * 8 * num_lanes
            intra, inter = self.split_bytes(col_bytes, self.split_col)
            ledger.charge_collective(
                "reduce",
                CollectiveKind.REDUCE_SCATTER,
                self.mesh.rows,
                intra,
                inter,
                total_bytes=col_bytes * self.mesh.rows,
            )

    def charge_delegate_sync_lanes(self, ledger, lanes):
        """Batched-wave variant of :meth:`charge_delegate_sync`: one
        exchange syncs every lane's delegated frontier bits — lane-word
        bitmaps or sparse (id, lane-word) entries, whichever is cheaper."""
        p = self.num_ranks
        any_active = lanes.active != 0
        num_lanes = lanes.num_lanes
        if self.part.num_e:
            active_e = int(np.count_nonzero(any_active & self.masks["E"]))
            e_bytes = self.sync_bytes_lanes(self.part.num_e, active_e, num_lanes)
            intra, inter = self.split_bytes(float(e_bytes), self.split_global)
            for kind in (CollectiveKind.REDUCE_SCATTER, CollectiveKind.ALLGATHER):
                ledger.charge_collective(
                    "other", kind, p, intra, inter, total_bytes=float(e_bytes) * p
                )
        active_h = int(np.count_nonzero(any_active & self.masks["H"]))
        if self.part.num_h and self.mesh.rows > 1:
            col_bytes = self.sync_bytes_lanes(
                int(self.part.col_eh_counts.max()),
                -(-active_h // self.mesh.cols),
                num_lanes,
            )
            intra, inter = self.split_bytes(float(col_bytes), self.split_col)
            for kind in (CollectiveKind.REDUCE_SCATTER, CollectiveKind.ALLGATHER):
                ledger.charge_collective(
                    "other",
                    kind,
                    self.mesh.rows,
                    intra,
                    inter,
                    total_bytes=float(col_bytes) * self.mesh.rows,
                )
        if self.part.num_h and self.mesh.cols > 1:
            row_bytes = self.sync_bytes_lanes(
                int(self.part.row_eh_counts.max()),
                -(-active_h // self.mesh.rows),
                num_lanes,
            )
            intra, inter = self.split_bytes(float(row_bytes), self.split_row)
            for kind in (CollectiveKind.REDUCE_SCATTER, CollectiveKind.ALLGATHER):
                ledger.charge_collective(
                    "other",
                    kind,
                    self.mesh.cols,
                    intra,
                    inter,
                    total_bytes=float(row_bytes) * self.mesh.cols,
                )


def _first_writer_per_lane(hit_bits, group, vertices, parents) -> list:
    """Per-lane activations of a lane-shared arc selection.

    ``hit_bits[a]`` holds the lanes of ``group`` in which arc ``a``
    activates ``vertices[a]`` from ``parents[a]``.  Per lane with a hit:
    ``(lane, distinct vertices ascending, parent of each vertex's first
    arc in selection order)`` — the first writer per destination of that
    lane's sequential commit.
    """
    updates = []
    for lane in iter_lanes(group):
        mask = (hit_bits & lane_bit(lane)) != 0
        if not mask.any():
            continue
        uniq, first = np.unique(vertices[mask], return_index=True)
        updates.append((lane, uniq, parents[mask][first]))
    return updates


class _FifteenDKernel(ComponentKernel):
    """Shared push/pull skeleton of the six 1.5D kernels."""

    def __init__(self, ctx: FifteenDContext, comp) -> None:
        self.ctx = ctx
        self.comp = comp

    @property
    def num_arcs(self) -> int:
        return self.comp.num_arcs

    # -- per-kernel policy hooks ---------------------------------------

    def push_seconds(self, per_rank: np.ndarray, sel) -> float:
        """Compute time of the top-down sweep ``sel`` (busiest rank)."""
        raise NotImplementedError

    def pull_rate(self) -> float:
        """Arcs/second of the bottom-up kernel.

        Components whose frontier bitmap is small (the E bitmap, the
        column-H bits) enjoy the LDM-resident rate; components that must
        randomly read large local bitmaps pay the GLD-latency rate.
        """
        raise NotImplementedError

    def route_push(self, sel, ledger, record) -> None:
        """Charge the remote traffic of pushed arcs (nothing if local)."""

    def charge_pull_prereq(self, ledger, active, visited) -> None:
        """Charge remote state the pulling ranks need first (if any)."""

    def route_pull_hits(self, scan, ledger, record) -> None:
        """Charge delivery of bottom-up hits to their owners (if remote)."""

    # -- batched-wave policy hooks (lane-word message variants) ---------

    def route_push_lanes(self, sel, ledger, record) -> None:
        """Charge the remote traffic of a batched push (nothing if local)."""

    def charge_pull_prereq_lanes(self, ledger, lanes, group_lanes) -> None:
        """Charge remote state a batched pull needs first (if any)."""

    def route_pull_hits_lanes(self, scan, ledger, record) -> None:
        """Charge delivery of batched bottom-up hits (if remote)."""

    # -- vertex-program policy hooks (program-sized message variants) ---

    def route_program_push(self, sel, ledger, record, message_bytes) -> None:
        """Charge the remote traffic of pushed program messages (nothing
        if local).  One wire message per selected arc, ``message_bytes``
        wide (programs carry a value alongside the vertex ID)."""

    def route_program_pull(self, sel, ledger, record, message_bytes) -> None:
        """Charge delivery of pulled program messages (nothing if local)."""

    # -- body/commit split (the execution-backend contract) -------------
    #
    # Every path below factors into a pure *body* (an arc selection or
    # scan over the component's frozen arrays — no ledger access) and a
    # *commit* that does all charging, routing, and activation dedup on
    # the body's result.  The ``execute*`` methods chain the two; a
    # substituted backend (the layer bench's timing one) calls the same
    # two halves with a span around each, so the ledger sees an
    # identical charge sequence either way.

    def body_spec(self):
        return KernelBodySpec(component=self.comp, pull_kind="scan")

    def pull_body(self, active, visited):
        """The pure bottom-up body (L2L overrides with its query model)."""
        return self.comp.pull_scan(~visited.mask, active.mask)

    def lanes_pull_body(self, group_lanes, lanes):
        group = np.uint64(group_lanes)
        return self.comp.pull_scan_lanes(
            ~lanes.visited & group, lanes.active & group, group
        )

    def commit_push(self, sel, active, visited, ledger, record):
        ctx, name = self.ctx, self.name
        per_rank = sel.per_rank(ctx.num_ranks)
        record.scanned_arcs[name] = sel.num_arcs
        seconds = self.push_seconds(per_rank, sel)
        ledger.charge_compute(name, f"push:{name}", per_rank, seconds)
        if sel.num_arcs:
            self.route_push(sel, ledger, record)
        # Local (or post-message) update: first writer per destination in
        # deterministic component order wins.
        fresh = np.flatnonzero(~visited.mask[sel.dst])
        if fresh.size == 0:
            return EMPTY_ACTIVATION
        uniq, first = first_writers(sel.dst[fresh], visited.scratch)
        return uniq, sel.src[fresh[first]]

    def commit_pull(self, scan, active, visited, ledger, record):
        ctx, name = self.ctx, self.name
        self.charge_pull_prereq(ledger, active, visited)
        record.scanned_arcs[name] = scan.scanned_arcs
        seconds = ctx.kernel_time(int(scan.scanned_per_rank.max()), self.pull_rate())
        ledger.charge_compute(name, f"pull:{name}", scan.scanned_per_rank, seconds)
        if scan.num_hits:
            self.route_pull_hits(scan, ledger, record)
        return scan.hit_dst, scan.hit_src

    def commit_push_lanes(self, sel, group_lanes, lanes, ledger, record):
        """Commit of the lane-shared top-down sweep.

        One arc selection covers the union frontier; lane ``l``'s subset
        of the selection (arcs whose source carries bit ``l``) is exactly
        the selection of that lane's sequential run in the same order, so
        the per-lane first-writer-per-destination parents are identical.
        """
        ctx, name = self.ctx, self.name
        group = np.uint64(group_lanes)
        act_bits = lanes.active & group
        per_rank = sel.per_rank(ctx.num_ranks)
        record.scanned_arcs[name] = (
            record.scanned_arcs.get(name, 0) + sel.num_arcs
        )
        seconds = self.push_seconds(per_rank, sel)
        ledger.charge_compute(name, f"push:{name}", per_rank, seconds)
        if sel.num_arcs == 0:
            return []
        self.route_push_lanes(sel, ledger, record)
        # Per (arc, lane): fresh iff the source is active and the
        # destination unvisited in that lane.
        hit_bits = act_bits[sel.src] & ~lanes.visited[sel.dst] & group
        if not hit_bits.any():
            return []
        return _first_writer_per_lane(hit_bits, group, sel.dst, sel.src)

    def commit_pull_lanes(self, scan, group_lanes, lanes, ledger, record):
        """Commit of the lane-shared bottom-up scan (the generic grouped
        path; L2L overrides with its query/reply messaging)."""
        ctx, name = self.ctx, self.name
        group = np.uint64(group_lanes)
        self.charge_pull_prereq_lanes(ledger, lanes, group)
        record.scanned_arcs[name] = (
            record.scanned_arcs.get(name, 0) + scan.scanned_arcs
        )
        seconds = ctx.kernel_time(
            int(scan.scanned_per_rank.max()), self.pull_rate()
        )
        ledger.charge_compute(name, f"pull:{name}", scan.scanned_per_rank, seconds)
        if scan.num_messages:
            self.route_pull_hits_lanes(scan, ledger, record)
        return scan.updates

    def commit_program_push(self, program, sel, active, ledger, record):
        """Top-down program sub-iteration: the frontier's arcs in the
        same by-source CSR order (and at the same per-rank compute and
        alltoallv prices) as a BFS push, with the first-writer commit
        replaced by the program's gather → combine → apply."""
        ctx, name = self.ctx, self.name
        per_rank = sel.per_rank(ctx.num_ranks)
        record.scanned_arcs[name] = sel.num_arcs
        seconds = self.push_seconds(per_rank, sel)
        ledger.charge_compute(name, f"push:{name}", per_rank, seconds)
        if sel.num_arcs:
            self.route_program_push(
                sel, ledger, record, program.message_bytes
            )
        return program.edge_sweep(name, sel.src, sel.dst)

    def commit_program_pull(self, program, sel, candidates, active, ledger, record):
        """Bottom-up program sub-iteration: full-run scans of the
        program's candidate destinations (no early exit — a value
        combine must see every active in-neighbour), priced at the same
        pull rate as BFS."""
        ctx, name = self.ctx, self.name
        self.charge_pull_prereq(
            ledger, active, VertexSet.from_mask(~candidates, ctx.part.vclass)
        )
        record.scanned_arcs[name] = sel.scanned_arcs
        seconds = ctx.kernel_time(
            int(sel.scanned_per_rank.max()), self.pull_rate()
        )
        ledger.charge_compute(name, f"pull:{name}", sel.scanned_per_rank, seconds)
        if sel.num_arcs:
            self.route_program_pull(
                sel, ledger, record, program.message_bytes
            )
        return program.edge_sweep(name, sel.src, sel.dst)

    # -- execution ------------------------------------------------------

    def execute(self, direction, active, visited, ledger, record):
        if direction == "push":
            sel = self.comp.push_select(active)
            return self.commit_push(sel, active, visited, ledger, record)
        body = self.pull_body(active, visited)
        return self.commit_pull(body, active, visited, ledger, record)

    def execute_lanes(self, direction, group_lanes, lanes, ledger, record):
        group = np.uint64(group_lanes)
        if direction == "push":
            sel = self.comp.push_select((lanes.active & group) != 0)
            return self.commit_push_lanes(sel, group_lanes, lanes, ledger, record)
        body = self.lanes_pull_body(group_lanes, lanes)
        return self.commit_pull_lanes(body, group_lanes, lanes, ledger, record)

    def execute_program(self, program, direction, active, ledger, record):
        if direction == "push":
            sel = self.comp.push_select(active)
            return self.commit_program_push(program, sel, active, ledger, record)
        candidates = program.pull_candidates()
        sel = self.comp.pull_select(candidates, active.mask)
        return self.commit_program_pull(
            program, sel, candidates, active, ledger, record
        )


@FIFTEEND_KERNELS.register("EH2EH")
class EH2EHKernel(_FifteenDKernel):
    """The 2D core: node-local, vertex-cut balanced, segmentable."""

    def push_seconds(self, per_rank, sel):
        ctx = self.ctx
        # CPE load factor of the push vertex-cut (§5) over the selected
        # sources' run lengths.
        factor = vertex_cut_imbalance(
            sel.lens,
            ctx.machine.chip.total_cpes,
            edge_aware=ctx.config.edge_aware_balance,
        )
        return ctx.kernel_time(int(per_rank.max()), ctx.rates.local_push_rate()) * factor

    def pull_rate(self):
        # Segmented rate when the §4.3 plan is feasible and enabled.
        return self.ctx.rates.pull_rate(self.ctx.use_segmenting)


class _LocalKernel(_FifteenDKernel):
    """Node-local light components (E2L, L2E): scan + update, no messages."""

    def push_seconds(self, per_rank, sel):
        ctx = self.ctx
        return ctx.kernel_time(int(per_rank.max()), ctx.rates.local_push_rate())

    def pull_rate(self):
        return self.ctx.rates.pull_rate_segmented()


@FIFTEEND_KERNELS.register("E2L")
class E2LKernel(_LocalKernel):
    pass


@FIFTEEND_KERNELS.register("L2E")
class L2EKernel(_LocalKernel):
    pass


class _RowMessageKernel(_FifteenDKernel):
    """Intra-row messaging components (H2L, L2H)."""

    def push_seconds(self, per_rank, sel):
        # Message generation priced at the OCS-RMA rate.
        ctx = self.ctx
        return ctx.kernel_time(int(per_rank.max()), ctx.message_rate())

    def pull_rate(self):
        return self.ctx.rates.pull_rate_segmented()

    def owner_of_dst(self, dst, sender_rank) -> np.ndarray:
        """Rank receiving each message, by component semantics."""
        raise NotImplementedError

    def route_push(self, sel, ledger, record):
        ctx, name = self.ctx, self.name
        record.messages[name] = sel.num_arcs
        ctx.charge_row_alltoallv(
            name, np.bincount(sel.rank, minlength=ctx.num_ranks), ledger
        )
        recv_rank = self.owner_of_dst(sel.dst, sel.rank)
        ctx.charge_receiver_kernel(name, recv_rank, ledger, "push_recv")

    def route_pull_hits(self, scan, ledger, record):
        # hits travel intra-row to the destination's owner (H2L) or to
        # the column-delegate intersection rank (L2H).
        ctx, name = self.ctx, self.name
        record.messages[name] = scan.num_hits
        send_per_rank = np.bincount(scan.hit_rank, minlength=ctx.num_ranks)
        ctx.charge_row_alltoallv(name, send_per_rank, ledger)
        recv_rank = self.owner_of_dst(scan.hit_dst, scan.hit_rank)
        ctx.charge_receiver_kernel(name, recv_rank, ledger, "pull_recv")

    def route_push_lanes(self, sel, ledger, record):
        # One 16-byte message per selected arc carries all lanes' bits.
        ctx, name = self.ctx, self.name
        record.messages[name] = record.messages.get(name, 0) + sel.num_arcs
        ctx.charge_row_alltoallv(
            name,
            np.bincount(sel.rank, minlength=ctx.num_ranks),
            ledger,
            message_bytes=LANE_MESSAGE_BYTES,
        )
        recv_rank = self.owner_of_dst(sel.dst, sel.rank)
        ctx.charge_receiver_kernel(name, recv_rank, ledger, "push_recv")

    def route_pull_hits_lanes(self, scan, ledger, record):
        # Unique (dst, rank) winners across lanes share one message each.
        ctx, name = self.ctx, self.name
        record.messages[name] = record.messages.get(name, 0) + scan.num_messages
        send_per_rank = np.bincount(scan.msg_rank, minlength=ctx.num_ranks)
        ctx.charge_row_alltoallv(
            name, send_per_rank, ledger, message_bytes=LANE_MESSAGE_BYTES
        )
        recv_rank = self.owner_of_dst(scan.msg_dst, scan.msg_rank)
        ctx.charge_receiver_kernel(name, recv_rank, ledger, "pull_recv")

    def route_program_push(self, sel, ledger, record, message_bytes):
        # One (vertex, value) message per pushed arc, intra-row.
        ctx, name = self.ctx, self.name
        record.messages[name] = sel.num_arcs
        ctx.charge_row_alltoallv(
            name,
            np.bincount(sel.rank, minlength=ctx.num_ranks),
            ledger,
            message_bytes=message_bytes,
        )
        recv_rank = self.owner_of_dst(sel.dst, sel.rank)
        ctx.charge_receiver_kernel(name, recv_rank, ledger, "push_recv")

    def route_program_pull(self, sel, ledger, record, message_bytes):
        # Pulled (vertex, value) contributions travel the same intra-row
        # path as pull hits, one message per selected arc (no early exit
        # means no per-destination dedup before the combine).
        ctx, name = self.ctx, self.name
        record.messages[name] = sel.num_arcs
        ctx.charge_row_alltoallv(
            name,
            np.bincount(sel.rank, minlength=ctx.num_ranks),
            ledger,
            message_bytes=message_bytes,
        )
        recv_rank = self.owner_of_dst(sel.dst, sel.rank)
        ctx.charge_receiver_kernel(name, recv_rank, ledger, "pull_recv")


@FIFTEEND_KERNELS.register("H2L")
class H2LKernel(_RowMessageKernel):
    def owner_of_dst(self, dst, sender_rank):
        return self.ctx.mesh.owner_of(dst, self.ctx.num_vertices)

    def charge_pull_prereq(self, ledger, active, visited):
        # Unvisited-L state of each row, allgathered within the row
        # (bitmap or sparse IDs, whichever is cheaper on the wire).
        ctx = self.ctx
        unvisited_l = ctx.class_state.sizes["L"] - class_count(visited.counts, "L")
        row_bits = ctx.block_bytes * 8 * ctx.mesh.cols
        recv = ctx.sync_bytes(row_bits, -(-unvisited_l // ctx.mesh.rows))
        intra, inter = ctx.split_bytes(recv, ctx.split_row)
        ledger.charge_collective(
            self.name,
            CollectiveKind.ALLGATHER,
            participants=ctx.mesh.cols,
            max_bytes_intra=intra,
            max_bytes_inter=inter,
            total_bytes=recv * ctx.mesh.cols,
        )

    def charge_pull_prereq_lanes(self, ledger, lanes, group_lanes):
        # Same row allgather, but one exchange ships every lane's
        # unvisited-L bits: lane-word bitmaps or (id, lane-word) entries.
        ctx = self.ctx
        cand = (~lanes.visited & group_lanes) != 0
        unvisited_l = int(np.count_nonzero(cand & ctx.masks["L"]))
        row_bits = ctx.block_bytes * 8 * ctx.mesh.cols
        recv = ctx.sync_bytes_lanes(
            row_bits, -(-unvisited_l // ctx.mesh.rows), lanes.num_lanes
        )
        intra, inter = ctx.split_bytes(recv, ctx.split_row)
        ledger.charge_collective(
            self.name,
            CollectiveKind.ALLGATHER,
            participants=ctx.mesh.cols,
            max_bytes_intra=intra,
            max_bytes_inter=inter,
            total_bytes=recv * ctx.mesh.cols,
        )


@FIFTEEND_KERNELS.register("L2H")
class L2HKernel(_RowMessageKernel):
    def owner_of_dst(self, dst, sender_rank):
        # Messages go to the intersection rank (sender's row, the H
        # vertex's EH-space column) where the column delegate lives.
        ctx = self.ctx
        sender_row = ctx.mesh.row_of(np.asarray(sender_rank, dtype=np.int64))
        return sender_row * ctx.mesh.cols + ctx.part.eh_col[dst]


@FIFTEEND_KERNELS.register("L2L")
class L2LKernel(_FifteenDKernel):
    """Plain-1D light arcs: two-stage forwarded push, query/reply pull."""

    def push_seconds(self, per_rank, sel):
        ctx = self.ctx
        return ctx.kernel_time(int(per_rank.max()), ctx.message_rate())

    def pull_rate(self):
        # A program pull over 1D light arcs generates query/reply
        # messages (no local bitmap to scan), so the sweep is priced at
        # the message-generation rate like the native L2L pull.
        return self.ctx.message_rate()

    def route_push(self, sel, ledger, record):
        # Two-stage forwarding through the intersection rank of the
        # source's column and the destination's row (§4.4).
        ctx = self.ctx
        record.messages["L2L"] = sel.num_arcs
        o_dst = ctx.mesh.owner_of(sel.dst, ctx.num_vertices)
        ctx.charge_l2l_alltoallv(sel.rank, o_dst, ledger)
        ctx.charge_receiver_kernel("L2L", o_dst, ledger, "push_recv")

    def route_push_lanes(self, sel, ledger, record):
        ctx = self.ctx
        record.messages["L2L"] = record.messages.get("L2L", 0) + sel.num_arcs
        o_dst = ctx.mesh.owner_of(sel.dst, ctx.num_vertices)
        ctx.charge_l2l_alltoallv(
            sel.rank, o_dst, ledger, message_bytes=LANE_MESSAGE_BYTES
        )
        ctx.charge_receiver_kernel("L2L", o_dst, ledger, "push_recv")

    def route_program_push(self, sel, ledger, record, message_bytes):
        ctx = self.ctx
        record.messages["L2L"] = sel.num_arcs
        o_dst = ctx.mesh.owner_of(sel.dst, ctx.num_vertices)
        ctx.charge_l2l_alltoallv(
            sel.rank, o_dst, ledger, message_bytes=message_bytes
        )
        ctx.charge_receiver_kernel("L2L", o_dst, ledger, "push_recv")

    def route_program_pull(self, sel, ledger, record, message_bytes):
        # Query/reply economics as in BFS pull: each pulled contribution
        # costs the two-stage query plus the value-carrying reply.
        ctx = self.ctx
        record.messages["L2L"] = 2 * sel.num_arcs
        o_peer = ctx.mesh.owner_of(sel.src, ctx.num_vertices)
        ctx.charge_l2l_alltoallv(sel.rank, o_peer, ledger)
        ctx.charge_receiver_kernel("L2L", o_peer, ledger, "pull_query")
        ctx.charge_l2l_alltoallv(
            o_peer, sel.rank, ledger, message_bytes=message_bytes
        )
        ctx.charge_receiver_kernel("L2L", sel.rank, ledger, "pull_reply")

    def body_spec(self):
        return KernelBodySpec(component=self.comp, pull_kind="query")

    def pull_body(self, active, visited):
        # Scanning unvisited local sources is the destination-side pull
        # view (see :meth:`commit_pull`); no early exit.
        return self.comp.push_select(~visited.mask)

    def lanes_pull_body(self, group_lanes, lanes):
        group = np.uint64(group_lanes)
        return self.comp.push_select((~lanes.visited & group) != 0)

    def commit_pull(self, sel, active, visited, ledger, record):
        """Bottom-up L2L via batched query/reply messages.

        By edge symmetry, the arcs stored at ``owner(v)`` with source ``v``
        are exactly v's undirected incidence, so scanning unvisited local
        sources is the destination-side pull view.  Each scanned arc costs
        a query to the neighbor's owner plus a reply — twice the push
        message size per arc, which is why pull only wins once the
        unvisited population is well below the active one (the
        ``cross_pull_bias`` economics).  Batching is why "1D partitioning
        methods have to drop or limit the early exit" (§2.1.2) — every
        arc of an unvisited vertex is queried.
        """
        ctx = self.ctx
        per_rank = sel.per_rank(ctx.num_ranks)
        record.scanned_arcs["L2L"] = sel.num_arcs
        seconds = ctx.kernel_time(int(per_rank.max()), ctx.message_rate())
        ledger.charge_compute("L2L", "pull:L2L", per_rank, seconds)
        if sel.num_arcs:
            record.messages["L2L"] = 2 * sel.num_arcs
            o_peer = ctx.mesh.owner_of(sel.dst, ctx.num_vertices)
            # query path (two-stage forwarding) and the reply back.
            ctx.charge_l2l_alltoallv(sel.rank, o_peer, ledger)
            ctx.charge_receiver_kernel("L2L", o_peer, ledger, "pull_query")
            ctx.charge_l2l_alltoallv(o_peer, sel.rank, ledger)
            ctx.charge_receiver_kernel("L2L", sel.rank, ledger, "pull_reply")
        hits = np.flatnonzero(active.mask[sel.dst])
        if hits.size == 0:
            return EMPTY_ACTIVATION
        uniq, first = first_writers(sel.src[hits], visited.scratch)
        return uniq, sel.dst[hits[first]]

    def commit_pull_lanes(self, sel, group_lanes, lanes, ledger, record):
        """Batched query/reply L2L pull: one query covers every lane in
        which the source is still unvisited; lane ``l``'s hits are the
        arcs whose source carries the candidate bit and whose neighbor
        carries the active bit — the sequential rule per lane."""
        ctx = self.ctx
        group = np.uint64(group_lanes)
        cand_bits = ~lanes.visited & group
        per_rank = sel.per_rank(ctx.num_ranks)
        record.scanned_arcs["L2L"] = (
            record.scanned_arcs.get("L2L", 0) + sel.num_arcs
        )
        seconds = ctx.kernel_time(int(per_rank.max()), ctx.message_rate())
        ledger.charge_compute("L2L", "pull:L2L", per_rank, seconds)
        if sel.num_arcs:
            record.messages["L2L"] = (
                record.messages.get("L2L", 0) + 2 * sel.num_arcs
            )
            o_peer = ctx.mesh.owner_of(sel.dst, ctx.num_vertices)
            ctx.charge_l2l_alltoallv(
                sel.rank, o_peer, ledger, message_bytes=LANE_MESSAGE_BYTES
            )
            ctx.charge_receiver_kernel("L2L", o_peer, ledger, "pull_query")
            ctx.charge_l2l_alltoallv(
                o_peer, sel.rank, ledger, message_bytes=LANE_MESSAGE_BYTES
            )
            ctx.charge_receiver_kernel("L2L", sel.rank, ledger, "pull_reply")
        hit_bits = cand_bits[sel.src] & (lanes.active & group)[sel.dst]
        if not hit_bits.any():
            return []
        return _first_writer_per_lane(hit_bits, group, sel.src, sel.dst)


def build_fifteend_kernels(ctx: FifteenDContext, order) -> dict[str, ComponentKernel]:
    """Instantiate the registry's kernels over a partition's components,
    in scheduler execution order (densest first)."""
    return {
        name: FIFTEEND_KERNELS[name](ctx, ctx.part.components[name])
        for name in order
    }

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

The cost model is written once, under all three traversal modes.  A
*kernel* supplies its rates and its message path (``push_seconds``,
``pull_rate``, ``route``, ``charge_pull_prereq``); a *mode* —
single-source BFS, a 64-lane wave, a vertex program — supplies only the
width of a wire message (:func:`wire_bytes` of its lane count, which is
:data:`MESSAGE_BYTES` for one lane — a single-source run or a batch of
one alike — and :data:`LANE_MESSAGE_BYTES` for more;
``program.message_bytes``) and the rule that picks winners among the arcs the
body returned (``first_writers``, the word-parallel
``first_writer_lanes`` that claims every lane's first writer in one
pass, ``program.edge_sweep``).  Every commit passes its width to the same two
charging methods, so a kernel that overrides ``route`` is charged in
all three modes.
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
from repro.core.lanes import first_writer_lanes
from repro.core.partition import PartitionedGraph, class_count
from repro.core.segmenting import plan_segmenting
from repro.core.vertexset import first_writers
from repro.machine.costmodel import CollectiveKind, CostModel, NodeKernelRates
from repro.machine.network import MachineSpec

__all__ = [
    "FifteenDContext",
    "FIFTEEND_KERNELS",
    "build_fifteend_kernels",
    "MESSAGE_BYTES",
    "LANE_MESSAGE_BYTES",
    "wire_bytes",
]

MESSAGE_BYTES = 8
#: A batched-wave message carries the 8-byte vertex ID plus the 64-bit
#: lane word, so up to 64 lanes share one message where sequential runs
#: would each send their own.
LANE_MESSAGE_BYTES = 16


def wire_bytes(num_lanes: int) -> int:
    """Bytes of one message (or sparse sync entry) of a run with
    ``num_lanes`` lanes: one lane needs no lane word, so a batch of one
    is charged exactly what its root's single-source run is."""
    return MESSAGE_BYTES if num_lanes == 1 else LANE_MESSAGE_BYTES


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
    def sync_bytes(bitmap_bits: int, sparse_count: int, num_lanes: int = 1) -> float:
        """Wire bytes of a frontier-set exchange: packed bitmap or sparse
        entries, whichever is smaller (what real implementations switch
        between).  The bitmap has ``num_lanes`` bits per vertex, a sparse
        entry is :func:`wire_bytes` wide."""
        return float(min(
            -(-bitmap_bits * num_lanes // 8),
            sparse_count * wire_bytes(num_lanes),
        ))

    def kernel_time(self, max_items: int, rate: float) -> float:
        return self.rates.kernel_time(max_items, rate, self.work_scale)

    def message_rate(self) -> float:
        return self.rates.message_rate(self.config.num_cgs)

    # ------------------------------------------------------------------
    # shared charging paths
    # ------------------------------------------------------------------

    def _charge_alltoallv(
        self, name, send_msgs_per_rank, ledger, message_bytes, participants, split
    ):
        """One alltoallv of fixed-size messages over a row or a column:
        the busiest sender bounds the time, every sender counts in the
        bytes."""
        max_bytes = float(send_msgs_per_rank.max()) * message_bytes
        ledger.charge_collective(
            name,
            CollectiveKind.ALLTOALLV,
            participants=participants,
            max_bytes_intra=max_bytes * split[0],
            max_bytes_inter=max_bytes * split[1],
            total_bytes=float(send_msgs_per_rank.sum()) * message_bytes,
        )

    def charge_row_alltoallv(
        self, name, send_msgs_per_rank, ledger, message_bytes=MESSAGE_BYTES
    ):
        """Intra-row alltoallv of fixed-size messages (H2L / L2H routing);
        a wave passes ``message_bytes=wire_bytes(num_lanes)``."""
        self._charge_alltoallv(
            name, send_msgs_per_rank, ledger, message_bytes,
            self.mesh.cols, self.split_row,
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
        self._charge_alltoallv(
            "L2L", np.bincount(sender_rank, minlength=self.num_ranks),
            ledger, message_bytes, self.mesh.rows, self.split_col,
        )
        self.charge_receiver_kernel("L2L", fwd_rank, ledger, "forward")
        self._charge_alltoallv(
            "L2L", np.bincount(fwd_rank, minlength=self.num_ranks),
            ledger, message_bytes, self.mesh.cols, self.split_row,
        )

    def charge_receiver_kernel(self, name, recv_rank_per_msg, ledger, label):
        counts = np.bincount(recv_rank_per_msg, minlength=self.num_ranks)
        seconds = self.kernel_time(int(counts.max()), self.message_rate())
        ledger.charge_compute(name, f"{label}:{name}", counts, seconds)

    # ------------------------------------------------------------------
    # per-iteration delegate sync and §5 parent reduction (engine-level
    # charges shared by the facade and the hosts)
    # ------------------------------------------------------------------

    def charge_delegate_sync(self, ledger, active_e, active_h, num_lanes=1):
        """Per-iteration frontier synchronization of delegated classes:
        an allreduce of the E frontier over every rank, and of each
        column's and each row's share of the H frontier over that column
        and row.  ``active_e`` / ``active_h`` are the frontier's E and H
        populations; a wave passes its union frontier's and ``num_lanes``
        (one exchange syncs every lane's delegated bits)."""
        part, mesh = self.part, self.mesh
        # (bitmap bits, sparse entries, participants, traffic split)
        scopes = []
        if part.num_e:
            scopes.append(
                (part.num_e, active_e, self.num_ranks, self.split_global)
            )
        if part.num_h and mesh.rows > 1:
            scopes.append((
                int(part.col_eh_counts.max()), -(-active_h // mesh.cols),
                mesh.rows, self.split_col,
            ))
        if part.num_h and mesh.cols > 1:
            scopes.append((
                int(part.row_eh_counts.max()), -(-active_h // mesh.rows),
                mesh.cols, self.split_row,
            ))
        for bits, sparse, participants, split in scopes:
            ledger.charge_allreduce(
                "other",
                participants,
                self.sync_bytes(bits, sparse, num_lanes),
                split,
            )

    def charge_parent_reduction(self, ledger, num_lanes: int = 1):
        """Reduce delegated parent arrays to their owners (§5).

        A batched wave reduces one parent array per lane, so the bytes
        scale with ``num_lanes`` — but the collective launch overhead is
        paid once, which is part of the batch amortization.
        """
        part, mesh = self.part, self.mesh
        # (delegated parents per rank, participants, traffic split): E
        # reduces over every rank, H down its EH-space column.
        scopes = []
        if part.num_e:
            scopes.append((part.num_e, self.num_ranks, self.split_global))
        if part.num_h and mesh.rows > 1:
            scopes.append((part.col_eh_counts.max(), mesh.rows, self.split_col))
        for count, participants, split in scopes:
            ledger.charge_scoped(
                "reduce",
                CollectiveKind.REDUCE_SCATTER,
                participants,
                float(count) * 8 * num_lanes,
                split,
            )


class _FifteenDKernel(ComponentKernel):
    """Shared push/pull skeleton of the six 1.5D kernels.

    A kernel supplies policy — :meth:`push_seconds`, :meth:`pull_rate`,
    :meth:`route`, :meth:`charge_pull_prereq` — and the skeleton charges
    it through :meth:`_charge_push` / :meth:`_charge_pull`, the one
    charging path under every mode.  The six ``commit_*`` methods are the
    modes: each passes its wire width to that path and applies its winner
    rule to the body's arcs, and knows nothing else about pricing.
    """

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

    def route(self, label, send_rank, dst, ledger, record, message_bytes) -> None:
        """Charge the remote traffic of one message per entry of
        ``send_rank`` (the sending rank) / ``dst`` (the vertex it
        updates), ``message_bytes`` wide — nothing if the component is
        node-local.  ``label`` names the receiving kernel:
        ``"push_recv"`` for pushed arcs, ``"pull_recv"`` for bottom-up
        hits travelling to their owners."""

    def charge_pull_prereq(self, ledger, unvisited_l, num_lanes=1) -> None:
        """Charge remote state the pulling ranks need first (if any).
        ``unvisited_l`` is a zero-argument callable returning the L
        vertices a pull may still reach, so a kernel that needs no
        prerequisite never counts them; ``num_lanes`` as in
        :meth:`FifteenDContext.sync_bytes`."""

    # -- the one charging path -----------------------------------------

    def _charge_push(self, sel, ledger, record, message_bytes=MESSAGE_BYTES):
        """Charge a top-down sweep: the arcs, the sweep's compute, and
        one routed message per selected arc."""
        name = self.name
        per_rank = sel.per_rank(self.ctx.num_ranks)
        record.scanned_arcs[name] = record.scanned_arcs.get(name, 0) + sel.num_arcs
        seconds = self.push_seconds(per_rank, sel)
        ledger.charge_compute(name, f"push:{name}", per_rank, seconds)
        if sel.num_arcs:
            self.route("push_recv", sel.rank, sel.dst, ledger, record, message_bytes)

    def _charge_pull(
        self, scan, msg_rank, msg_dst, ledger, record, message_bytes=MESSAGE_BYTES
    ):
        """Charge a bottom-up scan: the arcs, the scan's compute, and one
        routed message per ``(msg_rank, msg_dst)`` the scan produced."""
        name = self.name
        record.scanned_arcs[name] = (
            record.scanned_arcs.get(name, 0) + scan.scanned_arcs
        )
        seconds = self.ctx.kernel_time(
            int(scan.scanned_per_rank.max()), self.pull_rate()
        )
        ledger.charge_compute(name, f"pull:{name}", scan.scanned_per_rank, seconds)
        if msg_rank.size:
            self.route("pull_recv", msg_rank, msg_dst, ledger, record, message_bytes)

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
        self._charge_push(sel, ledger, record)
        # Local (or post-message) update: first writer per destination in
        # deterministic component order wins.
        fresh = np.flatnonzero(~visited.mask[sel.dst])
        if fresh.size == 0:
            return EMPTY_ACTIVATION
        uniq, first = first_writers(sel.dst[fresh], visited.scratch)
        return uniq, sel.src[fresh[first]]

    def commit_pull(self, scan, active, visited, ledger, record):
        sizes = self.ctx.class_state.sizes
        self.charge_pull_prereq(
            ledger, lambda: sizes["L"] - class_count(visited.counts, "L")
        )
        self._charge_pull(scan, scan.hit_rank, scan.hit_dst, ledger, record)
        return scan.hit_dst, scan.hit_src

    def commit_push_lanes(self, sel, group_lanes, lanes, ledger, record):
        """Commit of the lane-shared top-down sweep.

        One arc selection covers the group's frontier; lane ``l``'s
        subset of the selection (arcs whose source carries bit ``l``) is
        exactly the selection of that lane's sequential run in the same
        order, so the per-lane first-writer-per-destination parents are
        identical.  One message per selected arc carries all lanes' bits.
        """
        self._charge_push(sel, ledger, record, wire_bytes(lanes.num_lanes))
        group = np.uint64(group_lanes)
        # Per (arc, lane): fresh iff the source is active and the
        # destination unvisited in that lane.
        hit_bits = lanes.active[sel.src] & ~lanes.visited[sel.dst] & group
        return first_writer_lanes(sel.dst, sel.src, hit_bits, group, lanes.scratch)

    def commit_pull_lanes(self, scan, group_lanes, lanes, ledger, record):
        """Commit of the lane-shared bottom-up scan (the generic grouped
        path; L2L overrides with its query/reply messaging).  Unique
        (dst, rank) winners across lanes share one message each."""
        group = np.uint64(group_lanes)
        light = self.ctx.masks["L"]
        self.charge_pull_prereq(
            ledger,
            lambda: int(np.count_nonzero(((~lanes.visited & group) != 0) & light)),
            lanes.num_lanes,
        )
        self._charge_pull(
            scan, scan.msg_rank, scan.msg_dst, ledger, record,
            wire_bytes(lanes.num_lanes),
        )
        return scan.updates

    def commit_program_push(self, program, sel, active, ledger, record):
        """Top-down program sub-iteration: the frontier's arcs in the
        same by-source CSR order (and at the same per-rank compute and
        alltoallv prices) as a BFS push, one (vertex, value) message per
        arc, with the first-writer commit replaced by the program's
        gather → combine → apply."""
        self._charge_push(sel, ledger, record, program.message_bytes)
        return program.edge_sweep(self.name, sel.src, sel.dst)

    def commit_program_pull(self, program, sel, candidates, active, ledger, record):
        """Bottom-up program sub-iteration: full-run scans of the
        program's candidate destinations (no early exit — a value
        combine must see every active in-neighbour, so there is no
        per-destination dedup before it either: one message per selected
        arc), priced at the same pull rate as BFS."""
        light = self.ctx.masks["L"]
        self.charge_pull_prereq(
            ledger, lambda: int(np.count_nonzero(candidates & light))
        )
        self._charge_pull(
            sel, sel.rank, sel.dst, ledger, record, program.message_bytes
        )
        return program.edge_sweep(self.name, sel.src, sel.dst)

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
            # The group's frontier, walked over the union frontier's ids.
            ids = lanes.frontier.ids
            sel = self.comp.push_select(ids[(lanes.active[ids] & group) != 0])
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

    def route(self, label, send_rank, dst, ledger, record, message_bytes):
        # Pushed arcs and pull hits alike travel intra-row to the
        # destination's owner (H2L) or to the column-delegate
        # intersection rank (L2H).
        ctx, name = self.ctx, self.name
        record.messages[name] = record.messages.get(name, 0) + send_rank.size
        ctx.charge_row_alltoallv(
            name,
            np.bincount(send_rank, minlength=ctx.num_ranks),
            ledger,
            message_bytes,
        )
        recv_rank = self.owner_of_dst(dst, send_rank)
        ctx.charge_receiver_kernel(name, recv_rank, ledger, label)


@FIFTEEND_KERNELS.register("H2L")
class H2LKernel(_RowMessageKernel):
    def owner_of_dst(self, dst, sender_rank):
        return self.ctx.mesh.owner_of(dst, self.ctx.num_vertices)

    def charge_pull_prereq(self, ledger, unvisited_l, num_lanes=1):
        # Unvisited-L state of each row, allgathered within the row
        # (bitmap or sparse entries, whichever is cheaper on the wire;
        # a wave's one exchange ships every lane's unvisited-L bits).
        ctx = self.ctx
        row_bits = ctx.block_bytes * 8 * ctx.mesh.cols
        recv = ctx.sync_bytes(
            row_bits, -(-unvisited_l() // ctx.mesh.rows), num_lanes
        )
        ledger.charge_scoped(
            self.name, CollectiveKind.ALLGATHER, ctx.mesh.cols, recv, ctx.split_row
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

    def route(self, label, send_rank, dst, ledger, record, message_bytes):
        # Two-stage forwarding through the intersection rank of the
        # source's column and the destination's row (§4.4).
        ctx = self.ctx
        record.messages["L2L"] = record.messages.get("L2L", 0) + send_rank.size
        o_dst = ctx.mesh.owner_of(dst, ctx.num_vertices)
        ctx.charge_l2l_alltoallv(send_rank, o_dst, ledger, message_bytes)
        ctx.charge_receiver_kernel("L2L", o_dst, ledger, label)

    def _charge_query_pull(
        self,
        per_rank,
        rank,
        peer,
        ledger,
        record,
        query_bytes=MESSAGE_BYTES,
        reply_bytes=MESSAGE_BYTES,
    ):
        """Charge a bottom-up L2L sweep as batched query/reply messages.

        By edge symmetry, the arcs stored at ``owner(v)`` with source ``v``
        are exactly v's undirected incidence, so scanning unvisited local
        sources is the destination-side pull view.  There is no local
        bitmap to scan: each scanned arc costs a query to the neighbor's
        owner (``peer``, over the two-stage path) plus a reply, so the
        sweep is priced at the message-generation rate and moves twice
        the push bytes per arc — which is why pull only wins once the
        unvisited population is well below the active one (the
        ``cross_pull_bias`` economics).  Batching is why "1D partitioning
        methods have to drop or limit the early exit" (§2.1.2) — every
        arc of an unvisited vertex is queried.  A program's reply carries
        the value, hence the separate ``reply_bytes``.
        """
        ctx = self.ctx
        record.scanned_arcs["L2L"] = (
            record.scanned_arcs.get("L2L", 0) + int(per_rank.sum())
        )
        seconds = ctx.kernel_time(int(per_rank.max()), ctx.message_rate())
        ledger.charge_compute("L2L", "pull:L2L", per_rank, seconds)
        if rank.size:
            record.messages["L2L"] = (
                record.messages.get("L2L", 0) + 2 * rank.size
            )
            o_peer = ctx.mesh.owner_of(peer, ctx.num_vertices)
            ctx.charge_l2l_alltoallv(rank, o_peer, ledger, query_bytes)
            ctx.charge_receiver_kernel("L2L", o_peer, ledger, "pull_query")
            ctx.charge_l2l_alltoallv(o_peer, rank, ledger, reply_bytes)
            ctx.charge_receiver_kernel("L2L", rank, ledger, "pull_reply")

    def body_spec(self):
        return KernelBodySpec(component=self.comp, pull_kind="query")

    def pull_body(self, active, visited):
        # Scanning unvisited local sources is the destination-side pull
        # view (see :meth:`_charge_query_pull`); no early exit.
        return self.comp.push_select(~visited.mask)

    def lanes_pull_body(self, group_lanes, lanes):
        group = np.uint64(group_lanes)
        return self.comp.push_select((~lanes.visited & group) != 0)

    def commit_pull(self, sel, active, visited, ledger, record):
        self._charge_query_pull(
            sel.per_rank(self.ctx.num_ranks), sel.rank, sel.dst, ledger, record
        )
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
        width = wire_bytes(lanes.num_lanes)
        self._charge_query_pull(
            sel.per_rank(self.ctx.num_ranks), sel.rank, sel.dst, ledger, record,
            width, width,
        )
        group = np.uint64(group_lanes)
        hit_bits = ~lanes.visited[sel.src] & lanes.active[sel.dst] & group
        return first_writer_lanes(sel.src, sel.dst, hit_bits, group, lanes.scratch)

    def commit_program_pull(self, program, sel, candidates, active, ledger, record):
        # The queried peer of a pulled contribution is its source's owner.
        self._charge_query_pull(
            sel.scanned_per_rank, sel.rank, sel.src, ledger, record,
            reply_bytes=program.message_bytes,
        )
        return program.edge_sweep("L2L", sel.src, sel.dst)


def build_fifteend_kernels(ctx: FifteenDContext, order) -> dict[str, ComponentKernel]:
    """Instantiate the registry's kernels over a partition's components,
    in scheduler execution order (densest first)."""
    return {
        name: FIFTEEND_KERNELS[name](ctx, ctx.part.components[name])
        for name in order
    }

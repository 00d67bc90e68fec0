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

All six run through the one push/pull skeleton
(:class:`~repro.core.kernels.base.PushPullKernel`, which the baselines
share) and charge through one :class:`FifteenDContext`: the mesh pricing
context (:class:`~repro.core.kernels.base.MeshContext`) plus what only
1.5D has — the partition's class masks, the §4.3 segmenting plan, the
§4.4 two-stage L2L path, and the per-iteration delegate frontier sync
and §5 parent reduction the engine facade charges.

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
    LANE_MESSAGE_BYTES,
    MESSAGE_BYTES,
    KernelBodySpec,
    MeshContext,
    PushPullKernel,
    wire_bytes,
)
from repro.core.lanes import first_writer_lanes
from repro.core.partition import PartitionedGraph, class_count
from repro.core.segmenting import plan_segmenting
from repro.core.vertexset import first_writers
from repro.machine.costmodel import CollectiveKind
from repro.machine.network import MachineSpec

__all__ = [
    "FifteenDContext",
    "FIFTEEND_KERNELS",
    "MESSAGE_BYTES",
    "LANE_MESSAGE_BYTES",
    "wire_bytes",
]


class FifteenDContext(MeshContext):
    """The mesh pricing context plus the partition state only the six
    1.5D kernels and their engine charge through."""

    def __init__(
        self,
        part: PartitionedGraph,
        machine: MachineSpec,
        config: BFSConfig,
    ) -> None:
        super().__init__(part.mesh, machine, config, part.num_vertices)
        self.part = part

        self.masks = part.class_masks()
        self.class_state = ClassState(self.masks)
        self.seg_plan = plan_segmenting(part, chip=machine.chip)
        self.use_segmenting = config.segmenting and self.seg_plan.feasible
        self.eh_pull_rate = self.rates.pull_rate(self.use_segmenting)
        # A row's unvisited-L bitmap, whole bytes per block (the H2L
        # pull prerequisite).
        block_bytes = -(-self.mesh.block_size(part.num_vertices) // 8)
        self.row_block_bits = block_bytes * 8 * self.mesh.cols

        # The scopes of the per-iteration charges, fixed by the
        # partition; a charge supplies only its frontier counts.
        mesh = self.mesh
        #: Delegate sync: (bitmap bits, frontier class (0 = E, 1 = H),
        #: ways its sparse entries split, participants, traffic split).
        self.sync_scopes = []
        #: Parent reduction: (bytes per lane, participants, traffic split).
        self.reduction_scopes = []
        if part.num_e:
            self.sync_scopes.append(
                (part.num_e, 0, 1, self.num_ranks, self.split_global)
            )
            self.reduction_scopes.append(
                (float(part.num_e) * 8, self.num_ranks, self.split_global)
            )
        if part.num_h and mesh.rows > 1:
            col_bits = int(part.col_eh_counts.max())
            self.sync_scopes.append(
                (col_bits, 1, mesh.cols, mesh.rows, self.split_col)
            )
            self.reduction_scopes.append(
                (float(col_bits) * 8, mesh.rows, self.split_col)
            )
        if part.num_h and mesh.cols > 1:
            self.sync_scopes.append((
                int(part.row_eh_counts.max()), 1, mesh.rows, mesh.cols,
                self.split_row,
            ))

    def charge_l2l_alltoallv(
        self, sender_rank, dest_rank, ledger, message_bytes=MESSAGE_BYTES
    ):
        """Two-stage forwarded global alltoallv (§4.4): sender's column to
        the intersection rank, then the destination's row."""
        fwd_rank = (
            self.mesh.row_of(dest_rank) * self.mesh.cols
            + self.mesh.col_of(sender_rank)
        )
        self.charge_alltoallv(
            "L2L", np.bincount(sender_rank, minlength=self.num_ranks),
            ledger, message_bytes, self.mesh.rows, self.split_col,
        )
        self.charge_receiver_kernel("L2L", fwd_rank, ledger, "forward")
        self.charge_alltoallv(
            "L2L", np.bincount(fwd_rank, minlength=self.num_ranks),
            ledger, message_bytes, self.mesh.cols, self.split_row,
        )

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
        active = (active_e, active_h)
        for bits, cls, ways, participants, split in self.sync_scopes:
            ledger.charge_allreduce(
                "other",
                participants,
                self.sync_bytes(bits, -(-active[cls] // ways), num_lanes),
                split,
            )

    def charge_parent_reduction(self, ledger, num_lanes: int = 1):
        """Reduce delegated parent arrays to their owners (§5): E over
        every rank, H down its EH-space column.

        A batched wave reduces one parent array per lane, so the bytes
        scale with ``num_lanes`` — but the collective launch overhead is
        paid once, which is part of the batch amortization.
        """
        for lane_bytes, participants, split in self.reduction_scopes:
            ledger.charge_scoped(
                "reduce",
                CollectiveKind.REDUCE_SCATTER,
                participants,
                lane_bytes * num_lanes,
                split,
            )


class _FifteenDKernel(PushPullKernel):
    """The push/pull skeleton plus the two 1.5D-only modes.

    Beside the skeleton's policy hooks, a 1.5D kernel states its pull
    prerequisite once, :meth:`charge_pull_prereq`, for every mode.  The
    lane and program ``commit_*`` methods are the other modes: each
    passes its wire width to the skeleton's one charging path and applies
    its winner rule to the body's arcs, and knows nothing else about
    pricing.
    """

    def charge_pull_prereq(self, ledger, unvisited_l, num_lanes=1) -> None:
        """Charge remote state the pulling ranks need first (if any).
        ``unvisited_l`` is a zero-argument callable returning the L
        vertices a pull may still reach, so a kernel that needs no
        prerequisite never counts them; ``num_lanes`` as in
        :meth:`~repro.core.kernels.base.MeshContext.sync_bytes`."""

    def pull_prereq(self, ledger, active, visited) -> None:
        # A single-source pull may reach every still-unvisited L vertex.
        sizes = self.ctx.class_state.sizes
        self.charge_pull_prereq(
            ledger, lambda: sizes["L"] - class_count(visited.counts, "L")
        )

    def lanes_pull_body(self, group_lanes, lanes):
        group = np.uint64(group_lanes)
        return self.comp.pull_scan_lanes(
            ~lanes.visited & group, lanes.active & group, group
        )

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


class EH2EHKernel(_FifteenDKernel):
    """The 2D core: node-local, vertex-cut balanced, segmentable."""

    def push_seconds(self, per_rank, sel):
        ctx = self.ctx
        # CPE load factor of the push vertex-cut (§5) over the selected
        # sources' run lengths.
        factor = vertex_cut_imbalance(
            sel.lens, ctx.total_cpes, edge_aware=ctx.config.edge_aware_balance
        )
        return ctx.kernel_time(int(per_rank.max()), ctx.local_push_rate) * factor

    def pull_rate(self):
        # Segmented rate when the §4.3 plan is feasible and enabled.
        return self.ctx.eh_pull_rate


class _LocalKernel(_FifteenDKernel):
    """Node-local light components (E2L, L2E): scan + update, no messages."""

    def push_seconds(self, per_rank, sel):
        ctx = self.ctx
        return ctx.kernel_time(int(per_rank.max()), ctx.local_push_rate)

    def pull_rate(self):
        return self.ctx.segmented_pull_rate


class _RowMessageKernel(_FifteenDKernel):
    """Intra-row messaging components (H2L, L2H)."""

    def push_seconds(self, per_rank, sel):
        # Message generation priced at the OCS-RMA rate.
        ctx = self.ctx
        return ctx.kernel_time(int(per_rank.max()), ctx.message_rate)

    def pull_rate(self):
        return self.ctx.segmented_pull_rate

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
            name, np.bincount(send_rank, minlength=ctx.num_ranks), ledger,
            message_bytes,
        )
        recv_rank = self.owner_of_dst(dst, send_rank)
        ctx.charge_receiver_kernel(name, recv_rank, ledger, label)


class H2LKernel(_RowMessageKernel):
    def owner_of_dst(self, dst, sender_rank):
        return self.ctx.mesh.owner_of(dst, self.ctx.num_vertices)

    def charge_pull_prereq(self, ledger, unvisited_l, num_lanes=1):
        # Unvisited-L state of each row, allgathered within the row
        # (bitmap or sparse entries, whichever is cheaper on the wire;
        # a wave's one exchange ships every lane's unvisited-L bits).
        ctx = self.ctx
        recv = ctx.sync_bytes(
            ctx.row_block_bits, -(-unvisited_l() // ctx.mesh.rows), num_lanes
        )
        ledger.charge_scoped(
            self.name, CollectiveKind.ALLGATHER, ctx.mesh.cols, recv, ctx.split_row
        )


class L2HKernel(_RowMessageKernel):
    def owner_of_dst(self, dst, sender_rank):
        # Messages go to the intersection rank (sender's row, the H
        # vertex's EH-space column) where the column delegate lives.
        ctx = self.ctx
        sender_row = ctx.mesh.row_of(np.asarray(sender_rank, dtype=np.int64))
        return sender_row * ctx.mesh.cols + ctx.part.eh_col[dst]


class L2LKernel(_FifteenDKernel):
    """Plain-1D light arcs: two-stage forwarded push, query/reply pull."""

    def push_seconds(self, per_rank, sel):
        ctx = self.ctx
        return ctx.kernel_time(int(per_rank.max()), ctx.message_rate)

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
        seconds = ctx.kernel_time(int(per_rank.max()), ctx.message_rate)
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


#: The six 1.5D kernels by component name, in scheduler execution order
#: (densest first, :data:`~repro.core.subgraphs.COMPONENT_ORDER`).
FIFTEEND_KERNELS = {
    "EH2EH": EH2EHKernel,
    "E2L": _LocalKernel,
    "L2E": _LocalKernel,
    "H2L": H2LKernel,
    "L2H": L2HKernel,
    "L2L": L2LKernel,
}

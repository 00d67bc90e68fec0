"""The :class:`ComponentKernel` contract, the one push/pull skeleton
every analytic kernel runs through, and the mesh pricing context it
charges through.

A component kernel owns everything one edge component does inside a BFS
iteration: selecting its direction-specific access path (push CSR or
pull groups), pricing its compute at the right kernel rate, routing and
charging its remote messages, and returning the vertices it activated.
The :class:`~repro.core.kernels.scheduler.LevelSyncScheduler` never
looks inside — it only asks ``execute(...)`` in densest-first order and
commits the returned activations, which is what keeps every engine's
frontier/visited/parent semantics identical.

:class:`PushPullKernel` is that sub-iteration written once: select or
scan, charge the arcs and the compute, route one message per arc or hit,
apply the first-writer rule.  A partitioning scheme supplies only policy
— :meth:`~PushPullKernel.push_seconds`, :meth:`~PushPullKernel.pull_rate`,
:meth:`~PushPullKernel.route` and :meth:`~PushPullKernel.pull_prereq` —
so the six 1.5D kernels and the 1D / 1D-with-delegates / 2D baselines
(paper Table 1) differ only in where arcs live and what crosses the
network.  They price through one :class:`MeshContext`: the cost model,
the node kernel rates, and the collectives of a mesh (the global / row /
column supernode splits, a fixed-width alltoallv, a receiver kernel).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.core.config import BFSConfig
from repro.core.metrics import IterationRecord
from repro.core.vertexset import VertexSet, first_writers
from repro.machine.costmodel import CollectiveKind, CostModel, NodeKernelRates
from repro.machine.network import MachineSpec
from repro.runtime.ledger import TrafficLedger
from repro.runtime.mesh import ProcessMesh

__all__ = [
    "ComponentKernel",
    "KernelBodySpec",
    "MeshContext",
    "PushPullKernel",
    "EMPTY_ACTIVATION",
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

#: The (newly, parents) pair of a sub-iteration that activated nothing.
EMPTY_ACTIVATION: tuple[np.ndarray, np.ndarray] = (
    np.array([], dtype=np.int64),
    np.array([], dtype=np.int64),
)


@dataclass(frozen=True)
class KernelBodySpec:
    """How a kernel's sub-iteration splits into a *body* and a *commit*.

    A kernel that publishes a body spec promises its sub-iteration
    factors into a pure traversal body (a selection or scan over its
    component's frozen arrays — the
    :class:`~repro.core.subgraphs.SubgraphComponent` methods) followed by
    a commit (``commit_push``/``commit_pull``/lane/program variants) that
    does all ledger charging and activation dedup on the body's result.
    An :class:`~repro.runtime.backends.base.ExecutionBackend` may then
    call the two halves itself — the layer bench's timing backend spans
    each — instead of the kernel's monolithic ``execute*``; kernels
    without a spec (returning ``None`` from
    :meth:`ComponentKernel.body_spec`) only offer the latter.
    """

    #: The :class:`~repro.core.subgraphs.SubgraphComponent` whose frozen
    #: arrays the body reads.
    component: object
    #: How this kernel's bottom-up body selects arcs: ``"scan"`` runs the
    #: early-exit grouped pull scan over (candidate=unvisited, active);
    #: ``"query"`` runs the push body over the unvisited mask (the L2L
    #: query/reply model, which has no early exit).
    pull_kind: str = "scan"


class ComponentKernel(ABC):
    """Push/pull execution of one edge component.

    Subclasses fix ``name`` (the component key, e.g. ``"EH2EH"``) and
    implement :meth:`execute`.  A kernel is mounted on exactly one
    scheduler run-loop; it may keep per-engine context (rates, mesh
    splits, per-rank state) but must not own any iteration loop — that
    is the scheduler's.
    """

    #: Component key this kernel executes (set per instance or subclass).
    name: str

    @property
    @abstractmethod
    def num_arcs(self) -> int:
        """Arcs stored in this kernel's component; 0 means the scheduler
        skips the sub-iteration entirely (recorded as direction ``"-"``)."""

    @abstractmethod
    def execute(
        self,
        direction: str,
        active: VertexSet,
        visited: VertexSet,
        ledger: TrafficLedger,
        record: IterationRecord,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run one sub-iteration in ``direction`` (``"push"``/``"pull"``).

        Reads the frontier (``active``) and ``visited``
        :class:`~repro.core.vertexset.VertexSet` objects (``ids`` to
        expand, ``mask`` to test membership, ``counts`` to price), charges
        every kernel and collective the component would run to
        ``ledger``, fills ``record``'s per-component counters
        (``scanned_arcs``, ``messages``), and returns ``(newly,
        parents)`` — the destinations activated this sub-iteration and
        the parent chosen for each.  The scheduler commits them (parent,
        visited, next frontier), so later sub-iterations of the same
        iteration see the fresh state (§4.2's freshness rule).
        """

    def execute_lanes(
        self,
        direction: str,
        group_lanes,
        lanes,
        ledger: TrafficLedger,
        record: IterationRecord,
    ):
        """Run one sub-iteration for the lane group ``group_lanes`` of a
        batched (multi-source) wave.

        ``lanes`` is a :class:`~repro.core.lanes.LaneState`;
        ``group_lanes`` is the uint64 lane-bit mask of the lanes that
        chose ``direction`` this wave (lanes are grouped by direction so
        each lane's parents stay bit-identical to its sequential run).
        Charges the *shared* batched cost to ``ledger`` and returns the
        group's :class:`~repro.core.lanes.LaneActivations`, which the
        scheduler commits through ``LaneState.commit``.

        Kernels that cannot execute batched waves leave this
        unimplemented; the batch scheduler refuses to mount them.
        """
        raise NotImplementedError(
            f"kernel {type(self).__name__} does not support lane batching"
        )

    @property
    def supports_lanes(self) -> bool:
        """Whether :meth:`execute_lanes` is implemented."""
        return type(self).execute_lanes is not ComponentKernel.execute_lanes

    def execute_program(
        self,
        program,
        direction: str,
        active: VertexSet,
        ledger: TrafficLedger,
        record: IterationRecord,
    ) -> np.ndarray:
        """Run one vertex-program sub-iteration in ``direction``.

        Selects this component's arcs for the frontier (push: arcs whose
        source is active; pull: the full runs of the program's candidate
        destinations, filtered to active sources — no early exit, since
        value combines must see every active in-neighbour), charges the
        same kernels and collectives a BFS sub-iteration would at the
        program's ``message_bytes``, then hands the arcs to
        ``program.edge_sweep`` for gather → combine → apply.  Returns the
        vertex IDs the program activated; the scheduler accumulates them
        into the iteration's touched set.  State lives in the program, so
        the kernel stays algorithm-agnostic.

        Kernels that cannot execute programs leave this unimplemented;
        ``LevelSyncScheduler.run_program`` refuses to mount them.
        """
        raise NotImplementedError(
            f"kernel {type(self).__name__} does not support vertex programs"
        )

    @property
    def supports_programs(self) -> bool:
        """Whether :meth:`execute_program` is implemented."""
        return (
            type(self).execute_program is not ComponentKernel.execute_program
        )

    def body_spec(self) -> KernelBodySpec | None:
        """The kernel's body/commit split, or ``None``.

        ``None`` (the default) means the kernel only offers the monolithic
        ``execute*`` path.
        Kernels returning a :class:`KernelBodySpec` additionally implement
        the commit half of the contract:

        - ``commit_push(sel, active, visited, ledger, record)``
        - ``commit_pull(body, active, visited, ledger, record)`` where
          ``body`` is a :class:`~repro.core.subgraphs.PullScan` for
          ``pull_kind="scan"`` or a
          :class:`~repro.core.subgraphs.PushSelection` over the unvisited
          mask for ``pull_kind="query"``;
        - lane variants ``commit_push_lanes``/``commit_pull_lanes`` when
          :attr:`supports_lanes`;
        - program variants ``commit_program_push``/``commit_program_pull``
          when :attr:`supports_programs`.
        """
        return None


class MeshContext:
    """What pricing a sub-iteration needs to know about the machine and
    the mesh, shared by every kernel of an engine: the cost model, the
    node kernel rates, and the collectives a kernel charges.

    Every machine and mesh constant a charge reads — the kernel rates,
    the scopes' traffic splits, the CPE count — is computed here, once
    per engine, so a charge costs only its own arithmetic."""

    def __init__(
        self,
        mesh: ProcessMesh,
        machine: MachineSpec,
        config: BFSConfig,
        num_vertices: int,
    ) -> None:
        self.mesh = mesh
        self.machine = machine
        self.config = config
        self.cost = CostModel(machine)
        self.rates = rates = NodeKernelRates(chip=machine.chip)
        self.work_scale = machine.work_scale
        # Items/second of the kernels a charge prices (NodeKernelRates).
        self.message_rate = rates.message_rate(config.num_cgs)
        self.local_push_rate = rates.local_push_rate()
        self.segmented_pull_rate = rates.pull_rate_segmented()
        self.unsegmented_pull_rate = rates.pull_rate_unsegmented()
        self.total_cpes = machine.chip.total_cpes
        self.num_vertices = num_vertices
        self.num_ranks = mesh.num_ranks

        # Supernode (intra_frac, inter_frac) splits of the three
        # collective scopes, from the canonical mesh helper.
        self.split_global = mesh.group_traffic_split(np.arange(self.num_ranks))
        self.split_row = mesh.group_traffic_split(mesh.row_ranks(0))
        self.split_col = mesh.group_traffic_split(mesh.col_ranks(0))

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

    def charge_alltoallv(
        self, name, send_msgs_per_rank, ledger, message_bytes, participants, split
    ):
        """One alltoallv of fixed-size messages over ``participants``
        ranks with traffic split ``split``: the busiest sender bounds the
        time, every sender counts in the bytes."""
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
        self.charge_alltoallv(
            name, send_msgs_per_rank, ledger, message_bytes,
            self.mesh.cols, self.split_row,
        )

    def charge_receiver_kernel(self, name, recv_rank_per_msg, ledger, label):
        """The kernel that applies received messages, priced at the
        message rate on the busiest receiver."""
        counts = np.bincount(recv_rank_per_msg, minlength=self.num_ranks)
        seconds = self.kernel_time(int(counts.max()), self.message_rate)
        ledger.charge_compute(name, f"{label}:{name}", counts, seconds)


class PushPullKernel(ComponentKernel):
    """The push/pull skeleton of one component, written once.

    A scheme's kernel supplies policy — :meth:`push_seconds`,
    :meth:`pull_rate`, :meth:`route`, :meth:`pull_prereq` — and the
    skeleton charges it through :meth:`_charge_push` /
    :meth:`_charge_pull`, the one charging path.  ``name`` is the
    component's (a subclass may pin its own).
    """

    def __init__(self, ctx: MeshContext, comp) -> None:
        self.ctx = ctx
        self.comp = comp

    name = property(lambda self: self.comp.name)

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

    def pull_prereq(self, ledger, active, visited) -> None:
        """Charge the remote state a single-source pull needs before it
        scans (if any), from the frontier ``active`` and ``visited``."""

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
    # Every path factors into a pure *body* (an arc selection or scan
    # over the component's frozen arrays — no ledger access) and a
    # *commit* that does all charging, routing, and activation dedup on
    # the body's result.  The ``execute*`` methods chain the two; a
    # substituted backend (the layer bench's timing one) calls the same
    # two halves with a span around each, so the ledger sees an
    # identical charge sequence either way.

    def body_spec(self):
        return KernelBodySpec(component=self.comp, pull_kind="scan")

    def pull_body(self, active, visited):
        """The pure bottom-up body: the early-exit grouped scan."""
        return self.comp.pull_scan(~visited.mask, active.mask, visited.scratch)

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
        self.pull_prereq(ledger, active, visited)
        self._charge_pull(scan, scan.hit_rank, scan.hit_dst, ledger, record)
        return scan.hit_dst, scan.hit_src

    def execute(self, direction, active, visited, ledger, record):
        if direction == "push":
            sel = self.comp.push_select(active)
            return self.commit_push(sel, active, visited, ledger, record)
        body = self.pull_body(active, visited)
        return self.commit_pull(body, active, visited, ledger, record)

"""Shared machinery for the baseline engines.

Every baseline is a :class:`BaselineEngine` subclass that provides:

- its kernel set (``_build_kernels``): one kernel per
  :class:`~repro.core.subgraphs.SubgraphComponent` of the scheme's arc
  placement, a :class:`BaselineKernel` where arcs are node-local or a
  :class:`GlobalMessageKernel` where they message;
- the per-iteration synchronization it pays (the scheduler's
  ``begin_iteration`` hook) and its end-of-run parent reduction
  (``end_run``), if any.

A baseline kernel is the one push/pull skeleton the 1.5D kernels run
through (:class:`~repro.core.kernels.base.PushPullKernel`), priced on a
:class:`~repro.core.kernels.base.MeshContext` the engine builds; the
loop is the shared :class:`~repro.core.kernels.scheduler.LevelSyncScheduler`
— identical whole-iteration direction-optimized BFS (Beamer heuristic;
none of the baselines has sub-iteration direction) — so differences in
simulated time come only from the partitioning scheme's communication
and balance properties.  Pass ``tracer=`` to get the same ``bfs`` →
``iteration`` → ``component`` span tree the 1.5D engine emits.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import BFSConfig
from repro.core.direction import choose_whole_iteration_direction
from repro.core.kernels.base import MeshContext, PushPullKernel
from repro.core.kernels.scheduler import SchedulerHost
from repro.core.metrics import BFSRunResult, IterationRecord
from repro.core.partition import class_count
from repro.core.subgraphs import check_edge_ids
from repro.machine.network import MachineSpec
from repro.obs.tracer import Tracer
from repro.runtime.mesh import ProcessMesh

__all__ = ["BaselineEngine", "BaselineKernel", "GlobalMessageKernel"]


class BaselineKernel(PushPullKernel):
    """A node-local baseline component: messages nothing, needs nothing
    before a pull.  Pushes are priced at the message-generation rate and
    pulls at the GLD-latency-bound rate (the baselines lack CG-aware
    segmenting)."""

    def push_seconds(self, per_rank, sel):
        ctx = self.ctx
        return ctx.kernel_time(int(per_rank.max()), ctx.message_rate)

    def pull_rate(self):
        return self.ctx.unsegmented_pull_rate


class GlobalMessageKernel(BaselineKernel):
    """Light arcs under 1D, stored at the source's owner: one message per
    remote frontier arc through a global alltoallv, and a bottom-up sweep
    that first allreduces the light frontier (``light_vertices`` bits or
    its sparse entries) over every rank."""

    def __init__(self, ctx: MeshContext, comp, light_vertices: int) -> None:
        super().__init__(ctx, comp)
        self.light_vertices = light_vertices

    def route(self, label, send_rank, dst, ledger, record, message_bytes):
        if label == "pull_recv":
            # Every edge is stored both ways, so a destination's owner
            # holds its whole adjacency and finds its bottom-up hit there.
            return
        ctx = self.ctx
        o_dst = ctx.mesh.owner_of(dst, ctx.num_vertices)
        remote = o_dst != send_rank
        sent = int(np.count_nonzero(remote))
        if not sent:
            return
        record.messages[self.name] = record.messages.get(self.name, 0) + sent
        ctx.charge_alltoallv(
            self.name, np.bincount(send_rank[remote], minlength=ctx.num_ranks),
            ledger, message_bytes, ctx.num_ranks, ctx.split_global,
        )
        ctx.charge_receiver_kernel(self.name, o_dst[remote], ledger, label)

    def pull_prereq(self, ledger, active, visited):
        ctx = self.ctx
        ledger.charge_allreduce(
            self.name,
            ctx.num_ranks,
            ctx.sync_bytes(self.light_vertices, class_count(active.counts, "L")),
            ctx.split_global,
        )


class BaselineEngine(SchedulerHost):
    """Whole-iteration direction-optimized BFS over scheme components."""

    #: Human-readable scheme name (Table 1's "Part. Method" column).
    scheme = "abstract"

    def __init__(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        num_vertices: int,
        mesh: ProcessMesh,
        machine: MachineSpec | None = None,
        config: BFSConfig | None = None,
        tracer: Tracer | None = None,
        metrics=None,
    ) -> None:
        check_edge_ids(src, dst, num_vertices)
        self.mesh = mesh
        self.num_vertices = int(num_vertices)
        if machine is None:
            machine = mesh.machine or MachineSpec(num_nodes=mesh.num_ranks)
        self.machine = machine
        self.config = config or BFSConfig()
        self.ctx = MeshContext(mesh, machine, self.config, self.num_vertices)
        from repro.graphs.stats import degrees_from_edges

        self.degrees = degrees_from_edges(src, dst, num_vertices)
        kernels = self._build_kernels(src, dst)
        self.components = {name: k.comp for name, k in kernels.items()}
        self.num_input_edges = (
            sum(c.num_arcs for c in self.components.values()) // 2
        )
        self.mount(kernels, tracer, metrics)

    @property
    def cost(self):
        return self.ctx.cost

    def _build_kernels(self, src, dst) -> dict[str, BaselineKernel]:
        """The scheme's components, each under its kernel."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # scheduler hooks (a scheme also overrides ``begin_iteration`` with
    # its frontier sync and ``end_run`` with its parent reduction)
    # ------------------------------------------------------------------

    def run(self, root: int, **resilience) -> BFSRunResult:
        return self.scheduler.run(root, **resilience)

    def iteration_direction(self, active, visited) -> str:
        return choose_whole_iteration_direction(
            active.mask, visited.mask, self.degrees, self.config
        )

    def record_activation(self, record: IterationRecord, next_active) -> None:
        record.newly_activated["all"] = len(next_active)

"""The distributed 1.5D BFS engine (paper §4-§5).

Executes Graph500 BFS over a :class:`~repro.core.partition.PartitionedGraph`
on the simulated runtime — one root (:meth:`DistributedBFS.run`), a
vertex program (:meth:`~DistributedBFS.run_program`) or up to 64 roots
packed into lane words (:meth:`~DistributedBFS.run_batch`), all on one
object.  Functional semantics are exact level-synchronous
BFS — the parent array validates under the Graph500 specification and the
levels match the serial reference — while every kernel and collective the
real machine would run is charged to a :class:`~repro.runtime.ledger.TrafficLedger`
with its exactly-counted volume.

The engine is a facade over the component-kernel layer
(:mod:`repro.core.kernels`): the six edge components execute as
the :data:`~repro.core.kernels.fifteend.FIFTEEND_KERNELS` — each
supplying its compute rates, message routing and pull prerequisite to
the one push/pull skeleton the baselines share — mounted densest-first (EH2EH, E2L, L2E, H2L, L2H, L2L) on the shared
:class:`~repro.core.kernels.scheduler.LevelSyncScheduler`.  The engine
itself only supplies the 1.5D scheduler hooks: the per-iteration
delegate frontier sync, the §4.2 direction policy (every component picks
its own direction from the *latest* visited state), the per-class
activation trace, and the §5 (optionally delayed) parent reduction —
once over a single frontier, once per lane for a wave, with the §4.2
rule itself written once (:func:`~repro.core.direction.pull_wins`).
``ReplayBFS`` and the 1D/2D baselines mount their own kernel sets on the
same scheduler, so all engines share one frontier/visited/parent
semantics and one tracing shape.

Communication pattern per the 1.5D scheme:

- E frontier bits: global allreduce each iteration (E is tiny).
- H frontier bits: column + row allreduce each iteration (the delegate
  sync; rows are intra-supernode, columns cross the fat-tree layer).
- H2L / L2H messaging: row alltoallv (intra-supernode by construction).
- L2L messaging: two-stage forwarding through the intersection rank of the
  source column and destination row (§4.4) — a column alltoallv (crossing
  supernodes) followed by a row alltoallv.
- pull prerequisites: H2L pull row-allgathers the row's unvisited-L bits;
  L2L pull is batched query/reply messaging over the two-stage path (no
  early exit, the §2.1.2 limit of bottom-up 1D, priced explicitly).
- parent arrays of delegated vertices: reduce-scatter at run end (delayed
  reduction, §5) or every iteration when disabled.

Observability: pass ``tracer=`` a :class:`~repro.obs.tracer.Tracer` to
record the run as a span tree — one span per BFS, per iteration, and per
executed component sub-iteration (annotated with the chosen direction,
frontier size, and scanned-arc/message counters) with every ledger charge
as a leaf underneath.  The default :data:`~repro.obs.tracer.NULL_TRACER`
is a no-op and leaves results bit-identical to an untraced run.  Pass
``metrics=`` a :class:`~repro.obs.metrics.MetricsRegistry` to additionally
accumulate the aggregate metric families (see
:mod:`repro.core.kernels.scheduler` and :mod:`repro.runtime.ledger`);
build a :class:`~repro.obs.report.RunReport` artifact from the run with
:func:`repro.obs.report.report_from_bfs`.

The two keywords are read once: the constructor folds them into the
engine's :class:`~repro.runtime.context.RunContext` (``engine.context``;
``engine.ctx`` is the 1.5D kernel context), and from there each run's
faults, checkpointer and serving trace id join them in one object the
scheduler reads.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import BFSConfig
from repro.core.direction import (
    choose_component_direction,
    choose_whole_iteration_direction,
    pull_wins,
)
from repro.core.kernels.fifteend import FIFTEEND_KERNELS, FifteenDContext
from repro.core.kernels.scheduler import SchedulerHost
from repro.core.lanes import iter_lanes, lane_bit, lanes_word
from repro.core.metrics import BFSRunResult, IterationRecord, MSBFSResult
from repro.core.partition import (
    CLASS_CODES,
    COMPONENT_CLASSES,
    PartitionedGraph,
    class_count,
)
from repro.machine.network import MachineSpec
from repro.obs.tracer import Tracer

__all__ = ["DistributedBFS"]


def _class_counts(counts, cls) -> np.ndarray:
    """Per-lane population of degree class ``cls`` in a ``LaneState``
    ``[lane, class]`` count array."""
    return counts[:, CLASS_CODES[cls]].sum(axis=1)


class DistributedBFS(SchedulerHost):
    """BFS over a 1.5D-partitioned graph on a simulated machine: a
    partition on a machine, the kernel context, and the six component
    kernels mounted densest first on one scheduler, with the sequential
    and the batched hooks side by side."""

    def __init__(
        self,
        part: PartitionedGraph,
        machine: MachineSpec | None = None,
        config: BFSConfig = BFSConfig(),
        tracer: Tracer | None = None,
        metrics=None,
        backend=None,
    ) -> None:
        self.part = part
        self.mesh = part.mesh
        self.config = config
        if machine is None:
            machine = self.mesh.machine or MachineSpec(
                num_nodes=self.mesh.num_ranks
            )
        if machine.num_nodes < self.mesh.num_ranks:
            raise ValueError("machine smaller than the mesh")
        self.machine = machine

        self.ctx = FifteenDContext(part, machine, config)
        kernels = {n: k(self.ctx, part.components[n]) for n, k in FIFTEEND_KERNELS.items()}
        self.mount(kernels, tracer, metrics, backend)

        self.num_vertices = part.num_vertices
        self.num_input_edges = part.total_arcs // 2
        # Held like ``ctx.masks``: a repair replaces ``part.vclass``, and
        # this engine keeps serving the generation it was built over.
        self.vertex_classes = part.vclass

    @property
    def cost(self):
        return self.ctx.cost

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(self, root: int, **resilience) -> BFSRunResult:
        """Run one BFS from ``root``; returns the validated-shape result.

        ``**resilience`` forwards the scheduler's optional
        ``faults``/``checkpointer``/``resume`` hooks and ``trace_id`` (see
        :meth:`~repro.core.kernels.scheduler.LevelSyncScheduler.run`).
        """
        return self.scheduler.run(root, **resilience)

    def run_program(self, program, **resilience):
        """Run a :class:`~repro.core.programs.base.VertexProgram` through
        the six 1.5D kernels.

        Binds the program to this engine's partition and enters
        :meth:`~repro.core.kernels.scheduler.LevelSyncScheduler.run_program`;
        the program inherits the engine's delegate-sync pricing, §4.2
        direction policy, per-class activation trace and §5 parent/state
        reduction through the same host hooks BFS uses.  ``**resilience``
        forwards ``faults``/``checkpointer``/``resume``/``trace_id``.
        """
        program.bind(self.part)
        return self.scheduler.run_program(program, **resilience)

    def run_batch(self, roots, *, faults=None, trace_id=None) -> MSBFSResult:
        """Traverse up to 64 distinct roots as one batched wave sequence
        (the bit-identity contract is in :mod:`repro.serve.msbfs`).

        ``faults`` forwards the scheduler's injector hook; a crash fault
        aborts the whole batch with a
        :class:`~repro.resilience.faults.RankCrashError` (recover with
        :func:`~repro.serve.msbfs.run_batch_with_recovery`, or let the
        service replay the batch from its queue).  ``trace_id`` (the
        request ids the batch serves) labels the ``msbfs`` span.
        """
        return self.scheduler.run_batch(roots, faults=faults, trace_id=trace_id)

    # ------------------------------------------------------------------
    # scheduler hooks (the 1.5D policy)
    # ------------------------------------------------------------------

    def begin_iteration(self, ledger, active, visited) -> None:
        self.ctx.charge_delegate_sync(
            ledger,
            class_count(active.counts, "E"),
            class_count(active.counts, "H"),
        )

    def iteration_direction(self, active, visited) -> str | None:
        if self.config.sub_iteration_direction:
            return None
        return choose_whole_iteration_direction(
            active.mask, visited.mask, self.part.degrees, self.config
        )

    def component_direction(self, name, active, visited) -> str:
        ratios = self.ctx.class_state.ratios(active.counts, visited.counts)
        return choose_component_direction(name, ratios, self.config)

    def record_activation(self, record: IterationRecord, next_active) -> None:
        for cls in ("E", "H", "L"):
            record.newly_activated[cls] = class_count(next_active.counts, cls)

    def end_iteration(self, ledger, record, active, visited, parent, next_active):
        if not self.config.delayed_reduction:
            self.ctx.charge_parent_reduction(ledger)

    def end_run(self, ledger, tracer, parent) -> None:
        if self.config.delayed_reduction:
            with tracer.span("parent_reduction", category="phase"):
                self.ctx.charge_parent_reduction(ledger)

    # ------------------------------------------------------------------
    # batched scheduler hooks (the same policy, per lane)
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
        # floats fed to ``pull_wins`` are each lane's sequential ones (a
        # class without members reads 0, as in ``ClassState.ratios``).
        src_cls, dst_cls = COMPONENT_CLASSES[name]
        sizes = self.ctx.class_state.sizes
        active_src = _class_counts(lanes.active_counts, src_cls) / max(
            sizes[src_cls], 1
        )
        unvisited_dst = (
            sizes[dst_cls] - _class_counts(lanes.visited_counts, dst_cls)
        ) / max(sizes[dst_cls], 1)
        pull = pull_wins(name, active_src, unvisited_dst, self.config)
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

"""The shared level-synchronous scheduler.

Every traversal engine in the repo — the 1.5D ``DistributedBFS`` (one
root, a vertex program or a 64-lane batch), the rank-explicit
``ReplayBFS`` and the 1D/2D baselines — executes through one
:class:`LevelSyncScheduler`, and the scheduler owns exactly one level
loop (:meth:`LevelSyncScheduler._drive`): per level it consults the fault
injector, stops on an empty frontier, prices the engine's frontier sync,
resolves each component's direction (whole-iteration or fresh
per-component), runs the mounted
:class:`~repro.core.kernels.base.ComponentKernel` set densest-first
inside ``component`` tracer spans, commits activations so later
sub-iterations of the same level see the fresh state (§4.2's freshness
rule), and snapshots at the checkpoint cadence.

What *differs* between a single-root BFS, a vertex program and a batched
wave — the traversal state, a component's direction(s), what one
sub-iteration executes and commits — lives in a small per-mode state
object (:class:`_LevelMode`) that ``run``, ``run_program`` and
``run_batch`` build and hand to the drive loop.

Engines differ only through the :class:`SchedulerHost` hooks they
implement: what a frontier sync costs, how directions are chosen, how
activations are recorded, and what happens at iteration/run end (eager
vs §5-delayed parent reduction, the replay's message routing and
delegate seeding).  One loop, one frontier/visited/parent semantics,
one tracing shape (``bfs``/``program``/``msbfs`` → ``iteration``/``wave``
→ ``component`` → charge leaves) for every engine and mode.

What a run reports to and is disturbed by travels as one
:class:`~repro.runtime.context.RunContext`.  The scheduler holds no sinks
of its own: each entry point derives the run's context once from the
host's :attr:`SchedulerHost.context` (the engine's tracer and metrics)
plus the run's ``faults`` / ``checkpointer`` / ``trace_id``, and the mode
and the drive loop read that one object.

Because the loop is shared, so is the metrics surface: build an engine
with ``metrics=`` a :class:`~repro.obs.metrics.MetricsRegistry` and
every engine emits the same aggregate families with zero per-engine
code — per-component
``edges_scanned``/``messages``/``activated``/``subiterations`` counters
labeled by ``component`` and chosen ``direction``, ``subiteration_skips``
for empty components, ``direction_mode`` (fresh per-component vs whole
iteration) freshness counts, the ``frontier_size`` histogram, and the
comm/compute families documented in :mod:`repro.runtime.ledger`.  The
registry is not called while a run goes: when the run ends — crashed or
not — its ledger events and the iteration records of the levels it
completed are folded into the registry, once per family and label set.  The run reads ``metrics.enabled`` once; an unmetered run
calls no sink of the registry.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.core.lanes import LaneState, OneLaneState
from repro.core.metrics import BFSRunResult, IterationRecord, MSBFSResult
from repro.core.vertexset import VertexSet
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import Tracer
from repro.runtime.backends.base import SimulatedBackend
from repro.runtime.context import NULL_CONTEXT, RunContext, run_context
from repro.runtime.ledger import TrafficLedger

__all__ = [
    "LevelSyncScheduler",
    "SchedulerHost",
]


class SchedulerHost:
    """Hook surface an engine exposes to the scheduler.

    Subclasses must set :attr:`num_vertices`, :attr:`num_input_edges`,
    a ``config`` with ``max_iterations``, and a ``cost`` model; every
    hook has a neutral default so a minimal engine only overrides what
    its scheme actually charges.
    """

    #: Total vertices (size of the parent/visited/frontier arrays).
    num_vertices: int
    #: Undirected input edges, reported on the run result.
    num_input_edges: int
    #: Per-vertex class codes a run keeps its running counts by (the
    #: frontier / visited :class:`~repro.core.vertexset.VertexSet` of a
    #: single traversal, the per-lane counts of a batch); ``None`` for a
    #: scheme without degree classes.
    vertex_classes: np.ndarray | None = None
    #: The engine's sinks, built once from its ``tracer=`` / ``metrics=``
    #: keywords; every run's context is derived from this one.
    context: RunContext = NULL_CONTEXT
    tracer = property(lambda self: self.context.tracer)
    metrics = property(lambda self: self.context.metrics)

    def mount(self, kernels, tracer=None, metrics=None, backend=None) -> None:
        """Fold the engine's public ``tracer=`` / ``metrics=`` keywords into
        its one :attr:`context` and mount ``kernels`` on its scheduler."""
        self.kernels = kernels
        self.context = run_context(tracer, metrics)
        self.scheduler = LevelSyncScheduler(self, kernels, backend=backend)

    def make_ledger(self, tracer: Tracer, metrics=NULL_METRICS) -> TrafficLedger:
        return TrafficLedger(self.cost, tracer=tracer, metrics=metrics)

    def seed(self, root: int) -> None:
        """Install the root into any engine-private state (the scheduler
        already seeded its own parent/visited/frontier arrays)."""

    def restore(self, root: int, parent, visited, active) -> None:
        """Rebuild engine-private state from checkpointed global arrays,
        ``visited`` and ``active`` as boolean masks (called instead of
        :meth:`seed` when resuming mid-traversal).
        Stateless hosts — every analytic engine — need nothing: their
        per-iteration inputs are exactly the global arrays the scheduler
        restored.  The replay engine overrides this to re-shard the
        arrays into its per-rank state."""

    # ``active`` / ``visited`` / ``next_active`` below are the run's
    # :class:`~repro.core.vertexset.VertexSet` objects: read ``counts``
    # and ``len`` for populations, ``ids`` for members, ``mask`` for
    # membership.

    def begin_iteration(self, ledger, active, visited) -> None:
        """Price whatever the scheme exchanges before ranks may expand
        (delegate frontier syncs, barriers)."""

    def iteration_direction(self, active, visited) -> str | None:
        """One direction for the whole iteration, or ``None`` to ask
        :meth:`component_direction` freshly per sub-iteration."""
        return None

    def component_direction(self, name, active, visited) -> str:
        """Direction for one component, measured against the *latest*
        visited state (only consulted when :meth:`iteration_direction`
        returned ``None``)."""
        raise NotImplementedError

    def record_activation(self, record: IterationRecord, next_active) -> None:
        """Fill ``record.newly_activated`` in the scheme's granularity."""

    def end_iteration(
        self, ledger, record, active, visited, parent, next_active
    ) -> None:
        """Iteration-end work: eager parent reduction, or (for the
        replay) routing buffered messages and committing activations
        (``parent[ids] = ...``, ``visited.add(ids)``,
        ``next_active.add(ids, counts)`` with the counts the first
        ``add`` returned)."""

    def end_run(self, ledger, tracer: Tracer, parent) -> None:
        """Run-end work (inside the ``bfs`` span): the §5 delayed parent
        reduction, final barriers, delegate parent merges."""

    # -- batched-wave hooks (multi-source runs; see ``run_batch``) ------

    def begin_batch_iteration(self, ledger, lanes) -> None:
        """Price the batched frontier sync of one wave."""

    def batch_iteration_directions(self, lanes):
        """``(push_mask, pull_mask)`` lane groups for the whole wave, or
        ``None`` to ask :meth:`batch_component_directions` freshly per
        sub-iteration (mirrors :meth:`iteration_direction`)."""
        return None

    def batch_component_directions(self, name, lanes) -> tuple:
        """``(push_mask, pull_mask)`` lane groups for one component,
        decided per lane from the latest running counts of ``lanes`` —
        each lane gets the direction its sequential run would have
        chosen."""
        raise NotImplementedError

    def record_batch_activation(self, record: IterationRecord, newly) -> None:
        """Fill ``record.newly_activated`` from the wave's activation
        counts ``newly[lane, class]`` (the lane words are
        ``lanes.newly``)."""

    def end_batch_iteration(self, ledger, record, lanes, newly) -> None:
        """Wave-end work (eager parent reductions, barriers); ``newly``
        as in :meth:`record_batch_activation`."""

    def end_batch_run(self, ledger, tracer: Tracer, lanes) -> None:
        """Batch-end work (the §5 delayed parent reduction, per lane)."""


class LevelSyncScheduler:
    """Runs a kernel set level-synchronously on behalf of a host."""

    def __init__(
        self,
        host: SchedulerHost,
        kernels: dict[str, "ComponentKernel"],
        *,
        backend=None,
    ) -> None:
        #: Also the source of every run's sinks (``host.context``).
        self.host = host
        #: Execution order within an iteration is the mounting order —
        #: densest (highest-degree endpoints) first for the 1.5D set.
        self.kernels = kernels
        #: The execution seam every sub-iteration goes through (tests
        #: and benches substitute a timing one).
        self.backend = backend if backend is not None else SimulatedBackend()

    # ------------------------------------------------------------------
    # entry points: build the mode, hand it to the one drive loop
    # ------------------------------------------------------------------

    def run(
        self,
        root: int,
        *,
        faults=None,
        checkpointer=None,
        resume=None,
        trace_id=None,
    ) -> BFSRunResult:
        """Run one BFS from ``root``; returns the validated-shape result.

        ``trace_id`` (a serving request id) labels the root ``bfs``
        span; pure labeling, never read by the loop.

        Resilience hooks (all default-off, leaving the fault-free path
        bit-identical):

        faults:
            A :class:`~repro.resilience.faults.FaultInjector`.  It is
            installed on the run's ledger (the charge choke point every
            engine shares) and consulted at each iteration boundary, so
            crash faults abort the run with a
            :class:`~repro.resilience.faults.RankCrashError` annotated
            with the partial ledger and completed-iteration count.
        checkpointer:
            A :class:`~repro.resilience.checkpoint.LevelCheckpointer`;
            after each level whose index matches the cadence, the
            committed ``parent``/``visited``/``active`` state and the
            per-iteration records are snapshotted and the write cost is
            charged to the ledger as a ``checkpoint``-phase collective.
        resume:
            A :class:`~repro.resilience.checkpoint.Checkpoint` to
            continue from instead of seeding from scratch: the scheduler
            restores the snapshot's state and records, charges the
            restore broadcast, asks the host to
            :meth:`~SchedulerHost.restore` its private state, and
            re-enters the level loop at the snapshot's next iteration
            (``iteration = k - 1`` re-runs levels ``k`` onward).  The
            snapshot need not have been captured live: the incremental
            patcher (:mod:`repro.dynamic.patch`) builds one from a
            repaired result's unaffected level prefix.
        """
        n = self.host.num_vertices
        if not 0 <= root < n:
            raise ValueError(f"root {root} out of range for n={n}")
        ctx = self.host.context.derive(faults, checkpointer, trace_id)
        return self._drive(_BFSMode(self, ctx, root), resume)

    def run_program(
        self,
        program,
        *,
        faults=None,
        checkpointer=None,
        resume=None,
        trace_id=None,
    ):
        """Run a bound :class:`~repro.core.programs.base.VertexProgram`
        through the mounted kernel set.

        The loop is the BFS level loop with the commit step generalized:
        instead of parent/visited bookkeeping, each component hands its
        selected arcs to the program's gather → combine → apply and the
        union of activations feeds ``program.end_iteration``, which
        returns the next frontier (or ``None`` when converged).  Faults,
        checkpointing (the snapshot's state is whatever
        ``program.snapshot()`` declares), spans (``program`` →
        ``iteration`` → ``component``), and the per-component metric
        families all come from the shared loop — zero per-algorithm
        glue.  A ``resume`` with ``iteration = -1`` is a fresh run seeded
        with arbitrary prior state — how the dynamic layer re-converges
        SSSP from patched distances instead of recomputing from the root.
        """
        self._require("supports_programs", "vertex programs")
        ctx = self.host.context.derive(faults, checkpointer, trace_id)
        return self._drive(_ProgramMode(self, ctx, program), resume)

    def run_batch(self, roots, *, faults=None, trace_id=None) -> MSBFSResult:
        """Run up to 64 BFS lanes as one level-synchronous traversal.

        Each *wave* advances every live lane by one level: the host
        prices one shared frontier sync, each component picks a
        direction *per lane* (grouping lanes so every lane still gets
        the direction — and therefore the parents — of its sequential
        run), and each direction group executes the component once for
        all its lanes.  Traffic is charged through the same ledger choke
        point as sequential runs, with lane-word message sizes.

        ``faults`` mirrors :meth:`run`: crash faults abort the *batch*
        with a :class:`~repro.resilience.faults.RankCrashError` annotated
        with the partial ledger — callers replay the whole batch
        (checkpoint/resume is per-root machinery and is not supported
        here).  ``trace_id`` labels the ``msbfs`` span with the request
        ids the batch serves.
        """
        self._require("supports_lanes", "batched waves")
        ctx = self.host.context.derive(faults, None, trace_id)
        return self._drive(_WaveMode(self, ctx, roots), None)

    def _require(self, capability: str, what: str) -> None:
        for name, kernel in self.kernels.items():
            if kernel.num_arcs and not getattr(kernel, capability):
                raise NotImplementedError(
                    f"kernel {name} does not support {what}"
                )

    # ------------------------------------------------------------------
    # the one level loop
    # ------------------------------------------------------------------

    def _drive(self, mode, resume):
        """Drive ``mode`` level by level (see :class:`_LevelMode`) under
        the one context its run was given."""
        ctx = mode.ctx
        tracer, metrics, faults = ctx.tracer, ctx.metrics, ctx.faults
        checkpointer = ctx.checkpointer
        ledger = self.host.make_ledger(tracer, metrics)
        if faults.enabled:
            ledger.faults = faults

        if resume is None:
            records: list[IterationRecord] = []
            start_it = 0
            mode.seed()
        else:
            if resume.key != mode.key:
                raise ValueError(
                    f"resume snapshot is for {resume.key!r}, not {mode.key!r}"
                )
            records = list(resume.records)
            start_it = resume.iteration + 1
            mode.restore(resume.state, resume.active.copy())
            if checkpointer is not None and resume.iteration >= 0:
                checkpointer.charge_restore(ledger, resume)
        first = len(records)

        request = {} if ctx.trace_id is None else {"trace_id": ctx.trace_id}
        with tracer.span(mode.span, category="bfs", **mode.attrs, **request):
            try:
                for it in range(start_it, mode.max_iterations):
                    faults.begin_iteration(it)
                    frontier = mode.frontier_size()
                    if frontier == 0:
                        break
                    with tracer.span(
                        mode.level_span, category="iteration", index=it,
                        frontier=frontier,
                    ):
                        record = IterationRecord(index=it, frontier_size=frontier)
                        record.direction_mode = mode.begin_level(it, ledger)
                        for name, kernel in self.kernels.items():
                            if kernel.num_arcs == 0:
                                record.directions[name] = "-"
                                continue
                            self._component(mode, name, kernel, it, ledger, record)
                        mode.end_level(it, ledger, record)
                        records.append(record)

                    # Level committed: snapshot at the consistency point
                    # the level-synchronous structure guarantees.
                    if checkpointer is not None and checkpointer.due(it):
                        snapshot = mode.snapshot()
                        if snapshot is not None:
                            state, active = snapshot
                            checkpointer.save(
                                ledger=ledger, key=mode.key, iteration=it,
                                state=state, active=active, records=records,
                            )
                mode.end_run(ledger, tracer)
            except Exception as exc:
                # Annotate a simulated crash with what the aborted
                # attempt cost, then let the recovery policy take over.
                from repro.resilience.faults import RankCrashError

                if isinstance(exc, RankCrashError):
                    exc.ledger = ledger
                    exc.completed_iterations = len(records)
                raise
            finally:
                faults.end_run()
                if metrics.enabled:
                    ledger.publish()
                    self._publish(mode, resume is not None, records[first:])
        return mode.result(ledger, records)

    def _component(self, mode, name, kernel, it, ledger, record) -> None:
        """One component's sub-iteration(s): a span per direction the
        mode asks for (one for a single traversal; up to two lane groups
        for a wave)."""
        tracer = mode.ctx.tracer
        groups = record.activated[name] = {}
        for direction, group in mode.directions(name):
            with tracer.span(
                name, category="component", iteration=it, direction=direction
            ) as csp:
                activated = mode.execute(kernel, direction, group, ledger, record)
                csp.add_counter("edges", record.scanned_arcs.get(name, 0))
                if record.messages.get(name, 0):
                    csp.add_counter("messages", record.messages[name])
                csp.add_counter("activated", activated)
            groups[direction] = int(activated)
        # A wave that ran both lane groups records "push|pull"; its
        # arc/message totals are per component, not per group.
        record.directions[name] = "|".join(groups) or "-"

    def _publish(self, mode, resumed: bool, levels) -> None:
        """Fold a metered run's loop families into its registry, one
        accessor call per family and label set: the run counter, then
        what the record of each level it completed holds.  The counts are
        integers, so a run's total adds exactly what per-level
        increments would have."""
        metrics = mode.ctx.metrics
        counts = Counter({(mode.resumes if resumed else mode.runs, mode.labels): 1})
        for record in levels:
            counts[mode.level_counter, mode.labels] += 1
            counts["direction_mode", (("mode", record.direction_mode),)] += 1
            for name, direction in record.directions.items():
                if self.kernels[name].num_arcs == 0:
                    counts["subiteration_skips", (("component", name),)] += 1
                    continue
                labels = (("component", name), ("direction", direction))
                counts["edges_scanned", labels] += record.scanned_arcs.get(name, 0)
                counts["messages", labels] += record.messages.get(name, 0)
            for name, groups in record.activated.items():
                for direction, activated in groups.items():
                    labels = (("component", name), ("direction", direction))
                    counts["subiterations", labels] += 1
                    counts["activated", labels] += activated
        for (family, labels), total in counts.items():
            metrics.counter(family, **dict(labels)).inc(total)
        if levels:
            metrics.histogram("frontier_size").observe_many(
                np.array([record.frontier_size for record in levels])
            )
        mode.publish(metrics, levels)


# ----------------------------------------------------------------------
# traversal modes: what the drive loop is generic over
# ----------------------------------------------------------------------


class _LevelMode:
    """Per-run state the drive loop is generic over.

    A mode owns the traversal state (frontier, visited/parent arrays, a
    program's values, lane words) and its run's
    :class:`~repro.runtime.context.RunContext` (``ctx``), and answers
    the questions the loop cannot; the loop owns everything else —
    fault hooks, spans, the shared metric families, skip handling, crash
    annotation, checkpoint cadence.  The contract, in call order:

    ``seed()`` / ``restore(state, active)``
        Initialize state for a fresh run, or from a snapshot.
    ``frontier_size()``
        Current frontier population; 0 ends the run.
    ``begin_level(it, ledger)``
        Price the frontier sync through the host, reset per-level
        scratch; returns the ``direction_mode`` label.
    ``directions(name)``
        The ``(direction, lane_group)`` pairs component ``name`` runs.
    ``execute(kernel, direction, group, ledger, record)``
        Run one sub-iteration through the backend and commit it so the
        next one sees fresh state; returns the activation count.
    ``end_level(it, ledger, record)``
        Host end-of-level hooks; advance the frontier.
    ``snapshot()``
        ``(state, active)`` to checkpoint after a level, or ``None``.
    ``end_run(ledger, tracer)`` / ``result(ledger, records)``
        Run-end host hooks (inside the root span); the mode's result.
    ``publish(metrics, levels)``
        A metered run's mode-specific families, folded when it ends.
    """

    #: Root span name; ``attrs`` are its identifying attributes.
    span: str
    #: Per-level span name (``iteration`` or ``wave``).
    level_span = "iteration"
    #: Counters of a fresh and of a resumed run, and of each executed
    #: level, all with :attr:`labels`.
    runs: str
    resumes: str | None = None
    level_counter: str
    #: The mode's ``(label, value)`` pairs.
    labels: tuple = ()
    #: Identity a resume snapshot must match (root / program name).
    key = None

    def __init__(self, scheduler: LevelSyncScheduler, ctx: RunContext) -> None:
        self.host = scheduler.host
        self.backend = scheduler.backend
        self.ctx = ctx
        self.n = self.host.num_vertices
        self.vclass = self.host.vertex_classes
        self.max_iterations = self.host.config.max_iterations

    # Single-traversal defaults: one frontier set ``active``, one
    # direction per component — the level's ``whole`` choice, or the
    # host's fresh measurement against ``visited``.

    def frontier_size(self) -> int:
        return 0 if self.active is None else len(self.active)

    def directions(self, name):
        direction = self.whole
        if direction is None:
            direction = self.host.component_direction(
                name, self.active, self.visited
            )
        return ((direction, None),)

    def snapshot(self):
        return None

    def publish(self, metrics, levels) -> None:
        pass


class _BFSMode(_LevelMode):
    """Single-root BFS: a parent array, and the visited set and the
    frontier as :class:`~repro.core.vertexset.VertexSet` objects that
    grow only through ``add`` — a level costs its frontier, not ``n``."""

    span = "bfs"
    runs, resumes, level_counter = "bfs_runs", "bfs_resumes", "iterations"

    def __init__(self, scheduler, ctx, root: int) -> None:
        super().__init__(scheduler, ctx)
        self.key = root
        self.attrs = {"root": root}

    def seed(self) -> None:
        root = np.array([self.key], dtype=np.int64)
        self.parent = np.full(self.n, -1, dtype=np.int64)
        self.parent[root] = root
        self.visited = VertexSet(self.n, self.vclass)
        self.visited.add(root)
        self.active = VertexSet(self.n, self.vclass)
        self.active.add(root)
        self.host.seed(self.key)

    def restore(self, state, active) -> None:
        self.parent = state["parent"].copy()
        visited = np.unpackbits(state["visited"], count=self.n).astype(bool)
        self.visited = VertexSet.from_mask(visited, self.vclass)
        self.active = VertexSet.from_mask(active, self.vclass)
        self.host.restore(self.key, self.parent, visited, active)

    def begin_level(self, it, ledger) -> str:
        self.host.begin_iteration(ledger, self.active, self.visited)
        self.next_active = VertexSet(self.n, self.vclass)
        self.whole = self.host.iteration_direction(self.active, self.visited)
        return "fresh" if self.whole is None else "whole"

    def execute(self, kernel, direction, group, ledger, record) -> int:
        newly, parents = self.backend.execute(
            kernel, direction, self.active, self.visited, ledger, record
        )
        if newly.size:
            self.parent[newly] = parents
            self.next_active.add(newly, self.visited.add(newly))
        return newly.size

    def end_level(self, it, ledger, record) -> None:
        self.host.record_activation(record, self.next_active)
        self.host.end_iteration(
            ledger, record, self.active, self.visited, self.parent,
            self.next_active,
        )
        self.active = self.next_active

    def snapshot(self):
        # Bit-packed visited: the snapshot charges what a rank persists.
        state = {"parent": self.parent, "visited": np.packbits(self.visited.mask)}
        return state, self.active.mask

    def end_run(self, ledger, tracer) -> None:
        self.host.end_run(ledger, tracer, self.parent)

    def result(self, ledger, records) -> BFSRunResult:
        return BFSRunResult(
            root=self.key,
            parent=self.parent,
            iterations=records,
            ledger=ledger,
            total_seconds=ledger.total_seconds,
            num_input_edges=self.host.num_input_edges,
            metrics=self.ctx.metrics,
        )


class _ProgramMode(_LevelMode):
    """A vertex program: the program owns the values, the frontier is
    whatever its ``end_iteration`` returns (``None`` = converged).  The
    program speaks masks and its settled set is not monotone, so the
    sets the host hooks read are rebuilt from masks, once each per
    level."""

    span = "program"
    runs, resumes = "program_runs", "program_resumes"
    level_counter = "program_iterations"

    def __init__(self, scheduler, ctx, program) -> None:
        super().__init__(scheduler, ctx)
        self.program = program
        self.key = program.name
        self.attrs = {"program": program.name}
        self.labels = (("program", program.name),)
        self.max_iterations = program.max_iterations

    def seed(self) -> None:
        self.active = VertexSet.from_mask(
            self.program.initial_frontier(), self.vclass
        )

    def restore(self, state, active) -> None:
        self.program.restore(state)
        self.active = VertexSet.from_mask(active, self.vclass)

    def begin_level(self, it, ledger) -> str:
        program = self.program
        # The settled mask is the program's "visited" proxy for the
        # direction heuristics and the delegate-sync pricing.
        self.visited = VertexSet.from_mask(program.settled_mask(), self.vclass)
        self.host.begin_iteration(ledger, self.active, self.visited)
        program.begin_iteration(it, self.active.mask)
        self.touched = np.zeros(self.n, dtype=bool)
        if program.forced_direction is None and program.supports_pull:
            self.whole = None
            return "fresh"
        self.whole = program.forced_direction or "push"
        return "forced"

    def execute(self, kernel, direction, group, ledger, record) -> int:
        newly = self.backend.execute_program(
            kernel, self.program, direction, self.active, ledger, record
        )
        if newly.size:
            self.touched[newly] = True
        return newly.size

    def end_level(self, it, ledger, record) -> None:
        touched = VertexSet.from_mask(self.touched, self.vclass)
        self.host.record_activation(record, touched)
        next_active = self.program.end_iteration(
            it, self.active.mask, touched.mask
        )
        if next_active is not None:
            next_active = VertexSet.from_mask(next_active, self.vclass)
        self.host.end_iteration(
            ledger, record, self.active, self.visited, None, next_active
        )
        self.active = next_active

    def snapshot(self):
        # Program state is the consistency point, exactly like the level
        # commit in BFS; a converged program has nothing left to resume.
        if self.active is None:
            return None
        return self.program.snapshot(), self.active.mask

    def end_run(self, ledger, tracer) -> None:
        self.host.end_run(ledger, tracer, None)
        self.program.end_run()

    def publish(self, metrics, levels) -> None:
        # ``record_activation`` splits the touched set by class, so its
        # counts add up to the level's updates.
        if levels:
            updates = sum(sum(r.newly_activated.values()) for r in levels)
            metrics.counter("program_updates", **dict(self.labels)).inc(updates)

    def result(self, ledger, records):
        from repro.core.programs.base import ProgramRunResult

        program = self.program
        return ProgramRunResult(
            program=program.name,
            state=program.state_arrays(),
            iterations=records,
            ledger=ledger,
            num_input_edges=self.host.num_input_edges,
            converged=program.converged,
            info=program.info(),
        )


class _WaveMode(_LevelMode):
    """Up to 64 BFS lanes: lane words instead of booleans, and each
    component runs once per non-empty direction group of lanes."""

    span = "msbfs"
    level_span = "wave"
    runs, level_counter = "msbfs_batches", "msbfs_waves"

    def __init__(self, scheduler, ctx, roots) -> None:
        super().__init__(scheduler, ctx)
        # A batch of one keeps its lane's VertexSets, which execute()
        # runs through the single-source path.
        one = np.size(roots) == 1
        self.lanes = (OneLaneState if one else LaneState)(self.n, roots, self.vclass)
        self.attrs = {"lanes": self.lanes.num_lanes}
        self.lane_frontiers: list[np.ndarray] = []
        self.lane_directions: list[dict] = []

    def seed(self) -> None:
        pass

    def publish(self, metrics, levels) -> None:
        metrics.histogram("msbfs_batch_lanes").observe(self.lanes.num_lanes)

    def frontier_size(self) -> int:
        self.per_lane = self.lanes.frontier_sizes()
        return int(self.per_lane.sum())

    def begin_level(self, it, ledger) -> str:
        self.host.begin_batch_iteration(ledger, self.lanes)
        self.whole = self.host.batch_iteration_directions(self.lanes)
        self.level_directions = {}
        return "fresh" if self.whole is None else "whole"

    def directions(self, name):
        masks = self.whole
        if masks is None:
            masks = self.host.batch_component_directions(name, self.lanes)
        push_mask, pull_mask = masks
        self.level_directions[name] = (int(push_mask), int(pull_mask))
        return [
            (direction, group)
            for direction, group in (("push", push_mask), ("pull", pull_mask))
            if int(group)
        ]

    def execute(self, kernel, direction, group, ledger, record) -> int:
        lanes = self.lanes
        if lanes.num_lanes == 1:
            # A batch of one runs its lane's single-source sub-iteration
            # on the lane's own sets: the same arcs, parents and charges
            # (one lane's wire width is the single-source width).
            return lanes.add(*self.backend.execute(
                kernel, direction, lanes.frontier, lanes.seen, ledger, record
            ))
        acts = self.backend.execute_lanes(
            kernel, direction, group, lanes, ledger, record
        )
        return lanes.commit(acts) if len(acts) else 0

    def end_level(self, it, ledger, record) -> None:
        lanes = self.lanes
        self.host.record_batch_activation(record, lanes.newly_counts)
        self.host.end_batch_iteration(ledger, record, lanes, lanes.newly_counts)
        self.lane_frontiers.append(self.per_lane)
        self.lane_directions.append(self.level_directions)
        lanes.advance()

    def end_run(self, ledger, tracer) -> None:
        self.host.end_batch_run(ledger, tracer, self.lanes)

    def result(self, ledger, records) -> MSBFSResult:
        return MSBFSResult(
            roots=self.lanes.roots,
            parent=self.lanes.parent,
            records=records,
            lane_frontiers=self.lane_frontiers,
            lane_directions=self.lane_directions,
            ledger=ledger,
            total_seconds=ledger.total_seconds,
            num_input_edges=self.host.num_input_edges,
            metrics=self.ctx.metrics,
        )

"""The admission-controlled traversal service.

A synchronous core (one :class:`~repro.core.engine.DistributedBFS`,
run on executor threads) behind an asyncio front:

1. **Admission.**  :meth:`TraversalService.submit` answers from the
   :class:`~repro.serve.cache.ResultCache` when it can; otherwise the
   request enters a *bounded* queue.  Queued requests and in-flight
   program runs share ``queue_depth``; at that bound the request is
   shed with a typed :class:`Overloaded` — the queue can never grow
   without bound, and shedding is an exception the client handles, not
   a dropped future.
2. **Batching.**  A single flusher coroutine pops the oldest request
   and fills its batch with
   :meth:`~repro.serve.core.ServingCore.fill`: the batch leaves when it
   holds ``batch_size`` distinct roots or ``batch_window`` seconds after
   it opened.  Duplicate roots share one lane.
3. **Traversal.**  The batch runs as one multi-source wave sequence on
   the executor; every lane's parent tree is bit-identical to a
   sequential run, so serving batched is *not* an approximation.
4. **Resilience.**  A mid-batch injected rank crash affects only that
   batch: its requests are replayed from the front of the queue, each
   charged one attempt, and a request fails with a typed
   :class:`TraversalError` once *its own* attempts exceed
   ``max_replays``.  Other batches are untouched.

Everything after a batch is picked — the executor hop, staged latency
observation into ``serve_latency_seconds``, cache fill, future
resolution, the per-request trace ids and :class:`RequestTimeline` ring
— is :mod:`repro.serve.core`, shared with the multi-tenant
:class:`~repro.cluster.service.ClusterService`.  What this module owns
is the tenancy (one graph, one FIFO), the crash policy (replay in
place) and vertex-program serving.  The service holds no tracer: when
the served engine is traced (its ``tracer=``), each batch's request ids
label its ``msbfs`` span and a served program's id its ``program``
span, so the Chrome trace renders each served request on its own
track.
"""

from __future__ import annotations

import asyncio
import functools
import time
from collections import OrderedDict, deque

from repro.obs.metrics import NULL_METRICS
from repro.serve.cache import ResultCache
from repro.serve.core import (
    LATENCY_BUCKETS,
    IngestReport,
    LatencyReservoir,
    Overloaded,
    Request,
    RequestTimeline,
    ResidentGraph,
    ServeScope,
    ServeStats,
    ServingCore,
    TraversalError,
    TraversalResponse,
)

__all__ = [
    "IngestReport",
    "Overloaded",
    "TraversalError",
    "TraversalResponse",
    "TraversalService",
    "ServeStats",
    "LatencyReservoir",
    "RequestTimeline",
    "LATENCY_BUCKETS",
]

_DEFAULT_CACHE = object()


class TraversalService:
    """Batched BFS serving over one loaded graph."""

    def __init__(
        self,
        engine,
        *,
        cache=_DEFAULT_CACHE,
        queue_depth: int = 256,
        batch_size: int = 64,
        batch_window: float = 0.002,
        max_replays: int = 2,
        faults=None,
        metrics=NULL_METRICS,
        clock=time.monotonic,
        timeline_capacity: int = 1024,
        dynamic=None,
    ) -> None:
        from repro.serve.msbfs import MAX_BATCH_ROOTS

        if not 1 <= batch_size <= MAX_BATCH_ROOTS:
            raise ValueError(f"batch_size must be in [1, {MAX_BATCH_ROOTS}]")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if batch_window < 0:
            raise ValueError("batch_window must be >= 0")
        self.queue_depth = int(queue_depth)
        self.batch_size = int(batch_size)
        self.batch_window = float(batch_window)
        self.max_replays = int(max_replays)
        #: The served graph.  ``dynamic`` is an IncrementalGraph over
        #: the engine's edge set; batches applied through
        #: ingest_updates() repair it, swap in a rebuilt engine and
        #: partially invalidate the cache.
        self.graph = ResidentGraph(
            engine,
            cache=(
                ResultCache(metrics=metrics)
                if cache is _DEFAULT_CACHE
                else cache
            ),
            dynamic=dynamic,
        )
        self.stats = self.graph.stats
        self.metrics = metrics
        self._scope = ServeScope(metrics, "serve", (self.stats,))
        self._core = ServingCore(
            clock=clock, timeline_capacity=timeline_capacity, faults=faults
        )
        self._queue: deque[Request] = deque()
        self._wake = asyncio.Event()
        self._flusher: asyncio.Task | None = None
        self._closed = True
        # Non-BFS program serving: single executions on the served
        # engine bypass the MSBFS batcher but share the
        # admission bound (queue + in-flight) and get their own result
        # cache (program outputs are state dicts, not parent arrays).
        self._inflight_programs = 0
        self._program_cache: "OrderedDict[tuple, dict]" = OrderedDict()
        self._program_cache_capacity = 256
        self._ingest_lock = asyncio.Lock()

    @property
    def engine(self):
        """The engine of the generation being served."""
        return self.graph.batched

    @property
    def graph_fingerprint(self) -> str:
        return self.graph.fingerprint

    def request_timeline(self, trace_id: str) -> RequestTimeline | None:
        """The staged timeline of a recently served request, or ``None``
        once it aged out of the bounded ring (or never existed)."""
        return self._core.request_timeline(trace_id)

    @property
    def pending(self) -> int:
        return len(self._queue) + self._inflight_programs

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        if self._flusher is not None:
            raise RuntimeError("service already started")
        self._closed = False
        self._wake = asyncio.Event()
        self._flusher = asyncio.create_task(self._flush_loop())

    async def stop(self) -> None:
        """Drain the queue, finish in-flight batches, stop the flusher."""
        self._closed = True
        self._wake.set()
        if self._flusher is not None:
            await self._flusher
            self._flusher = None

    async def __aenter__(self) -> "TraversalService":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    def reload_graph(self, engine) -> None:
        """Swap the served graph; cached results of the old generation
        are invalidated (the fingerprint changes with the graph)."""
        self.graph.swap(engine)
        self._program_cache.clear()

    # ------------------------------------------------------------------
    # streaming ingestion
    # ------------------------------------------------------------------

    async def ingest_updates(self, batches) -> IngestReport:
        """Apply edge-update batches to the served graph, live.

        Requires the service to have been built with
        ``dynamic=IncrementalGraph(...)`` over the same edge set as the
        engine.  See :meth:`~repro.serve.core.ResidentGraph.ingest`: the
        repair runs on the executor while queries keep flowing, then
        engine, fingerprint and cache delta move atomically between
        query batches.  The cache is *partially* invalidated: only
        entries whose parent tree intersects the delta's touched
        vertices are evicted; the rest are re-keyed to the repaired
        graph and keep serving.

        Ingestions are serialized by an internal lock; queries are not
        blocked by it.
        """
        async with self._ingest_lock:
            report = await self.graph.ingest(batches, self._scope)
            self._program_cache.clear()
            return report

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------

    async def submit(
        self, root: int | None = None, *, program: str = "bfs", **params
    ) -> TraversalResponse:
        """Serve one query.

        ``program="bfs"`` (the default) is the batched traversal path
        and requires ``root``.  Any other registered program name runs
        as a single execution on the executor — see
        :meth:`_submit_program` — with ``params`` forwarded to
        :func:`~repro.core.programs.build_program` (SSSP programs are
        served with unit weights; the service holds no weight table).

        Raises :class:`Overloaded` when the queue is full (admission
        control) and :class:`TraversalError` when the query exhausted
        its crash-replay budget.
        """
        if self._closed:
            raise RuntimeError("service is not running")
        if program != "bfs":
            return await self._submit_program(program, root, params)
        if params:
            raise ValueError(
                f"bfs queries take no parameters (got {sorted(params)})"
            )
        if root is None:
            raise ValueError("bfs queries require a root")
        root = int(root)
        if not 0 <= root < self.graph.num_vertices:
            raise ValueError(f"root {root} out of range")
        request = self._core.begin(self._scope, root)
        hit = self._core.lookup(self.graph, self._scope, request)
        if hit is not None:
            return hit
        if self.pending >= self.queue_depth:
            raise self._core.shed(
                self._scope, request, self.pending, self.queue_depth
            )
        future = self._core.admit(self._scope, request)
        self._queue.append(request)
        self._scope.gauge("queue_depth").set(len(self._queue))
        self._wake.set()
        return await future

    # ------------------------------------------------------------------
    # vertex-program serving (single execution, no batching)
    # ------------------------------------------------------------------

    def _count_program(self, program: str, outcome: str) -> None:
        self._scope.counter("programs", program=program, outcome=outcome).inc()

    async def _submit_program(
        self, program: str, root: int | None, params: dict
    ) -> TraversalResponse:
        """Serve one non-BFS program query.

        Single execution on the executor (multi-source lane batching is
        visited-bit machinery; value programs run whole-graph sweeps),
        bounded by the same ``queue_depth`` admission control as BFS
        queries — queued batch requests and in-flight program runs share
        the budget.  Default-parameter queries are answered from a
        bounded per-``(program, root)`` cache keyed alongside the graph
        fingerprint; parameterized queries always execute.
        """
        from repro.core.programs import PROGRAM_REGISTRY, build_program

        spec = PROGRAM_REGISTRY.get(program)
        if spec is None:
            names = ", ".join(sorted(PROGRAM_REGISTRY))
            raise ValueError(
                f"unknown program {program!r} (available: {names})"
            )
        run_params = dict(params)
        if "root" in spec.params:
            if root is None:
                raise ValueError(f"program {program!r} requires a root")
            root = int(root)
            if not 0 <= root < self.graph.num_vertices:
                raise ValueError(f"root {root} out of range")
            run_params["root"] = root
        elif root is not None:
            raise ValueError(f"program {program!r} does not take a root")
        # Built before admission: a rejected name or value is the
        # caller's ValueError, never an admitted request.  Every replay
        # reuses it (run_program re-binds the program's state).
        engine = self.graph.batched
        prog = build_program(program, engine.part, **run_params)

        core, scope = self._core, self._scope
        request = core.begin(scope, -1 if root is None else root, program)
        cacheable = not params
        key = (self.graph.fingerprint, program, request.root)
        if cacheable:
            hit = self._program_cache.get(key)
            if hit is not None:
                self._program_cache.move_to_end(key)
                self._count_program(program, "cached")
                return core.cached(
                    scope, request, parent=hit["state"].get("parent"), **hit
                )
        if self.pending >= self.queue_depth:
            self._count_program(program, "shed")
            raise core.shed(scope, request, self.pending, self.queue_depth)

        self._inflight_programs += 1
        future = core.admit(scope, request)
        traverse = functools.partial(
            engine.run_program, prog, faults=core.faults,
            trace_id=core.trace_id(engine, [request]),
        )
        try:
            while True:
                t_exec = core.clock()
                result, crashed = await core.execute(scope, [request], traverse)
                if result is not None:
                    break
                if crashed:
                    self._count_program(program, "crashed")
                    if core.charge_replay(
                        scope,
                        [request],
                        self.max_replays,
                        f"program {program!r}, injected rank crash",
                    ):
                        continue
                # Failed typed (replay budget, or the program raised):
                # the request's future carries the error.
                self._count_program(program, "failed")
                return await future
        finally:
            self._inflight_programs -= 1

        t_done = self._core.clock()
        traversal = t_done - t_exec
        total = t_done - request.submitted_at
        payload = {
            "state": result.state,
            "info": result.info,
            "iterations": result.num_iterations,
            "converged": result.converged,
        }
        if cacheable:
            self._program_cache[key] = payload
            self._program_cache.move_to_end(key)
            while len(self._program_cache) > self._program_cache_capacity:
                self._program_cache.popitem(last=False)
        scope.bump("completed")
        scope.bump("program_runs")
        scope.bump("sim_seconds_total", result.total_seconds)
        scope.latency(total)
        scope.counter("requests", outcome="completed").inc()
        self._count_program(program, "completed")
        scope.observe("traversal", traversal)
        scope.observe("total", total)
        core.record(request, traversal_seconds=traversal, total_seconds=total)
        return TraversalResponse(
            root=request.root,
            trace_id=request.trace_id,
            parent=result.state.get("parent"),
            traversal_seconds=traversal,
            total_seconds=total,
            sim_seconds=result.total_seconds,
            program=program,
            **payload,
        )

    # ------------------------------------------------------------------
    # tenancy: one FIFO
    # ------------------------------------------------------------------

    def _pop(self) -> Request | None:
        if not self._queue:
            return None
        request = self._queue.popleft()
        self._scope.gauge("queue_depth").set(len(self._queue))
        return request

    async def _flush_loop(self) -> None:
        while True:
            first = self._pop()
            if first is None:
                if self._closed:
                    return
                self._wake.clear()
                await self._wake.wait()
                continue
            batch = await self._core.fill(
                [first], self._pop, self._wake, size=self.batch_size,
                window=self.batch_window, draining=lambda: self._closed,
            )
            run = await self._core.run(self.graph, self._scope, batch)
            if run is not None:
                self._core.resolve(self.graph, self._scope, run)
            else:
                self._replay(batch)

    def _replay(self, batch: list[Request]) -> None:
        """Crash policy: replay in place.  Requests still within their
        budget go back to the *front* of the queue, original submit
        times intact; the rest have already failed typed."""
        survivors = self._core.charge_replay(
            self._scope, batch, self.max_replays, "injected rank crash"
        )
        if survivors:
            self._queue.extendleft(reversed(survivors))
            self._scope.gauge("queue_depth").set(len(self._queue))
            self._wake.set()

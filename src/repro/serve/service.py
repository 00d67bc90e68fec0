"""The admission-controlled traversal service.

A synchronous core (one :class:`~repro.core.engine.DistributedBFS`,
run on executor threads) behind an asyncio front:

1. **Admission.**  :meth:`TraversalService.submit` takes one BFS root
   and answers from the :class:`~repro.serve.cache.ResultCache` when it
   can; otherwise the request enters a *bounded* queue.  At
   ``queue_depth`` queued requests the request is shed with a typed
   :class:`Overloaded` — the queue can never grow without bound, and
   shedding is an exception the client handles, not a dropped future.
2. **Batching.**  A single flusher coroutine pops the oldest request
   and fills its batch with
   :meth:`~repro.serve.core.ServingCore.fill`: the batch leaves when it
   holds ``batch_size`` distinct roots or ``batch_window`` seconds after
   it opened.  Duplicate roots share one lane.
3. **Traversal.**  The batch runs as one multi-source wave sequence on
   the executor; every lane's parent tree is bit-identical to a
   sequential run, so serving batched is *not* an approximation.  The
   flusher awaits each batch, so the engine runs one traversal at a
   time.
4. **Resilience.**  A mid-batch injected rank crash affects only that
   batch: its requests are replayed from the front of the queue, each
   charged one attempt, and a request fails with a typed
   :class:`TraversalError` once *its own* attempts exceed
   :data:`~repro.serve.core.MAX_REPLAYS`.  Other batches are untouched.

Everything after a batch is picked — the executor hop, staged latency
observation into ``serve_latency_seconds``, cache fill, future
resolution, the per-request trace ids and :class:`RequestTimeline` ring
— is :mod:`repro.serve.core`, shared with the multi-tenant
:class:`~repro.cluster.service.ClusterService`.  What this module owns
is the tenancy (one graph, one FIFO) and the crash policy (replay in
place).  The service holds no tracer: when the served engine is traced
(its ``tracer=``), each batch's request ids label its ``msbfs`` span,
so the Chrome trace renders each served batch on its own track.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque

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

#: Recently served requests whose :class:`RequestTimeline` is kept.
TIMELINE_CAPACITY = 1024


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
        faults=None,
        metrics=NULL_METRICS,
        clock=time.monotonic,
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
            clock=clock, timeline_capacity=TIMELINE_CAPACITY, faults=faults
        )
        self._queue: deque[Request] = deque()
        self._wake = asyncio.Event()
        self._flusher: asyncio.Task | None = None
        self._closed = True
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
        return len(self._queue)

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
            return await self.graph.ingest(batches, self._scope)

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------

    async def submit(self, root: int) -> TraversalResponse:
        """Serve one BFS query from ``root``.

        Raises :class:`Overloaded` when the queue is full (admission
        control) and :class:`TraversalError` when the query exhausted
        its crash-replay budget.
        """
        if self._closed:
            raise RuntimeError("service is not running")
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
            self._scope, batch, "injected rank crash"
        )
        if survivors:
            self._queue.extendleft(reversed(survivors))
            self._scope.gauge("queue_depth").set(len(self._queue))
            self._wake.set()

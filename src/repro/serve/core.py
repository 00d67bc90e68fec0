"""The serving core shared by both service planes.

:class:`~repro.serve.service.TraversalService` (one graph, one FIFO)
and :class:`~repro.cluster.service.ClusterService` (M tenants under
deficit round-robin, N replicas) differ in *tenancy* and *crash policy*
only.  The three decisions they share live here, once:

- **What a resident graph is** — :class:`ResidentGraph`: the one
  engine its batches run on, the
  :class:`~repro.serve.cache.ResultCache`, the graph fingerprint keying
  it, the :class:`ServeStats` counters and the optional
  :class:`~repro.dynamic.repair.IncrementalGraph`.  A generation changes
  in exactly one place (:meth:`ResidentGraph.swap`), and streaming
  ingest is one coroutine (:meth:`ResidentGraph.ingest`) returning the
  one :class:`IngestReport`.
- **How a batch is formed** — :meth:`ServingCore.fill`: once a service
  has picked a queue, the batch takes that queue's requests until it
  holds ``batch_size`` distinct roots (duplicates share a lane) or the
  ``batch_window`` ends, and leaves as soon as it is full.
- **What happens to a batch once it is formed** — :class:`ServingCore`:
  run ``engine.run_batch`` on the executor against the captured
  generation, stage the latencies, fill the cache, resolve the futures,
  record the timelines and meter it all through a :class:`ServeScope`.
  The core holds no tracer: when the engine serving a batch is traced,
  the batch's request ids label that engine's root span
  (:meth:`ServingCore.trace_id`), whichever service picked the batch.

A :class:`ServeScope` is just ``prefix + labels`` plus the
:class:`ServeStats` sinks every count lands in: ``serve`` + ``{}`` for
the single-graph service, ``cluster`` + ``{tenant=...}`` per tenant.
Latency is observed per request into ``<prefix>_latency_seconds``, one
histogram per ``stage``: ``queue`` (submit → popped), ``batch`` (popped
→ traversal start), ``traversal`` (engine wall time), ``total`` (submit
→ resolve).  A request's :class:`RequestTimeline` carries the *same
floats*, so the metric and the per-request view always reconcile.
"""

from __future__ import annotations

import asyncio
import functools
from collections import OrderedDict
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.engine import DistributedBFS
from repro.core.lanes import distinct
from repro.obs.metrics import exponential_buckets
from repro.resilience.faults import RankCrashError
from repro.serve.cache import fingerprint_graph

__all__ = [
    "LATENCY_BUCKETS",
    "MAX_REPLAYS",
    "RESERVOIR_CAPACITY",
    "LatencyReservoir",
    "Overloaded",
    "TraversalError",
    "ReplicaDown",
    "RequestTimeline",
    "TraversalResponse",
    "ServeStats",
    "IngestReport",
    "Request",
    "ServeScope",
    "ResidentGraph",
    "ServingCore",
    "attribution",
    "sibling_engine",
]

#: Wall-latency buckets from 1 µs to ~10.7 days, four per doubling: an
#: SLO threshold quantized down to a bound is judged within 19 % of it.
LATENCY_BUCKETS = exponential_buckets(1e-6, 2 ** 0.25, 160)

#: Crashes a request may ride before it fails with a
#: :class:`TraversalError` (each replay re-runs its batch).
MAX_REPLAYS = 2


#: Values a :class:`LatencyReservoir` keeps, and the seed of its RNG.
RESERVOIR_CAPACITY = 4096
RESERVOIR_SEED = 0x5EED


class LatencyReservoir:
    """Fixed-size uniform sample of an unbounded latency stream.

    Vitter's Algorithm R: the first :data:`RESERVOIR_CAPACITY` values are
    kept, after which each new value replaces a random slot with
    probability ``RESERVOIR_CAPACITY / seen`` — at any point the kept set
    is a uniform sample of everything appended, so percentiles stay
    stable under sustained traffic while memory stays bounded.  The RNG
    is seeded, so a replayed request sequence samples identically.
    """

    __slots__ = ("_values", "_seen", "_rng")

    def __init__(self) -> None:
        self._values: list[float] = []
        self._seen = 0
        self._rng = np.random.default_rng(RESERVOIR_SEED)

    def append(self, value: float) -> None:
        self._seen += 1
        if len(self._values) < RESERVOIR_CAPACITY:
            self._values.append(float(value))
            return
        slot = int(self._rng.integers(0, self._seen))
        if slot < RESERVOIR_CAPACITY:
            self._values[slot] = float(value)

    @property
    def seen(self) -> int:
        """Values ever appended (``>= len(self)``)."""
        return self._seen

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return iter(self._values)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self._values, dtype=dtype)


def attribution(tenant: str, trace_id: str) -> str:
    """The ``" [tenant=... trace=...]"`` suffix typed serving errors carry."""
    detail = " ".join(
        f"{key}={value}"
        for key, value in (("tenant", tenant), ("trace", trace_id))
        if value
    )
    return f" [{detail}]" if detail else ""


class Overloaded(RuntimeError):
    """Typed admission-control rejection: the request queue is full.

    Clients treat this as backpressure — back off and retry; the request
    was never enqueued.  The rejection is *attributable*: it carries the
    tenant id (multi-tenant serving; ``""`` for a single-graph service)
    and the shed request's trace id, so shed counts in logs and workload
    reports can be pinned to a tenant and a specific request.
    """

    def __init__(
        self,
        queue_depth: int,
        limit: int,
        *,
        tenant: str = "",
        trace_id: str = "",
    ) -> None:
        super().__init__(
            f"request queue full ({queue_depth}/{limit}); request shed"
            + attribution(tenant, trace_id)
        )
        self.queue_depth = queue_depth
        self.limit = limit
        self.tenant = tenant
        self.trace_id = trace_id


class TraversalError(RuntimeError):
    """A request exhausted its replay budget, or its traversal raised.

    Like :class:`Overloaded`, the failure carries the tenant id and the
    failed request's trace id for attribution.
    """

    def __init__(
        self, message: str, *, tenant: str = "", trace_id: str = ""
    ) -> None:
        super().__init__(message + attribution(tenant, trace_id))
        self.tenant = tenant
        self.trace_id = trace_id


class ReplicaDown(RuntimeError):
    """No live replica remains to serve the request (typed, attributed)."""

    def __init__(
        self, *, tenant: str = "", trace_id: str = "", replicas: int = 0
    ) -> None:
        super().__init__(
            f"no live service replica ({replicas} configured)"
            + attribution(tenant, trace_id)
        )
        self.tenant = tenant
        self.trace_id = trace_id
        self.replicas = replicas


@dataclass
class RequestTimeline:
    """Staged wall-clock breakdown of one served request, by trace id.

    ``total_seconds`` is exactly the value observed into
    ``<prefix>_latency_seconds{stage="total"}`` for this request (cache
    hits observe only ``total``; failed requests observe nothing and
    record zeros here).
    """

    trace_id: str
    root: int
    #: ``completed`` | ``cached`` | ``failed``
    status: str = "completed"
    batch_lanes: int = 0
    queue_seconds: float = 0.0
    batch_seconds: float = 0.0
    traversal_seconds: float = 0.0
    total_seconds: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TraversalResponse:
    """One served query."""

    root: int
    #: Request-scoped trace id (keys ``request_timeline`` on the service).
    trace_id: str = ""
    #: Owning tenant in multi-tenant serving ("" for a single-graph service).
    tenant: str = ""
    parent: np.ndarray | None = field(repr=False, default=None)
    cached: bool = False
    #: Lanes in the batch that served it (0 for cache hits).
    batch_lanes: int = 0
    #: Wall-clock stage latencies (seconds).
    queue_wait: float = 0.0
    batch_wait: float = 0.0
    traversal_seconds: float = 0.0
    total_seconds: float = 0.0
    #: Amortized *simulated* machine cost of the query (0 for cache hits).
    sim_seconds: float = 0.0


@dataclass
class ServeStats:
    """Service-lifetime counters (wall latencies in seconds)."""

    requests: int = 0
    admitted: int = 0
    completed: int = 0
    cache_hits: int = 0
    shed: int = 0
    failed: int = 0
    replays: int = 0
    batches: int = 0
    batched_lanes: int = 0
    sim_seconds_total: float = 0.0
    #: Bounded uniform sample of per-request total latencies — the
    #: percentile source.  Appends like a list; never grows past its
    #: capacity under sustained traffic.
    total_latencies: LatencyReservoir = field(
        default_factory=LatencyReservoir, repr=False
    )

    @property
    def mean_batch_size(self) -> float:
        return self.batched_lanes / self.batches if self.batches else 0.0

    @property
    def sim_seconds_per_query(self) -> float:
        return (
            self.sim_seconds_total / self.completed if self.completed else 0.0
        )

    def latency_percentile(self, q: float) -> float:
        """Percentile ``q`` of sampled total latencies, or ``nan`` when
        the reservoir is empty (an idle tenant has no latencies; report
        builders render ``nan`` rather than crash or fake a zero)."""
        if not len(self.total_latencies):
            return float("nan")
        return float(np.percentile(np.asarray(self.total_latencies), q))

    @property
    def p50_seconds(self) -> float:
        return self.latency_percentile(50)

    @property
    def p99_seconds(self) -> float:
        return self.latency_percentile(99)

    @property
    def cache_hit_rate(self) -> float:
        served = self.cache_hits + self.completed
        return self.cache_hits / served if served else 0.0


@dataclass
class IngestReport:
    """Outcome of one :meth:`ResidentGraph.ingest` call."""

    #: Per-batch :class:`~repro.dynamic.repair.RepairReport` objects.
    reports: list = field(repr=False, default_factory=list)
    num_batches: int = 0
    num_updates: int = 0
    #: Cache entries evicted because the delta touched their tree.
    cache_evicted: int = 0
    #: Cache entries carried over to the repaired graph's fingerprint.
    cache_rekeyed: int = 0
    old_fingerprint: str = ""
    new_fingerprint: str = ""


@dataclass
class Request:
    """One admitted query on its way through a queue and a batch."""

    root: int
    submitted_at: float
    trace_id: str
    future: asyncio.Future | None = field(repr=False, default=None)
    popped_at: float = 0.0
    attempts: int = 0


class ServeScope:
    """Where one resident graph's serving signals go.

    Metric families are ``<prefix>_<family>`` carrying ``labels``;
    counts land in every :class:`ServeStats` of ``sinks`` (a tenant's
    own counters and its cluster's aggregate, say).
    """

    __slots__ = ("metrics", "prefix", "labels", "sinks", "tenant")

    def __init__(self, metrics, prefix: str, sinks, **labels) -> None:
        self.metrics = metrics
        self.prefix = prefix
        self.labels = labels
        self.sinks = tuple(sinks)
        #: Attribution carried on responses and typed errors.
        self.tenant = labels.get("tenant", "")

    def counter(self, family: str, **labels):
        return self.metrics.counter(
            f"{self.prefix}_{family}", **self.labels, **labels
        )

    def gauge(self, family: str):
        return self.metrics.gauge(f"{self.prefix}_{family}", **self.labels)

    def histogram(self, family: str, **kwargs):
        return self.metrics.histogram(
            f"{self.prefix}_{family}", **self.labels, **kwargs
        )

    def observe(self, stage: str, seconds: float) -> None:
        self.histogram(
            "latency_seconds", buckets=LATENCY_BUCKETS, stage=stage
        ).observe(max(seconds, 0.0))

    def bump(self, counter: str, amount=1) -> None:
        for stats in self.sinks:
            setattr(stats, counter, getattr(stats, counter) + amount)

    def latency(self, total: float) -> None:
        for stats in self.sinks:
            stats.total_latencies.append(total)


def sibling_engine(source, part):
    """A :class:`~repro.core.engine.DistributedBFS` over ``part``,
    configured exactly like ``source``: machine, config, tracer, metrics
    and execution backend all carry over, so a rebuilt engine stays as
    instrumented as the one it replaces."""
    return DistributedBFS(
        part,
        machine=source.machine,
        config=source.config,
        tracer=source.tracer,
        metrics=source.metrics,
        backend=source.scheduler.backend,
    )


class ResidentGraph:
    """One served graph: engine, cache, fingerprint, counters.

    ``batched`` is the :class:`~repro.core.engine.DistributedBFS` that
    query batches run on.  Its partition's fingerprint keys the cache.
    ``dynamic`` is the optional
    :class:`~repro.dynamic.repair.IncrementalGraph` over the same edge
    set that :meth:`ingest` repairs.
    """

    def __init__(
        self,
        batched,
        *,
        cache=None,
        fingerprint: str = "",
        dynamic=None,
    ) -> None:
        self.batched = batched
        self.cache = cache
        self.fingerprint = fingerprint or fingerprint_graph(batched.part)
        self.dynamic = dynamic
        self.stats = ServeStats()

    @property
    def num_vertices(self) -> int:
        return int(self.batched.num_vertices)

    def swap(self, batched, touched) -> tuple[int, int]:
        """Make ``batched`` the served generation.

        Engine, fingerprint and cache move together with no await in
        between, so a query batch sees either generation whole.  Only
        cached trees intersecting ``touched`` (the vertices a delta
        changed) are evicted; the rest are re-keyed to the new
        fingerprint.  Returns ``(evicted, rekeyed)``.
        """
        old = self.fingerprint
        self.batched = batched
        self.fingerprint = fingerprint_graph(batched.part)
        if self.cache is None:
            return 0, 0
        return self.cache.apply_delta(old, self.fingerprint, touched)

    async def ingest(self, batches, scope: ServeScope) -> IngestReport:
        """Apply edge-update batches to the served graph, live.

        Each batch is repaired incrementally on the executor — in-flight
        query batches keep running against the old engine meanwhile —
        then :meth:`swap` installs the rebuilt engine and applies the
        cache delta atomically between query batches.  Callers serialize
        ingestions of one graph; queries are never blocked.
        """
        if self.dynamic is None:
            raise RuntimeError(
                "resident graph was not built with a dynamic graph "
                "(pass dynamic=IncrementalGraph(...))"
            )
        loop = asyncio.get_running_loop()
        reports = []
        num_updates = 0
        for batch in batches:
            reports.append(
                await loop.run_in_executor(
                    None, self.dynamic.apply_batch, batch
                )
            )
            num_updates += batch.size
            scope.counter("ingest_batches").inc()
            scope.counter("ingest_updates").inc(batch.size)
        # graph() compacts pending overlays into the packed arrays.
        part = await loop.run_in_executor(None, self.dynamic.graph)
        engine = await loop.run_in_executor(
            None, sibling_engine, self.batched, part
        )
        touched = (
            distinct(np.concatenate([r.delta.touched for r in reports]))
            if reports
            else np.array([], dtype=np.int64)
        )
        old_fingerprint = self.fingerprint
        evicted, rekeyed = self.swap(engine, touched)
        return IngestReport(
            reports=reports,
            num_batches=len(reports),
            num_updates=num_updates,
            cache_evicted=evicted,
            cache_rekeyed=rekeyed,
            old_fingerprint=old_fingerprint,
            new_fingerprint=self.fingerprint,
        )


@dataclass
class BatchRun:
    """A traversed batch awaiting :meth:`ServingCore.resolve`."""

    by_root: dict
    result: object
    #: Generation the batch ran on (captured before the executor hop).
    fingerprint: str
    started_at: float
    finished_at: float


class ServingCore:
    """Request bookkeeping and batch execution for one service.

    Owns the trace-id sequence and the bounded (oldest-evicted)
    ``trace_id -> RequestTimeline`` ring, and carries a request from
    admission (:meth:`begin`, :meth:`lookup`, :meth:`shed`) through
    execution (:meth:`run`, :meth:`resolve`) or failure
    (:meth:`charge_replay`, :meth:`fail`), forming each batch on the
    way (:meth:`fill`).  The owning service decides *which* queue a
    batch is taken from and what a crash means for it.  ``faults`` is
    the injector every traversal the core runs is given.
    """

    def __init__(self, *, clock, timeline_capacity: int, faults=None) -> None:
        self.clock = clock
        self.faults = faults
        self._trace_seq = 0
        self._timeline_capacity = int(timeline_capacity)
        self._timelines: "OrderedDict[str, RequestTimeline]" = OrderedDict()

    # ------------------------------------------------------------------
    # trace ids and timelines
    # ------------------------------------------------------------------

    def request_timeline(self, trace_id: str) -> RequestTimeline | None:
        """The staged timeline of a recently served request, or ``None``
        once it aged out of the bounded ring (or never existed)."""
        return self._timelines.get(trace_id)

    def record(self, request: Request, **stages) -> None:
        self._timelines[request.trace_id] = RequestTimeline(
            trace_id=request.trace_id, root=request.root, **stages
        )
        while len(self._timelines) > self._timeline_capacity:
            self._timelines.popitem(last=False)

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    def begin(self, scope: ServeScope, root: int) -> Request:
        """Stamp the submit time, mint the trace id, count the request."""
        submitted_at = self.clock()
        self._trace_seq += 1
        scope.bump("requests")
        return Request(
            root=root,
            submitted_at=submitted_at,
            trace_id=f"req-{self._trace_seq:06d}",
        )

    def lookup(
        self, graph: ResidentGraph, scope: ServeScope, request: Request
    ) -> TraversalResponse | None:
        """Answer a request from the result cache when it can."""
        if graph.cache is None:
            return None
        parent = graph.cache.get(graph.fingerprint, request.root)
        if parent is None:
            return None
        total = self.clock() - request.submitted_at
        scope.bump("cache_hits")
        scope.latency(total)
        scope.counter("requests", outcome="cached").inc()
        scope.observe("total", total)
        self.record(request, status="cached", total_seconds=total)
        return TraversalResponse(
            root=request.root,
            trace_id=request.trace_id,
            tenant=scope.tenant,
            parent=parent,
            cached=True,
            total_seconds=total,
        )

    def shed(
        self, scope: ServeScope, request: Request, depth: int, limit: int
    ) -> Overloaded:
        """Count a full-queue rejection; returns the error to raise."""
        scope.bump("shed")
        scope.counter("requests", outcome="shed").inc()
        return Overloaded(
            depth, limit, tenant=scope.tenant, trace_id=request.trace_id
        )

    def admit(self, scope: ServeScope, request: Request) -> asyncio.Future:
        """Give ``request`` the future its client awaits."""
        request.future = asyncio.get_running_loop().create_future()
        scope.bump("admitted")
        return request.future

    # ------------------------------------------------------------------
    # failure
    # ------------------------------------------------------------------

    def fail(self, scope: ServeScope, request: Request, error) -> None:
        """Count a failed request; a queued one's client gets ``error``
        (a request that never got a future has it raised by the caller)."""
        scope.bump("failed")
        scope.counter("requests", outcome="failed").inc()
        self.record(request, status="failed")
        if request.future is not None and not request.future.done():
            request.future.set_exception(error)

    def charge_replay(self, scope: ServeScope, batch, cause: str) -> list:
        """Charge a crashed batch one attempt *per request*.

        Requests over :data:`MAX_REPLAYS` fail with a typed
        :class:`TraversalError` each (so each carries its own trace id);
        the rest are returned for the caller to re-queue — a fresh
        request that joined a replayed batch keeps its own budget.
        """
        survivors = []
        for request in batch:
            request.attempts += 1
            if request.attempts <= MAX_REPLAYS:
                survivors.append(request)
                continue
            self.fail(
                scope,
                request,
                TraversalError(
                    f"batch of {len(batch)} requests failed after "
                    f"{MAX_REPLAYS} replays ({cause})",
                    tenant=scope.tenant,
                    trace_id=request.trace_id,
                ),
            )
        if survivors:
            scope.bump("replays")
            scope.counter("batch_replays").inc()
        return survivors

    # ------------------------------------------------------------------
    # batch forming
    # ------------------------------------------------------------------

    async def fill(self, batch, pop, wake, *, size, window, draining):
        """Fill ``batch`` from one queue; returns it, ready to run.

        ``pop()`` takes the queue's next request (``None`` when it is
        empty) and ``wake`` is the event every arrival sets.  The batch
        takes requests until it holds ``size`` distinct roots or
        ``window`` seconds have passed, and leaves as soon as it is
        full.  The queue is re-checked before every wait, so clearing a
        shared ``wake`` never strands a request; once ``draining()`` is
        true the batch leaves with what is queued, without waiting.
        Each request is stamped ``popped_at`` as it joins.
        """
        now = self.clock()
        for request in batch:
            request.popped_at = now
        roots = {request.root for request in batch}
        deadline = now + window
        while len(roots) < size:
            request = pop()
            if request is not None:
                request.popped_at = self.clock()
                batch.append(request)
                roots.add(request.root)
                continue
            remaining = deadline - self.clock()
            if remaining <= 0 or draining():
                break
            wake.clear()
            try:
                await asyncio.wait_for(wake.wait(), timeout=remaining)
            except asyncio.TimeoutError:
                break
        return batch

    # ------------------------------------------------------------------
    # batch execution
    # ------------------------------------------------------------------

    @staticmethod
    def trace_id(engine, requests) -> str | None:
        """The ids of ``requests``, sorted and ``","``-joined, for the
        root span of the run ``engine`` executes for them — or ``None``,
        at no cost, when the engine is untraced."""
        if not engine.tracer.enabled:
            return None
        return ",".join(sorted(r.trace_id for r in requests))

    async def run(
        self, graph: ResidentGraph, scope: ServeScope, batch
    ) -> BatchRun | None:
        """Traverse ``batch`` on the executor; ``None`` if a rank crashed.

        An injected rank crash is the owning service's to handle (its
        crash policy decides).  Any other exception fails every request
        with a typed :class:`TraversalError` and the batch comes back
        with ``result=None``, which :meth:`resolve` ignores: a bug in
        one traversal must not kill the serving loop and strand every
        queued future.
        """
        started_at = self.clock()
        # Captured before the executor hop: if an ingestion swaps the
        # engine mid-flight, this batch's results must be cached under
        # the generation they were computed on, not the new one.
        engine = graph.batched
        fingerprint = graph.fingerprint
        by_root: dict[int, list[Request]] = {}
        for request in batch:
            by_root.setdefault(request.root, []).append(request)
        roots = np.array(sorted(by_root), dtype=np.int64)
        traverse = functools.partial(
            engine.run_batch, roots, faults=self.faults,
            trace_id=self.trace_id(engine, batch),
        )
        try:
            result = await asyncio.get_running_loop().run_in_executor(
                None, traverse
            )
        except RankCrashError:
            scope.counter("batches", outcome="crashed").inc()
            return None
        except Exception as exc:
            for request in batch:
                self.fail(
                    scope,
                    request,
                    TraversalError(
                        f"traversal raised {type(exc).__name__}: {exc}",
                        tenant=scope.tenant,
                        trace_id=request.trace_id,
                    ),
                )
            result = None
        return BatchRun(by_root, result, fingerprint, started_at, self.clock())

    def resolve(
        self, graph: ResidentGraph, scope: ServeScope, run: BatchRun
    ) -> None:
        """Cache, meter and answer every request of a traversed batch."""
        result = run.result
        if result is None:
            return
        traversal = run.finished_at - run.started_at
        scope.bump("batches")
        scope.bump("batched_lanes", result.num_lanes)
        scope.counter("batches", outcome="completed").inc()
        scope.histogram("batch_size").observe(result.num_lanes)
        scope.observe("traversal", traversal)
        lane_of = {int(r): lane for lane, r in enumerate(result.roots)}
        for root, requests in run.by_root.items():
            parent = result.lane_parent(lane_of[root])
            if graph.cache is not None:
                graph.cache.put(run.fingerprint, root, parent)
            for request in requests:
                queue_wait = request.popped_at - request.submitted_at
                batch_wait = run.started_at - request.popped_at
                total = run.finished_at - request.submitted_at
                scope.observe("queue", queue_wait)
                scope.observe("batch", batch_wait)
                scope.observe("total", total)
                scope.bump("completed")
                scope.bump("sim_seconds_total", result.amortized_seconds)
                scope.latency(total)
                scope.counter("requests", outcome="completed").inc()
                self.record(
                    request,
                    batch_lanes=result.num_lanes,
                    queue_seconds=queue_wait,
                    batch_seconds=batch_wait,
                    traversal_seconds=traversal,
                    total_seconds=total,
                )
                if not request.future.done():
                    request.future.set_result(
                        TraversalResponse(
                            root=root,
                            trace_id=request.trace_id,
                            tenant=scope.tenant,
                            parent=parent,
                            batch_lanes=result.num_lanes,
                            queue_wait=queue_wait,
                            batch_wait=batch_wait,
                            traversal_seconds=traversal,
                            total_seconds=total,
                            sim_seconds=result.amortized_seconds,
                        )
                    )

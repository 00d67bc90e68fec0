"""Seeded workloads and the one load driver of both serving planes.

Query streams:

- :func:`make_workload_roots` — a seeded query stream over the graph's
  non-isolated vertices with a configurable *hot set*, so repeated roots
  exercise the result cache deterministically.
- :func:`pareto_popularity` — seeded heavy-tail tenant popularity: each
  tenant's traffic share is a normalized Pareto draw, so a few tenants
  dominate the stream the way production traffic does.
- :func:`make_diurnal_workload` — a seeded *timed* query stream over
  many tenants: arrival times follow a sinusoidal (diurnal) rate curve
  via inverse-CDF sampling, tenants are drawn by Pareto popularity, and
  each tenant's roots come from its own :func:`make_workload_roots`
  stream.  Identical ``seed`` and parameters give a bit-identical
  workload (arrival floats included).

The driver is two loops over one per-query path.  :func:`open_loop`
sends a schedule of queries at their due times whatever the service is
doing, so a hot tenant really offers 10x and a 2x overload really is
2x; :func:`closed_loop` keeps ``clients`` queries in flight, so the
offered load follows the service.  Either way a query is sent, a shed
is retried within a budget, a typed failure or the last shed is its
accounted answer, and one check judges the parents it was served.  Each
query leaves one :class:`QueryOutcome` of scalars: its due time, how
late it was sent, its latency from the due time to the answer, the
stage latencies the service reported, and the verdict.
:class:`WorkloadReport` aggregates them; its percentiles read the
due-time latency, so a sender that falls behind shows in them, and
:meth:`WorkloadReport.per_tenant` splits a report by tenant for the
fairness and SLO gates.

:func:`run_workload` is the closed loop over one
:class:`~repro.serve.service.TraversalService`;
:func:`repro.cluster.run_cluster_workload` builds the open-loop schedule
of a :class:`ClusterWorkload`.  The CI smokes and the serving
benchmarks drive services through them, so "zero wrong parents / zero
dropped-without-typed-shed responses" is asserted against the exact
client behavior a user would write.  :func:`run_serve_drill` is
``python -m repro serve`` on one graph, and :func:`serve_gate` the gate
both serving planes' drills end on (the multi-tenant drill is
:func:`repro.cluster.run_cluster_drill`).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

import numpy as np

from repro.serve.core import ReplicaDown
from repro.serve.service import (
    Overloaded,
    TraversalError,
    TraversalService,
)

__all__ = [
    "make_workload_roots",
    "pareto_popularity",
    "make_diurnal_workload",
    "open_loop",
    "closed_loop",
    "parents_check",
    "run_workload",
    "run_session",
    "run_serving_session",
    "run_serve_drill",
    "serve_gate",
    "expected_parents",
    "session_faults",
    "QueryOutcome",
    "WorkloadReport",
    "ClusterQuery",
    "ClusterWorkload",
    "TelemetrySummary",
    "http_get",
]


def make_workload_roots(
    degrees,
    num_queries: int,
    *,
    seed: int,
    hot_fraction: float = 0.5,
    hot_set_size: int = 16,
) -> np.ndarray:
    """A seeded stream of query roots.

    Each query draws from a small *hot set* with probability
    ``hot_fraction`` (producing cache-friendly repeats) and uniformly
    from all non-isolated vertices otherwise.  Identical ``seed`` and
    parameters give a bit-identical stream.
    """
    if num_queries < 1:
        raise ValueError("num_queries must be >= 1")
    if not 0.0 <= hot_fraction <= 1.0:
        raise ValueError("hot_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    candidates = np.flatnonzero(np.asarray(degrees) > 0)
    if candidates.size == 0:
        raise ValueError("graph has no non-isolated vertices to query")
    hot_set_size = max(1, min(int(hot_set_size), int(candidates.size)))
    hot = rng.choice(candidates, size=hot_set_size, replace=False)
    is_hot = rng.random(num_queries) < hot_fraction
    hot_picks = rng.integers(0, hot_set_size, size=num_queries)
    cold_picks = rng.integers(0, candidates.size, size=num_queries)
    roots = np.where(is_hot, hot[hot_picks], candidates[cold_picks])
    return roots.astype(np.int64)


#: Shape of the tenant-popularity Pareto draw (smaller: heavier tail).
PARETO_ALPHA = 1.1


def pareto_popularity(tenants, *, seed: int) -> dict:
    """Seeded heavy-tail traffic shares: tenant -> fraction of queries.

    One normalized ``Pareto(PARETO_ALPHA) + 1`` draw per tenant, sorted
    descending before assignment so the *first* tenant in the given
    order is always the heaviest — callers can rely on ``tenants[0]``
    being the hot tenant.
    """
    tenants = list(tenants)
    if not tenants:
        raise ValueError("at least one tenant is required")
    rng = np.random.default_rng(seed)
    draws = np.sort(rng.pareto(PARETO_ALPHA, size=len(tenants)) + 1.0)[::-1]
    shares = draws / draws.sum()
    return {t: float(s) for t, s in zip(tenants, shares)}


@dataclass(frozen=True)
class ClusterQuery:
    """One timed query of a multi-tenant workload."""

    arrival_seconds: float
    tenant: str
    root: int


@dataclass
class ClusterWorkload:
    """A seeded multi-tenant query stream, sorted by arrival time."""

    queries: list = field(default_factory=list)
    #: Tenant -> sampled traffic share (sums to 1).
    popularity: dict = field(default_factory=dict)
    duration_seconds: float = 0.0

    @property
    def num_queries(self) -> int:
        return len(self.queries)

    def per_tenant_counts(self) -> dict:
        counts: dict[str, int] = {t: 0 for t in self.popularity}
        for q in self.queries:
            counts[q.tenant] = counts.get(q.tenant, 0) + 1
        return counts

    def for_tenant(self, tenant: str) -> "ClusterWorkload":
        """The sub-stream of one tenant (arrival times preserved)."""
        return ClusterWorkload(
            queries=[q for q in self.queries if q.tenant == tenant],
            popularity={tenant: self.popularity.get(tenant, 1.0)},
            duration_seconds=self.duration_seconds,
        )


def _tenant_seed(seed: int, index: int) -> int:
    """A derived per-tenant sub-seed (stable, collision-resistant)."""
    return (seed * 0x9E3779B1 + (index + 1) * 0x85EBCA77) & 0x7FFFFFFF


def make_diurnal_workload(
    tenant_degrees,
    num_queries: int,
    *,
    seed: int,
    duration_seconds: float = 1.0,
    popularity: dict | None = None,
    hot_fraction: float = 0.5,
    hot_set_size: int = 16,
) -> ClusterWorkload:
    """A seeded diurnal + heavy-tail multi-tenant query stream.

    ``tenant_degrees`` maps tenant id -> that tenant's graph degree
    vector (iteration order fixes the tenant order).  Three seeded
    draws compose the stream:

    - **arrivals**: exactly ``num_queries`` arrival times on
      ``[0, duration_seconds)`` sampled by inverse CDF from the
      sinusoidal rate ``r(t) = 1 + a*sin(2*pi*t/period)`` with ``a``
      chosen so peak rate / trough rate = 4 (the diurnal curve, one full
      cycle over the whole duration);
    - **tenant of each query**: drawn from :func:`pareto_popularity`
      shares (or an explicit ``popularity`` map, normalized here);
    - **roots**: each tenant's roots come from its own seeded
      :func:`make_workload_roots` hot/cold stream, so repeats exercise
      that tenant's cache.

    The result is bit-reproducible from ``seed`` — same floats, same
    order — which is what lets benchmarks drift-gate per-tenant query
    counts.
    """
    tenant_degrees = dict(tenant_degrees)
    if not tenant_degrees:
        raise ValueError("at least one tenant is required")
    if num_queries < 1:
        raise ValueError("num_queries must be >= 1")
    if duration_seconds <= 0:
        raise ValueError("duration_seconds must be > 0")
    tenants = list(tenant_degrees)
    if popularity is None:
        popularity = pareto_popularity(tenants, seed=seed)
    else:
        missing = set(tenants) - set(popularity)
        if missing:
            raise ValueError(f"popularity missing tenants: {sorted(missing)}")
        total = float(sum(popularity[t] for t in tenants))
        if total <= 0:
            raise ValueError("popularity weights must sum to > 0")
        popularity = {t: float(popularity[t]) / total for t in tenants}

    rng = np.random.default_rng(seed)
    period = float(duration_seconds)
    # Amplitude from the 4:1 peak:trough ratio r: (1+a)/(1-a) = r.
    amp = (4.0 - 1.0) / (4.0 + 1.0)
    # Inverse-CDF sampling of the sinusoidal density on a fine grid:
    # cumulative rate R(t) = t + (a*period/2pi) * (1 - cos(2pi t/period)).
    grid = np.linspace(0.0, duration_seconds, 4096)
    cum = grid + amp * period / (2 * np.pi) * (
        1.0 - np.cos(2 * np.pi * grid / period)
    )
    cdf = cum / cum[-1]
    arrivals = np.sort(
        np.interp(rng.random(num_queries), cdf, grid)
    )
    shares = np.array([popularity[t] for t in tenants])
    tenant_picks = rng.choice(len(tenants), size=num_queries, p=shares)
    counts = np.bincount(tenant_picks, minlength=len(tenants))
    root_streams = {}
    for idx, tenant in enumerate(tenants):
        if counts[idx]:
            root_streams[tenant] = iter(
                make_workload_roots(
                    tenant_degrees[tenant],
                    int(counts[idx]),
                    seed=_tenant_seed(seed, idx),
                    hot_fraction=hot_fraction,
                    hot_set_size=hot_set_size,
                )
            )
    queries = [
        ClusterQuery(
            arrival_seconds=float(t),
            tenant=tenants[pick],
            root=int(next(root_streams[tenants[pick]])),
        )
        for t, pick in zip(arrivals, tenant_picks)
    ]
    return ClusterWorkload(
        queries=queries,
        popularity=popularity,
        duration_seconds=float(duration_seconds),
    )


@dataclass
class QueryOutcome:
    """One query as its client saw it.

    Only scalars are kept: holding the response would pin its batch's
    whole parent matrix, so a query's parents are judged by the check
    the moment it is answered and only the verdict stays.
    """

    #: What the query was sent with, ``submit(*key)``: ``(root,)`` on
    #: one graph, ``(tenant, root)`` on the cluster plane.
    key: tuple
    #: Event-loop time the query was due to be sent.
    due: float = 0.0
    #: Seconds after ``due`` that it was actually sent.
    late: float = 0.0
    #: Seconds from ``due`` to the terminal answer, shed retries included.
    latency: float = 0.0
    #: Stage latencies the service reported on its response (seconds;
    #: ``total_seconds`` runs from the last ``submit``).
    queue_wait: float = 0.0
    batch_wait: float = 0.0
    traversal_seconds: float = 0.0
    total_seconds: float = 0.0
    cached: bool = False
    batch_lanes: int = 0
    shed_retries: int = 0
    #: The query ended in a *typed* shed (``Overloaded`` surfaced to the
    #: client as the terminal outcome — accounted, never silently lost).
    shed: bool = False
    error: str | None = None
    #: The check's verdict on the served parents; ``None`` unchecked.
    correct: bool | None = None

    @property
    def tenant(self) -> str:
        """Owning tenant id ("" when driving a single-graph service)."""
        return self.key[0] if len(self.key) > 1 else ""

    @property
    def served(self) -> bool:
        return self.error is None


@dataclass
class WorkloadReport:
    """Aggregate outcomes of one workload run."""

    outcomes: list = field(default_factory=list)
    #: What a drill's gate found wrong with the session (empty: passed;
    #: see :func:`serve_gate`).
    failures: list = field(default_factory=list)

    @property
    def num_queries(self) -> int:
        return len(self.outcomes)

    @property
    def served(self) -> int:
        return sum(1 for o in self.outcomes if o.served)

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def failed(self) -> int:
        """Queries that ended in an error other than a typed shed."""
        return sum(
            1 for o in self.outcomes if o.error is not None and not o.shed
        )

    @property
    def typed_sheds(self) -> int:
        """Queries whose terminal outcome was a typed ``Overloaded``."""
        return sum(1 for o in self.outcomes if o.shed)

    @property
    def accounted(self) -> int:
        """Queries with *some* recorded outcome (served, failed, or
        typed shed) — ``num_queries - accounted`` would be silent drops,
        and the gates require it to be zero."""
        return self.served + self.failed + self.typed_sheds

    @property
    def shed_retries(self) -> int:
        return sum(o.shed_retries for o in self.outcomes)

    @property
    def wrong_parents(self) -> int:
        return sum(1 for o in self.outcomes if o.correct is False)

    @property
    def validated(self) -> int:
        return sum(1 for o in self.outcomes if o.correct is not None)

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.served if self.served else 0.0

    def latency_percentile(self, q: float) -> float:
        """Percentile ``q`` of served latencies, each from the query's
        due time to its answer (so a late sender and shed retries
        count), or ``nan`` when nothing was served (an idle tenant's
        sub-report must not crash the builder assembling per-tenant
        rows)."""
        samples = [o.latency for o in self.outcomes if o.served]
        if not samples:
            return float("nan")
        return float(np.percentile(np.asarray(samples), q))

    def per_tenant(self) -> "dict[str, WorkloadReport]":
        """Split into per-tenant sub-reports (insertion-ordered by first
        appearance; single-graph runs collapse to the ``""`` tenant)."""
        split: dict[str, WorkloadReport] = {}
        for o in self.outcomes:
            split.setdefault(o.tenant, WorkloadReport()).outcomes.append(o)
        return split


#: Seconds a client waits before resending a query the service shed.
SHED_BACKOFF = 0.0005
#: Resends of one shed query a :func:`run_workload` client allows.
SHED_RETRIES = 10_000
#: What a :class:`QueryOutcome` keeps of a served response.
_RESPONSE_SCALARS = (
    "cached", "batch_lanes", "queue_wait", "batch_wait",
    "traversal_seconds", "total_seconds",
)


async def _answer(
    submit, key: tuple, due: float, check, max_shed_retries: int,
) -> QueryOutcome:
    """Send ``submit(*key)`` and await a terminal, *accounted* outcome.

    An :class:`Overloaded` rejection backs off :data:`SHED_BACKOFF`
    seconds and retries, up to ``max_shed_retries`` times, after which the shed
    itself is the (typed) outcome; a :class:`TraversalError` or
    :class:`ReplicaDown` is a failed query.  ``check(key, response)``
    judges a served response (``True``/``False``, ``None`` for no
    verdict).  Latency runs from ``due``, the time the query was meant
    to go out.
    """
    loop = asyncio.get_running_loop()
    outcome = QueryOutcome(key, due, late=loop.time() - due)
    while True:
        try:
            response = await submit(*key)
        except Overloaded as exc:
            if outcome.shed_retries < max_shed_retries:
                outcome.shed_retries += 1
                await asyncio.sleep(SHED_BACKOFF)
                continue
            outcome.shed, outcome.error = True, str(exc)
        except (TraversalError, ReplicaDown) as exc:
            outcome.error = str(exc)
        break
    outcome.latency = loop.time() - due
    if outcome.served:
        for name in _RESPONSE_SCALARS:
            setattr(outcome, name, getattr(response, name))
        if check is not None:
            outcome.correct = check(key, response)
    return outcome


async def open_loop(
    submit, schedule, *, check=None, max_shed_retries: int = 0,
) -> WorkloadReport:
    """Send each ``(offset, key)`` of ``schedule`` ``offset`` seconds
    after the start, whatever the service is doing, as ``submit(*key)``.

    ``schedule`` is consumed lazily, so a generator may act between
    sends.  A query's latency runs from its due time, so a sender that
    falls behind shows as latency (and as ``late``) on the queries
    behind it.  ``check`` and ``max_shed_retries`` are as in
    :func:`_answer`.
    """
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    tasks = []
    for offset, key in schedule:
        due = t0 + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(_answer(
            submit, key, due, check, max_shed_retries
        )))
    return WorkloadReport(outcomes=list(await asyncio.gather(*tasks)))


async def closed_loop(
    submit, roots, clients: int, *, check=None, max_shed_retries: int = 0,
) -> WorkloadReport:
    """``clients`` clients, one query in flight each, send
    ``submit(root)`` for the next root of ``roots`` until it runs out.

    A query is due when its client takes its root.  ``roots`` is read
    as one shared iterator, so an endless one (a cycle cut off by a
    deadline) runs the loop for a time instead of a count.  ``check``
    and ``max_shed_retries`` are as in :func:`_answer`.
    """
    if clients < 1:
        raise ValueError("clients must be >= 1")
    loop = asyncio.get_running_loop()
    roots = iter(roots)
    outcomes: list[QueryOutcome] = []

    async def client() -> None:
        for root in roots:
            outcome = await _answer(
                submit, (int(root),), loop.time(), check, max_shed_retries,
            )
            outcomes.append(outcome)
            if outcome.cached:
                # A cache hit returns without suspending; yield so the
                # other clients and the flusher run.
                await asyncio.sleep(0)

    await asyncio.gather(*(client() for _ in range(clients)))
    return WorkloadReport(outcomes=outcomes)


def parents_check(expected):
    """The per-query check against ``expected``, which maps a query key
    to its reference parent array: bit-for-bit equality, and no verdict
    for a key it does not hold.  ``None`` (check nothing) when
    ``expected`` is empty or ``None``."""
    if not expected:
        return None

    def check(key, response):
        want = expected.get(key)
        return None if want is None else bool(np.array_equal(response.parent, want))

    return check


async def run_workload(
    service: TraversalService,
    roots,
    *,
    clients: int = 4,
    expected: dict | None = None,
) -> WorkloadReport:
    """Drive ``service`` with a :func:`closed_loop` of ``clients``
    clients over ``roots``, each root once.

    A shed query backs off :data:`SHED_BACKOFF` seconds and retries the
    same root, up to :data:`SHED_RETRIES` times.  ``expected`` maps a query
    key ``(root,)`` to its parent array (see :func:`expected_parents`);
    served responses for those keys are checked bit for bit.
    """
    return await closed_loop(
        service.submit, roots, clients, check=parents_check(expected),
        max_shed_retries=SHED_RETRIES,
    )


@dataclass
class TelemetrySummary:
    """What the live plane saw over one serving session."""

    port: int = 0
    #: Successful self-scrapes per endpoint path.
    scrapes: dict = field(default_factory=dict)
    #: Snapshots the sampler took.
    samples: int = 0
    #: Final :meth:`~repro.obs.slo.SLOMonitor.evaluate` document.
    slo: dict | None = None
    #: Last ``/metrics`` response body (bytes), for export parity checks.
    last_metrics_body: bytes = b""


async def http_get(
    host: str, port: int, path: str, *, timeout: float = 5.0
) -> tuple[int, dict, bytes]:
    """Tiny dependency-free HTTP GET: ``(status, headers, body)``.

    Enough client for the telemetry endpoint and the CI smoke scraper;
    not a general HTTP client (no redirects, no chunked encoding).
    """
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout=timeout
    )
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
            "Connection: close\r\n\r\n".encode("latin-1")
        )
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return status, headers, body


async def _scrape_loop(
    summary: TelemetrySummary, host: str, port: int, interval: float,
    stop: asyncio.Event,
) -> None:
    """Poll ``/metrics`` and ``/healthz`` until ``stop`` is set, counting
    successful scrapes — the CI smoke's evidence the plane is live.

    It is stopped by the event, not cancelled: before Python 3.12,
    ``asyncio.wait_for`` (inside :func:`http_get`) swallows a
    cancellation that lands as its inner read completes, and a
    cancelled loop then polls, and its awaiter waits, forever.
    """
    while not stop.is_set():
        for path in ("/metrics", "/healthz"):
            try:
                status, _, body = await http_get(host, port, path)
            except (OSError, asyncio.TimeoutError, ValueError):
                continue
            if status == 200:
                summary.scrapes[path] = summary.scrapes.get(path, 0) + 1
                if path == "/metrics":
                    summary.last_metrics_body = body
        await asyncio.sleep(interval)


async def run_session(service, drive, *, telemetry, cluster=None):
    """Start ``service``, await ``drive()`` against it, stop it, and
    return ``(report, service, TelemetrySummary | None)``.

    ``telemetry`` (a dict, see :func:`run_serving_session`) brings the
    live plane up for the session; without it the summary is ``None``.
    ``cluster`` is the multi-tenant service whose per-tenant SLO
    monitors back the ``/slo`` views in place of ``telemetry["slos"]``;
    each takes its zero baseline here, with or without the plane.
    """
    if cluster is not None:
        for monitor in cluster.slo_monitors.values():
            monitor.observe()  # zero baseline for the window delta
    if telemetry is None:
        async with service:
            return await drive(), service, None

    from repro.obs.slo import SLOMonitor
    from repro.obs.sampler import TelemetrySampler
    from repro.serve.telemetry import TelemetryServer

    metrics = service.metrics
    if not metrics.enabled:
        raise ValueError("telemetry requires metrics= a real MetricsRegistry")
    interval = float(telemetry.get("interval", 0.05))
    sampler = TelemetrySampler(metrics, interval=interval)
    slos = tuple(telemetry.get("slos", ()))
    monitor = SLOMonitor(metrics, slos) if slos else None
    server = TelemetryServer(
        service,
        metrics,
        port=int(telemetry.get("port", 0)),
        sampler=sampler,
        slo_monitor=monitor,
        cluster=cluster,
    )
    summary = TelemetrySummary()
    async with service:
        async with server:
            summary.port = server.port
            if monitor is not None:
                monitor.observe()  # zero baseline for the window delta
            await sampler.start()
            scraper, stop = None, asyncio.Event()
            if telemetry.get("scrape", True):
                scraper = asyncio.create_task(_scrape_loop(
                    summary, "127.0.0.1", server.port, interval, stop
                ))
            try:
                report = await drive()
                # One settled pass so the final state is observable.
                await asyncio.sleep(interval)
            finally:
                stop.set()
                if scraper is not None:
                    await scraper
                await sampler.stop()
            sampler.sample()
            if cluster is not None:
                summary.slo = cluster.slo_status()
            elif monitor is not None:
                summary.slo = monitor.evaluate()
    summary.samples = sampler.taken
    return report, service, summary


def run_serving_session(
    engine,
    roots,
    *,
    clients: int = 4,
    expected: dict | None = None,
    telemetry: dict | None = None,
    **service_kwargs,
):
    """Synchronous convenience: build a service around ``engine``, run
    the workload to completion, stop the service, and return
    ``(report, service, telemetry)``: the workload report, the (stopped)
    service for stats inspection, and the :class:`TelemetrySummary`
    (``None`` without ``telemetry``).

    ``telemetry`` (optional) starts the live plane for the session.
    Keys: ``port`` (0 = ephemeral), ``interval`` (sampler cadence,
    seconds), ``slos`` (iterable of :class:`~repro.obs.slo.SLOSpec`),
    ``scrape`` (self-scrape ``/metrics`` + ``/healthz`` during the run,
    default ``True``).  Requires ``metrics=`` a real registry in
    ``service_kwargs``.
    """

    async def main():
        service = TraversalService(engine, **service_kwargs)
        return await run_session(
            service,
            lambda: run_workload(
                service, roots, clients=clients, expected=expected
            ),
            telemetry=telemetry,
        )

    return asyncio.run(main())


def expected_parents(engine, roots, *prefix) -> dict:
    """``{(*prefix, root): parent array}`` from one single-source run per
    distinct root: what a validating drill checks each served response
    against, keyed like the queries (``prefix`` is ``(tenant,)`` on the
    cluster plane).

    The runs go through a sink-free engine configured like ``engine``,
    so validating adds nothing to the served engine's trace or metrics.
    """
    from repro.core.engine import DistributedBFS

    oracle = DistributedBFS(engine.part, machine=engine.machine, config=engine.config)
    return {
        (*prefix, int(r)): oracle.run(int(r)).parent for r in np.unique(roots)
    }


def session_faults(faults, seed: int):
    """The injector a drill hands its service for a ``faults`` plan (or
    ``None``), seeded like the session."""
    if faults is None:
        return None
    from repro.resilience.faults import FaultInjector

    return FaultInjector(faults, rng=np.random.default_rng(seed))


def serve_gate(
    report: WorkloadReport,
    mode: str,
    *,
    telem,
    slo_docs: dict,
    validate: bool = False,
    min_hit_rate: float | None = None,
    expect_slo: str | None = None,
) -> list[str]:
    """The gate both serving drills end on; returns the lines it prints.

    ``telem`` is the session's :class:`TelemetrySummary` (``None``
    without the live plane).

    Adds to ``report.failures`` (which may already hold the drill's own)
    silent drops, failed queries, typed sheds (both drills retry a shed
    10 000 times first), wrong parents, a cache hit rate not above
    ``min_hit_rate``, an unscraped telemetry endpoint and an SLO status
    other than ``expect_slo`` (``"green"`` or ``"fired"``).  ``slo_docs``
    maps a tenant ("" for the single graph) to its SLO evaluation.  The
    lines end with one ``FAIL:`` line per failure, then
    ``<mode> gate: PASS|FAIL``.
    """
    failures, lines = report.failures, []
    dropped = report.num_queries - report.accounted
    if dropped:
        failures.append(f"{dropped} queries got no response and no typed "
                        "shed")
    if report.typed_sheds:
        failures.append(f"{report.typed_sheds} queries shed after every retry")
    if report.failed:
        failures.append(f"{report.failed} queries failed")
    if report.wrong_parents:
        failures.append(f"{report.wrong_parents}/{report.validated} "
                        "validated parents wrong")
    elif validate:
        lines.append(f"validated: {report.validated} responses bit-identical "
                     "to sequential runs")
    if min_hit_rate is not None and not report.cache_hit_rate > min_hit_rate:
        failures.append(f"cache hit rate {report.cache_hit_rate:.3f} "
                        f"not above {min_hit_rate:g}")
    if telem is not None:
        lines.append(f"telemetry: port {telem.port}, {telem.samples} samples, "
                     f"scrapes {telem.scrapes}")
        for tenant, doc in slo_docs.items():
            for row in doc["slos"]:
                name = f"{tenant}/{row['name']}" if tenant else row["name"]
                lines.append(f"  SLO {name}: {row['status']} "
                             f"(burn {row['burn_rate']:.2f}, "
                             f"{row['bad']}/{row['observed']} bad in "
                             f"{row['window_seconds']:g}s)")
            lines.extend(f"  alert [{alert['severity']}] {alert['message']}"
                         for alert in doc["alerts"])
        if not telem.scrapes.get("/metrics") \
                or not telem.scrapes.get("/healthz"):
            failures.append("telemetry endpoint was never scraped "
                            "successfully")
        fired = [doc["status"] for doc in slo_docs.values()
                 if doc["status"] != "ok" or doc["alerts"]]
        if expect_slo == "green" and fired:
            failures.append(f"expected green SLO, got status {fired[0]!r}")
        elif expect_slo == "fired" and not fired:
            failures.append("expected the SLO to fire, but it stayed green")
    lines.extend(f"FAIL: {failure}" for failure in failures)
    lines.append(f"{mode} gate: {'FAIL' if failures else 'PASS'}")
    return lines


class _StragglerEngine:
    """Wraps a batch engine so every traversal sleeps ``delay`` wall
    seconds first.  Simulated faults never move the wall clock, so this
    is the honest way to make a wall-clock SLO fire in the CI smoke."""

    def __init__(self, engine, delay: float) -> None:
        self._engine = engine
        self._delay = float(delay)

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def run_batch(self, roots, **kwargs):
        import time

        time.sleep(self._delay)
        return self._engine.run_batch(roots, **kwargs)


def run_serve_drill(
    *, scale: int, rows: int, cols: int, seed: int, e_threshold=None,
    h_threshold=None, queries: int = 256, clients: int = 32,
    batch_size: int = 64, queue_depth: int = 256, batch_window: float = 0.005,
    hot_fraction: float = 0.5, hot_set: int = 16, validate: bool = False,
    faults=None, min_hit_rate=None, out=None, trace=None, telemetry_port=None,
    telemetry_interval: float = 0.05, slo=None, straggler_ms=None,
    expect_slo=None,
) -> tuple[WorkloadReport, str]:
    """``python -m repro serve`` on one graph: a seeded closed-loop
    session through a :class:`TraversalService`, ended by
    :func:`serve_gate`.

    ``out``
    writes the ``serve.*`` RunReport, ``trace`` the wall-clock Chrome
    trace; ``telemetry_port`` brings up the live plane with ``slo``
    (default ``total:0.25:0.99``); ``straggler_ms`` delays every batch.
    Returns the session's report (``failures`` filled by the gate) and
    the text the CLI prints.
    """
    from repro.analysis.reporting import ascii_table, format_seconds
    from repro.obs.export import write_chrome_trace
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.report import report_from_serve
    from repro.obs.slo import SLOSpec
    from repro.obs.tracer import Tracer
    from repro.serve.bench import build_serving_engine

    metrics = MetricsRegistry()
    tracer = Tracer() if trace else None
    engine = build_serving_engine(
        scale, rows, cols, seed=seed, e_threshold=e_threshold,
        h_threshold=h_threshold, tracer=tracer, metrics=metrics,
    )
    roots = make_workload_roots(
        engine.part.degrees, queries, seed=seed,
        hot_fraction=hot_fraction, hot_set_size=hot_set,
    )
    expected = expected_parents(engine, roots) if validate else None
    if straggler_ms is not None:
        engine = _StragglerEngine(engine, straggler_ms / 1e3)
    telemetry = None
    if telemetry_port is not None:
        telemetry = dict(port=telemetry_port, interval=telemetry_interval,
                         slos=slo or [SLOSpec("total", 0.25, 0.99)])
    report, service, telem = run_serving_session(
        engine, roots,
        clients=clients, expected=expected,
        batch_size=batch_size, queue_depth=queue_depth,
        batch_window=batch_window, faults=session_faults(faults, seed),
        metrics=metrics, telemetry=telemetry,
    )
    stats = service.stats
    table_rows = [
        ("queries", report.num_queries),
        ("served", report.served),
        ("cache hits", f"{report.cache_hits} "
                       f"({100 * report.cache_hit_rate:.0f}%)"),
        ("shed retries", report.shed_retries),
        ("failed", report.failed),
        ("batches", stats.batches),
        ("mean batch size", f"{stats.mean_batch_size:.1f}"),
        ("batch replays", stats.replays),
        ("p50 latency", format_seconds(stats.p50_seconds)),
        ("p99 latency", format_seconds(stats.p99_seconds)),
        ("sim seconds/query", f"{stats.sim_seconds_per_query:.3e}"),
    ]
    if expected is not None:
        table_rows.append(
            ("wrong parents",
             f"{report.wrong_parents}/{report.validated} validated")
        )
    lines = [ascii_table(
        ("stat", "value"), table_rows,
        title=f"serving SCALE {scale} on {rows}x{cols}: "
              f"batch<={batch_size}, queue<={queue_depth}, "
              f"window {batch_window * 1e3:g} ms",
    )]
    if out:
        run_report = report_from_serve(
            service, report,
            context=dict(
                scale=scale, rows=rows, cols=cols, seed=seed,
                queries=queries, clients=clients,
                hot_fraction=hot_fraction, hot_set=hot_set,
            ),
        )
        lines.append(f"run report: {run_report.save(out)}")
    if trace:
        n = write_chrome_trace(tracer, trace, clock="wall")
        lines.append(f"chrome trace: {trace} ({n} events, wall clock)")
    lines += serve_gate(
        report, "serve", telem=telem,
        slo_docs={"": telem.slo} if telem is not None else {},
        validate=validate, min_hit_rate=min_hit_rate, expect_slo=expect_slo,
    )
    return report, "\n".join(lines)

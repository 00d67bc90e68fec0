"""The sharded multi-tenant serving plane.

A :class:`ClusterService` serves M resident tenant graphs from N
service *replicas*.  Admission is per tenant: a request enters its
tenant's bounded queue (quota exhaustion sheds with a typed, fully
attributed :class:`~repro.serve.service.Overloaded`), the
:class:`~repro.cluster.router.ClusterRouter` picks which tenant's batch
runs next under deficit round-robin, and each replica executes one
MSBFS batch at a time — packed from exactly one tenant, so lanes never
mix graphs and every lane's parent tree stays bit-identical to a
sequential run on that tenant's graph.

Admission bookkeeping, batch forming, batch execution and metering are
the shared :mod:`repro.serve.core` (a tenant is a
:class:`~repro.serve.core.ResidentGraph`, and a replica fills the
router's pick with :meth:`~repro.serve.core.ServingCore.fill`); this
module owns the tenancy (per-tenant queues under the router) and the
crash policy.  Failover reuses the per-request replay budget: a
replica that takes a
:class:`~repro.resilience.faults.RankCrashError` (or is killed via
:meth:`ClusterService.kill_replica` mid-batch) is marked down, its
in-flight batch is re-queued at the **front** of the owning tenant's
queue with submit times and trace ids intact, and a surviving replica
re-runs it — the re-routed batch's parents are bit-identical to a
crash-free run.  Requests that rode more than ``max_replays`` crashes
fail with a typed :class:`~repro.serve.service.TraversalError`;
when no live replica remains, queued and incoming requests fail with a
typed :class:`ReplicaDown`.  Every transition is metered:
``cluster_failovers{replica=...}`` counts detections and
``cluster_replicas_live`` tracks capacity.

Per-tenant metric families carry a ``tenant`` label —
``cluster_requests{tenant,outcome}``,
``cluster_latency_seconds{tenant,stage}``,
``cluster_batches{tenant,outcome}``, ``cluster_queue_depth{tenant}`` —
and one :class:`~repro.obs.slo.SLOMonitor` per tenant (``match={"tenant":
...}``) evaluates that tenant's class SLOs over its own staged latency
histograms.
"""

from __future__ import annotations

import asyncio
import functools
import time

from repro.obs.metrics import NULL_METRICS
from repro.obs.slo import SLOMonitor
from repro.serve.core import (
    IngestReport,
    RequestTimeline,
    ServeScope,
    ServeStats,
    ServingCore,
    TraversalResponse,
    attribution,
)

from .router import ClusterRouter, QueueFull
from .tenants import TenantRegistry

__all__ = ["ClusterService", "ReplicaDown"]


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


class _Replica:
    __slots__ = ("replica_id", "down", "kill_requested", "task", "batches")

    def __init__(self, replica_id: str) -> None:
        self.replica_id = replica_id
        self.down = False
        #: Set by kill_replica(); honored at the next batch boundary —
        #: if a batch is in flight its results are discarded and the
        #: batch re-routed, which is exactly the mid-batch crash drill.
        self.kill_requested = False
        self.task: asyncio.Task | None = None
        self.batches = 0


class ClusterService:
    """Serve M tenant graphs from N replicas with weighted fairness."""

    def __init__(
        self,
        registry: TenantRegistry,
        *,
        replicas: int = 2,
        batch_size: int = 64,
        batch_window: float = 0.002,
        max_replays: int = 2,
        faults=None,
        metrics=NULL_METRICS,
        clock=time.monotonic,
        timeline_capacity: int = 2048,
    ) -> None:
        from repro.serve.msbfs import MAX_BATCH_ROOTS

        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if not 1 <= batch_size <= MAX_BATCH_ROOTS:
            raise ValueError(f"batch_size must be in [1, {MAX_BATCH_ROOTS}]")
        if batch_window < 0:
            raise ValueError("batch_window must be >= 0")
        self.registry = registry
        self.router = ClusterRouter(registry, batch_size=batch_size)
        self.batch_size = int(batch_size)
        self.batch_window = float(batch_window)
        self.max_replays = int(max_replays)
        self.metrics = metrics
        self._core = ServingCore(
            clock=clock, timeline_capacity=timeline_capacity, faults=faults
        )
        self._replicas: dict[str, _Replica] = {
            f"r{i}": _Replica(f"r{i}") for i in range(int(replicas))
        }
        self._wake = asyncio.Event()
        self._closed = True
        #: Cluster-aggregate counters (per-tenant counters live on the
        #: Tenant objects); both are sinks of every tenant's scope, so
        #: the telemetry /healthz view and per-tenant views reconcile.
        self.stats = ServeStats()
        self._scopes: dict[str, ServeScope] = {
            tenant.tenant_id: ServeScope(
                metrics,
                "cluster",
                (tenant.stats, self.stats),
                tenant=tenant.tenant_id,
            )
            for tenant in registry
        }
        self._inflight = 0
        self._ingest_lock = asyncio.Lock()
        #: One burn-rate monitor per tenant, narrowed to that tenant's
        #: label on the shared latency family.
        self.slo_monitors: dict[str, SLOMonitor] = {
            tenant.tenant_id: SLOMonitor(
                metrics,
                tenant.spec.resolved_slos,
                metric="cluster_latency_seconds",
                match={"tenant": tenant.tenant_id},
                clock=clock,
            )
            for tenant in registry
        }
        self.metrics.gauge("cluster_replicas_live").set(len(self._replicas))
        self.metrics.gauge("cluster_tenants").set(len(registry))

    # ------------------------------------------------------------------
    # introspection (TelemetryServer-compatible surface)
    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        return self.router.pending + self._inflight

    @property
    def replica_ids(self) -> list[str]:
        return list(self._replicas)

    @property
    def live_replicas(self) -> list[str]:
        return [r.replica_id for r in self._replicas.values() if not r.down]

    def request_timeline(self, trace_id: str) -> RequestTimeline | None:
        return self._core.request_timeline(trace_id)

    def slo_status(self) -> dict:
        """Per-tenant SLO evaluation documents (the /slo/<tenant> view)."""
        return {
            tid: monitor.evaluate()
            for tid, monitor in self.slo_monitors.items()
        }

    def tenants_snapshot(self) -> dict:
        """The /tenants telemetry document: per-tenant queue + counters."""
        queues = self.router.snapshot()
        doc = {}
        for tenant in self.registry:
            tid = tenant.tenant_id
            stats = tenant.stats
            doc[tid] = {
                **queues[tid],
                "slo_class": tenant.spec.slo_class,
                "fingerprint": tenant.fingerprint,
                "num_vertices": tenant.num_vertices,
                "requests": stats.requests,
                "completed": stats.completed,
                "cache_hits": stats.cache_hits,
                "shed": stats.shed,
                "failed": stats.failed,
                "p50_seconds": stats.p50_seconds,
                "p99_seconds": stats.p99_seconds,
            }
        return {
            "tenants": doc,
            "replicas": {
                rid: {"down": rep.down, "batches": rep.batches}
                for rid, rep in self._replicas.items()
            },
            "pending": self.pending,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        if any(r.task is not None for r in self._replicas.values()):
            raise RuntimeError("cluster already started")
        self._closed = False
        self._wake = asyncio.Event()
        for replica in self._replicas.values():
            replica.task = asyncio.create_task(self._replica_loop(replica))

    async def stop(self) -> None:
        """Drain every tenant queue on surviving replicas, then stop."""
        self._closed = True
        self._wake.set()
        for replica in self._replicas.values():
            if replica.task is not None:
                await replica.task
                replica.task = None
        # Anything still queued had no live replica to drain it.
        for tenant_id, request in self.router.drain():
            self._fail_down(self._scopes[tenant_id], request)

    async def __aenter__(self) -> "ClusterService":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    def kill_replica(self, replica_id: str) -> None:
        """Take one replica down (failure drill / test hook).

        Takes effect at the replica's next batch boundary: an in-flight
        batch's results are discarded and the batch re-routed through
        the normal failover path, so a mid-batch kill exercises
        detection → re-queue → re-route on a surviving replica.
        """
        replica = self._replicas.get(replica_id)
        if replica is None:
            raise KeyError(
                f"unknown replica {replica_id!r} "
                f"(configured: {', '.join(self._replicas)})"
            )
        replica.kill_requested = True
        self._wake.set()

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    async def submit(self, tenant_id: str, root: int) -> TraversalResponse:
        """Serve one BFS query against one tenant's resident graph.

        Raises :class:`~repro.serve.service.Overloaded` when the
        tenant's admission quota is exhausted,
        :class:`~repro.serve.service.TraversalError` when the query's
        batch exhausted its replay budget, and :class:`ReplicaDown` when
        no live replica remains.
        """
        if self._closed:
            raise RuntimeError("cluster is not running")
        tenant = self.registry[tenant_id]
        scope = self._scopes[tenant_id]
        root = int(root)
        if not 0 <= root < tenant.num_vertices:
            raise ValueError(
                f"root {root} out of range for tenant {tenant_id!r}"
            )
        request = self._core.begin(scope, root)
        hit = self._core.lookup(tenant, scope, request)
        if hit is not None:
            return hit
        if not self.live_replicas:
            raise self._fail_down(scope, request)
        try:
            self.router.push(tenant_id, request)
        except QueueFull as full:
            raise self._core.shed(
                scope, request, full.depth, full.quota
            ) from None
        future = self._core.admit(scope, request)
        scope.gauge("queue_depth").set(self.router.depth(tenant_id))
        self._wake.set()
        return await future

    # ------------------------------------------------------------------
    # replica loops
    # ------------------------------------------------------------------

    async def _replica_loop(self, replica: _Replica) -> None:
        while True:
            if replica.kill_requested and not replica.down:
                self._mark_down(replica)
            if replica.down:
                return
            picked = self.router.next_batch()
            if picked is None:
                if self._closed:
                    return
                self._wake.clear()
                await self._wake.wait()
                continue
            tenant_id, batch = picked
            batch = await self._core.fill(
                batch, functools.partial(self.router.pop, tenant_id),
                self._wake, size=self.batch_size, window=self.batch_window,
                draining=lambda: self._closed or replica.kill_requested,
            )
            await self._execute_batch(replica, tenant_id, batch)

    # ------------------------------------------------------------------
    # batch execution
    # ------------------------------------------------------------------

    async def _execute_batch(
        self, replica: _Replica, tenant_id: str, batch: list
    ) -> None:
        tenant = self.registry[tenant_id]
        scope = self._scopes[tenant_id]
        scope.gauge("queue_depth").set(self.router.depth(tenant_id))
        self._inflight += len(batch)
        run = await self._core.run(tenant, scope, batch)
        self._inflight -= len(batch)
        if run is not None and run.result is not None and replica.kill_requested:
            # Killed mid-batch: the replica is gone as far as clients
            # are concerned, so its computed results are discarded and
            # the batch re-routed like a crash.
            scope.counter("batches", outcome="crashed").inc()
            run = None
        if run is None:
            self._mark_down(replica)
            self._reroute(replica, scope, batch)
            return
        replica.batches += 1
        self._core.resolve(tenant, scope, run)

    # ------------------------------------------------------------------
    # failover
    # ------------------------------------------------------------------

    def _mark_down(self, replica: _Replica) -> None:
        if replica.down:
            return
        replica.down = True
        replica.kill_requested = False
        self.metrics.counter(
            "cluster_failovers", replica=replica.replica_id
        ).inc()
        self.metrics.gauge("cluster_replicas_live").set(
            len(self.live_replicas)
        )

    def _reroute(self, replica: _Replica, scope: ServeScope, batch: list) -> None:
        """Crash policy: re-queue a down replica's in-flight batch for a
        survivor.

        Requests keep their submit times and trace ids — latency
        accounting spans the failover.  Requests over the replay budget
        fail typed; with no survivors everything fails
        :class:`ReplicaDown`.
        """
        if not self.live_replicas:
            for request in batch:
                self._fail_down(scope, request)
            return
        survivors = self._core.charge_replay(
            scope,
            batch,
            self.max_replays,
            f"replica {replica.replica_id} down",
        )
        if survivors:
            self.router.push_front(scope.tenant, survivors)
            self._wake.set()

    def _fail_down(self, scope: ServeScope, request) -> ReplicaDown:
        """Fail ``request`` for want of a live replica; returns the
        error so admission can raise it."""
        error = ReplicaDown(
            tenant=scope.tenant,
            trace_id=request.trace_id,
            replicas=len(self._replicas),
        )
        self._core.fail(scope, request, error)
        return error

    # ------------------------------------------------------------------
    # streaming ingestion (per tenant)
    # ------------------------------------------------------------------

    async def ingest_updates(self, tenant_id: str, batches) -> IngestReport:
        """Apply edge-update batches to one tenant's resident graph.

        Requires the tenant to have been built with ``dynamic=True``.
        See :meth:`~repro.serve.core.ResidentGraph.ingest`: the repair
        runs on the executor; the engine swap, fingerprint bump, and
        partial cache invalidation are atomic between query batches.
        Other tenants are completely unaffected — their fingerprints
        and caches don't move.
        """
        tenant = self.registry[tenant_id]
        async with self._ingest_lock:
            return await tenant.ingest(batches, self._scopes[tenant_id])

"""Open-loop multi-tenant workload driving for the cluster plane.

The single-graph :func:`~repro.serve.workload.run_workload` driver is
*closed-loop*: N clients each keep one query in flight, so offered load
adapts to service speed.  Fairness and overload gates need the
opposite — an **open loop** that dispatches each
:class:`~repro.serve.workload.ClusterQuery` at its scheduled arrival
time regardless of how the service is coping, so a hot tenant really
does offer 10× load and a 2× overload really is 2×.

Every query's terminal outcome is recorded: served (with optional
bit-exact parent validation against a per-tenant expectation), failed
typed (:class:`~repro.serve.service.TraversalError` /
:class:`~repro.cluster.service.ReplicaDown`), or shed typed
(:class:`~repro.serve.service.Overloaded` after the retry budget, which
defaults to 0 — under overload gates a shed is a terminal, *accounted*
answer, not something to hide behind retries).  The report's
``accounted`` therefore equals ``num_queries`` exactly when no request
was silently dropped — the gate the benchmark enforces.
"""

from __future__ import annotations

import asyncio
import functools

from repro.serve.service import TraversalError
from repro.serve.workload import (
    ClusterWorkload,
    QueryOutcome,
    WorkloadReport,
    record_query,
    run_session,
)

from .service import ClusterService, ReplicaDown

__all__ = ["run_cluster_workload", "run_cluster_session"]


async def run_cluster_workload(
    cluster: ClusterService,
    workload: ClusterWorkload,
    *,
    time_scale: float = 1.0,
    expected: dict | None = None,
    shed_backoff: float = 0.0005,
    max_shed_retries: int = 0,
    kill_at: tuple[str, int] | None = None,
) -> WorkloadReport:
    """Dispatch a timed workload open-loop; return per-query outcomes.

    ``time_scale`` compresses (<1) or stretches (>1) the workload's
    arrival times.  ``expected`` maps tenant id -> {root: parent array}
    for bit-exact validation.  ``kill_at=(replica_id, query_index)``
    calls :meth:`ClusterService.kill_replica` just before dispatching
    that query — the failure drill used by the smoke and the benchmark.
    """
    if time_scale <= 0:
        raise ValueError("time_scale must be > 0")
    loop = asyncio.get_running_loop()
    expected = expected or {}
    outcomes: list[QueryOutcome] = []

    async def one(query) -> None:
        outcomes.append(
            await record_query(
                functools.partial(cluster.submit, query.tenant, query.root),
                query.root,
                tenant=query.tenant,
                want=expected.get(query.tenant, {}).get(query.root),
                failures=(TraversalError, ReplicaDown),
                shed_backoff=shed_backoff,
                max_shed_retries=max_shed_retries,
            )
        )

    t0 = loop.time()
    tasks = []
    for index, query in enumerate(workload.queries):
        if kill_at is not None and index == kill_at[1]:
            cluster.kill_replica(kill_at[0])
        due = t0 + query.arrival_seconds * time_scale
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(one(query)))
    if kill_at is not None and kill_at[1] >= len(workload.queries):
        cluster.kill_replica(kill_at[0])
    if tasks:
        await asyncio.gather(*tasks)
    return WorkloadReport(outcomes=outcomes)


def run_cluster_session(
    registry,
    workload: ClusterWorkload,
    *,
    replicas: int = 2,
    expected: dict | None = None,
    time_scale: float = 1.0,
    max_shed_retries: int = 0,
    kill_at: tuple[str, int] | None = None,
    telemetry: dict | None = None,
    **cluster_kwargs,
):
    """Synchronous convenience: build a :class:`ClusterService` over
    ``registry``, run ``workload`` open-loop to completion, stop the
    cluster, and return ``(report, cluster, telemetry)`` for stats
    inspection — the last a
    :class:`~repro.serve.workload.TelemetrySummary`, or ``None`` without
    ``telemetry``.

    ``telemetry`` (optional) starts the live plane for the session —
    keys as in :func:`~repro.serve.workload.run_serving_session`
    (``port``, ``interval``, ``scrape``); the cluster's own per-tenant
    SLO monitors back the ``/slo`` views.  Requires ``metrics=`` a real
    registry in ``cluster_kwargs``.
    """

    async def main():
        cluster = ClusterService(
            registry, replicas=replicas, **cluster_kwargs
        )
        return await run_session(
            cluster,
            lambda: run_cluster_workload(
                cluster,
                workload,
                time_scale=time_scale,
                expected=expected,
                max_shed_retries=max_shed_retries,
                kill_at=kill_at,
            ),
            telemetry=telemetry,
            cluster=cluster,
        )

    return asyncio.run(main())

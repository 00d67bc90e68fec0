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

:func:`run_cluster_drill` is ``python -m repro serve --tenants``; its
``smoke`` pins the CI slo-smoke configuration (:data:`SMOKE_GRAPH`,
:data:`SMOKE_WORKLOAD`) and a mid-run replica kill.
"""

from __future__ import annotations

import asyncio
import functools
from dataclasses import replace

from repro.serve.service import TraversalError
from repro.serve.workload import (
    ClusterWorkload,
    QueryOutcome,
    WorkloadReport,
    expected_parents,
    make_diurnal_workload,
    record_query,
    run_session,
    serve_gate,
    session_faults,
)

from .service import ClusterService, ReplicaDown
from .tenants import build_registry, parse_tenant_spec

__all__ = [
    "SMOKE_GRAPH",
    "SMOKE_WORKLOAD",
    "run_cluster_drill",
    "run_cluster_session",
    "run_cluster_workload",
]

#: ``serve --smoke``: every tenant's graph is SCALE 9 on a 2x2 mesh,
#: seed 7, and every response is validated.
SMOKE_GRAPH = dict(scale=9, rows=2, cols=2, seed=7)
#: ``serve --smoke``: the workload values it uses where no flag is given.
SMOKE_WORKLOAD = dict(tenants="3", queries=120, duration=0.3,
                      hot_fraction=0.8, hot_set=8)
#: The workload values a multi-tenant drill uses where neither a flag
#: nor the smoke gives one.
_DEFAULT_WORKLOAD = dict(queries=256, duration=0.5, hot_fraction=0.5,
                         hot_set=16, replicas=2)


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


def run_cluster_drill(
    *, scale: int, rows: int, cols: int, seed: int, e_threshold=None,
    h_threshold=None, tenants=None, replicas=None, quota=None, slo=None,
    queries=None, duration=None, hot_fraction=None, hot_set=None,
    batch_size: int = 64, batch_window: float = 0.005, validate: bool = False,
    faults=None, min_hit_rate=None, telemetry_port=None,
    telemetry_interval: float = 0.05, out=None, smoke: bool = False,
) -> tuple[WorkloadReport, str]:
    """``python -m repro serve --tenants``: the ``tenants`` spec's
    resident graphs behind ``replicas`` replicas, driven by a seeded
    diurnal workload and ended by :func:`~repro.serve.workload.serve_gate`.

    ``quota`` / ``slo`` / the thresholds override every tenant's.
    ``smoke`` pins :data:`SMOKE_GRAPH` and validation, fills unset
    workload values from :data:`SMOKE_WORKLOAD`, and with two or more
    replicas kills ``r0`` halfway through the queries (the failover
    drill).  ``out`` writes the session as JSON.  Returns the session's
    report (``failures`` filled by the gate) and the text the CLI
    prints.
    """
    # Looked up on the package at call time, so a patched
    # ``repro.cluster.run_cluster_session`` runs in its place.
    import repro.cluster
    from repro.analysis.reporting import ascii_table, format_seconds
    from repro.obs.export import write_json
    from repro.obs.metrics import MetricsRegistry

    given = dict(tenants=tenants, queries=queries, duration=duration,
                 hot_fraction=hot_fraction, hot_set=hot_set, replicas=replicas)
    defaults = dict(_DEFAULT_WORKLOAD, **(SMOKE_WORKLOAD if smoke else {}))
    if smoke:
        scale, rows, cols, seed = SMOKE_GRAPH.values()
        validate = True
    tenants, queries, duration, hot_fraction, hot_set, replicas = (
        defaults.get(k) if v is None else v for k, v in given.items()
    )
    specs = [
        replace(spec, quota=quota, slos=slo and tuple(slo),
                e_threshold=e_threshold, h_threshold=h_threshold)
        for spec in parse_tenant_spec(
            tenants, scale=scale, rows=rows, cols=cols, seed=seed
        )
    ]
    registry = build_registry(specs)
    workload = make_diurnal_workload(
        registry.degrees_map(), queries, seed=seed,
        duration_seconds=duration,
        hot_fraction=hot_fraction, hot_set_size=hot_set,
    )
    kill_at = ("r0", queries // 2) if smoke and replicas >= 2 else None
    expected = None
    if validate:
        expected = {
            tenant.tenant_id: expected_parents(tenant.batched, [
                q.root for q in workload.for_tenant(tenant.tenant_id).queries
            ])
            for tenant in registry
        }
    telemetry = None
    if telemetry_port is not None:
        telemetry = dict(port=telemetry_port, interval=telemetry_interval,
                         slos=())
    report, cluster, telem = repro.cluster.run_cluster_session(
        registry, workload,
        replicas=replicas, expected=expected,
        max_shed_retries=10_000, kill_at=kill_at, telemetry=telemetry,
        batch_size=batch_size, batch_window=batch_window,
        faults=session_faults(faults, seed), metrics=MetricsRegistry(),
    )
    per_tenant = report.per_tenant()
    slo_docs = cluster.slo_status()
    table_rows = []
    for tenant in registry:
        tid = tenant.tenant_id
        sub = per_tenant.get(tid)
        stats = tenant.stats
        table_rows.append([
            tid, tenant.spec.slo_class,
            sub.num_queries if sub else 0,
            sub.served if sub else 0,
            sub.typed_sheds if sub else 0,
            sub.failed if sub else 0,
            f"{100 * stats.cache_hit_rate:.0f}%",
            format_seconds(stats.p50_seconds),
            format_seconds(stats.p99_seconds),
            slo_docs.get(tid, {}).get("status", "ok"),
        ])
    lines = [
        ascii_table(
            ("tenant", "class", "queries", "served", "sheds", "failed",
             "hit rate", "p50", "p99", "slo"),
            table_rows,
            title=f"cluster serving: {len(registry)} tenants x "
                  f"{replicas} replicas (SCALE {scale}, {rows}x{cols} "
                  f"per tenant), {queries} queries over {duration:g}s "
                  f"diurnal workload:",
        ),
        f"aggregate: {report.served} served "
        f"({report.cache_hits} cached), {report.typed_sheds} typed "
        f"sheds, {report.failed} failed, "
        f"{report.num_queries - report.accounted} silently dropped; "
        f"{cluster.stats.batches} batches, "
        f"{cluster.stats.replays} failover replays; "
        f"replicas live: {len(cluster.live_replicas)}/"
        f"{len(cluster.replica_ids)}",
    ]
    if kill_at is not None:
        downs = len(cluster.replica_ids) - len(cluster.live_replicas)
        if downs != 1:
            report.failures.append(f"kill drill expected exactly 1 replica "
                                   f"down, found {downs}")
        else:
            lines.append(f"failover drill: replica {kill_at[0]} killed "
                         "mid-run; in-flight batch re-routed, parents "
                         "validated")
    lines += serve_gate(report, "cluster", telem=telem, slo_docs=slo_docs,
                        validate=validate, min_hit_rate=min_hit_rate)
    if out:
        doc = {
            "config": {
                "scale": scale, "mesh": f"{rows}x{cols}", "seed": seed,
                "replicas": replicas, "queries": queries,
                "duration_seconds": duration,
                "tenants": {t.tenant_id: t.spec.slo_class for t in registry},
            },
            "tenants": {
                tid: {key: snap[key] for key in (
                    "slo_class", "requests", "completed", "cache_hits",
                    "shed", "failed", "p50_seconds", "p99_seconds",
                )}
                for tid, snap in cluster.tenants_snapshot()["tenants"].items()
            },
            "report": {
                **{key: getattr(report, key) for key in (
                    "num_queries", "served", "cache_hits", "typed_sheds",
                    "failed", "accounted", "validated", "wrong_parents",
                )},
                "p50_seconds": report.latency_percentile(50),
                "p99_seconds": report.latency_percentile(99),
            },
            "slo": slo_docs,
            "replicas": {
                rid: rid in cluster.live_replicas
                for rid in cluster.replica_ids
            },
            "gate_passed": not report.failures,
        }
        lines.append(f"wrote {write_json(out, doc)}")
    return report, "\n".join(lines)

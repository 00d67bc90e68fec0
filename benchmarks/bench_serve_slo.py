#!/usr/bin/env python
"""Multi-tenant serving SLO benchmark: fairness, overload, failover.

The cluster plane's operational claims, measured end to end on wall
clock with three resident SCALE-9 tenant graphs (one per service
class) behind two replicas:

1. **Solo baselines** — each tenant's sub-stream of the shared seeded
   diurnal workload runs alone; its p99 must sit inside its class SLO
   threshold (gold 250 ms, silver 500 ms, bronze 1 s — generous bounds,
   the solo p99 is typically well under 100 ms).
2. **Fairness** — the gold tenant is offered ~10x every other tenant's
   load (Pareto-style popularity pinned to 10:1:1).  The gate is on the
   router clock: the stream's arrival order is replayed through
   :class:`~repro.cluster.router.ClusterRouter` with no event loop and no
   clock, and every cold request must leave after at most weight(gold)
   = 4 hot batches — one hot quantum, however deep the hot backlog.  The
   full workload also runs on the wall clock; each cold tenant's p99
   against 1.5x its solo baseline (plus a 50 ms floor) is recorded but
   not gated, because on a 2-vCPU host that ratio passed 1 of 3 and 2 of
   4 runs.
3. **2x overload** — the same stream is offered at twice the measured
   fairness-phase throughput with tiny admission quotas and zero client
   retries.  Every query must terminate as a response or a *typed*
   shed: zero dropped-without-typed-shed responses, and the overload
   must actually shed (sheds > 0), or the phase didn't test anything.
4. **Failover drill** — a replica is killed mid-run; every response
   must still arrive and be bit-identical to a sequential run of the
   same root on the same tenant graph, with exactly one recorded
   failover.

Modes::

    PYTHONPATH=src python benchmarks/bench_serve_slo.py           # run + write baseline
    PYTHONPATH=src python benchmarks/bench_serve_slo.py --check benchmarks/results/BENCH_serve_slo.json

``--check`` re-runs everything, re-evaluates every gate, and
additionally drift-gates the *deterministic* workload fields against
the committed artifact — per-tenant query counts, popularity shares,
and the root-stream checksum are bit-reproducible from the seed, so
any drift means the generator changed; regenerate the baseline
deliberately, not accidentally.  Wall-clock latencies are recorded in
the artifact for tracking but never drift-gated (CI machines vary).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.analysis.reporting import ascii_table  # noqa: E402
from repro.cluster import (  # noqa: E402
    ClusterRouter,
    TenantSpec,
    build_registry,
    run_cluster_session,
)
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.serve.workload import make_diurnal_workload  # noqa: E402

SCALE = 9
ROWS = COLS = 2
SEED = 7
REPLICAS = 2
#: One tenant per service class; gold is the hot tenant.
TENANTS = (("hot", "gold"), ("mid", "silver"), ("cold", "bronze"))
#: Pinned popularity: the gold tenant offers ~10x each cold tenant.
POPULARITY = {"hot": 10.0, "mid": 1.0, "cold": 1.0}
FAIR_QUERIES = 480
FAIR_DURATION = 0.5
#: Class SLO bounds gating the solo p99 (seconds).
CLASS_P99_BOUND = {"gold": 0.25, "silver": 0.5, "bronze": 1.0}
#: Wall-clock fairness limit, reported but not gated: cold p99 <=
#: FAIR_RATIO x solo p99 + FAIR_FLOOR.
FAIR_RATIO = 1.5
FAIR_FLOOR = 0.05
#: Router-clock fairness replay: one ROUTER_BATCH-request batch leaves
#: per two batches' worth of arrivals, so the hot tenant backlogs.  At 4
#: (the tier-1 replay's size) the pinned stream's 41 bronze requests
#: outrun the one bronze batch per ring cycle; 8 is the smallest size at
#: which every cold turn drains its queue, the premise of the bound.
ROUTER_BATCH = 8
#: Overload phase: offered rate multiple and per-tenant quota.
OVERLOAD_X = 2.0
OVERLOAD_QUOTA = 8
#: Allowed drift of popularity floats vs the committed baseline.
SHARE_TOLERANCE = 1e-9

RESULTS = Path(__file__).parent / "results" / "BENCH_serve_slo.json"


def _specs(quota: int | None = None) -> list[TenantSpec]:
    return [
        TenantSpec(
            tenant_id=name, scale=SCALE, rows=ROWS, cols=COLS,
            seed=SEED + i, slo_class=cls,
            quota=quota,
        )
        for i, (name, cls) in enumerate(TENANTS)
    ]


def _workload(registry, *, hot_friendly: bool = True):
    return make_diurnal_workload(
        registry.degrees_map(), FAIR_QUERIES, seed=SEED,
        duration_seconds=FAIR_DURATION,
        popularity=POPULARITY,
        hot_fraction=0.8 if hot_friendly else 0.0,
        hot_set_size=8,
    )


def _checksum(workload) -> str:
    """Deterministic digest of the query stream (tenants, roots, and
    arrival-time bits)."""
    h = hashlib.sha256()
    for q in workload.queries:
        h.update(f"{q.tenant}:{q.root};".encode())
    h.update(
        np.array(
            [q.arrival_seconds for q in workload.queries], dtype=np.float64
        ).tobytes()
    )
    return h.hexdigest()


def _staged_p99(metrics, tenant: str) -> dict:
    """Per-stage p99 from the tenant's cumulative latency histograms
    (quantized to bucket bounds; informational)."""
    return {
        labels["stage"]: hist.percentile(0.99)
        for labels, hist in metrics.samples("cluster_latency_seconds")
        if labels.get("tenant") == tenant and hist.count
    }


def router_fairness(registry, workload) -> dict:
    """Replay ``workload``'s arrival order through the deficit
    round-robin router, with no event loop and no clock: per cold tenant,
    the most hot batches any of its requests waited behind, and the hot
    backlog left at the end (the bound is vacuous unless it is deep)."""
    weight = {t.tenant_id: t.spec.resolved_weight for t in registry}
    router = ClusterRouter(
        [(tid, workload.num_queries, w) for tid, w in weight.items()],
        batch_size=ROUTER_BATCH,
    )
    hot_batches = 0
    waits = {tid: [] for tid in weight if tid != "hot"}
    for i, query in enumerate(workload.queries):
        # A request remembers how many hot batches had left on arrival.
        router.push(query.tenant, hot_batches)
        if (i + 1) % (2 * ROUTER_BATCH) == 0:
            tenant_id, batch = router.next_batch()
            if tenant_id == "hot":
                hot_batches += 1
            else:
                waits[tenant_id].extend(hot_batches - seen for seen in batch)
    return dict(
        batch_size=ROUTER_BATCH,
        hot_weight=weight["hot"],
        hot_batches=hot_batches,
        hot_backlog=router.depth("hot"),
        max_hot_batches_waited={
            tid: max(w, default=None) for tid, w in waits.items()
        },
    )


def _session(workload, *, quota=None, replicas=REPLICAS, expected=None,
             time_scale=1.0, max_shed_retries=10_000, kill_at=None):
    registry = build_registry(_specs(quota))
    metrics = MetricsRegistry()
    t0 = time.perf_counter()
    report, cluster, _ = run_cluster_session(
        registry, workload,
        replicas=replicas, expected=expected, time_scale=time_scale,
        max_shed_retries=max_shed_retries, kill_at=kill_at,
        metrics=metrics,
    )
    elapsed = time.perf_counter() - t0
    return report, cluster, registry, metrics, elapsed


def run_bench() -> dict:
    failures: list[str] = []
    base_registry = build_registry(_specs())
    workload = _workload(base_registry)

    # ------------------------------------------------------------- solo
    solo = {}
    for tenant in base_registry:
        tid = tenant.tenant_id
        sub = workload.for_tenant(tid)
        report, cluster, _, metrics, elapsed = _session(sub)
        p99 = report.latency_percentile(99)
        bound = CLASS_P99_BOUND[tenant.spec.slo_class]
        solo[tid] = dict(
            slo_class=tenant.spec.slo_class,
            queries=sub.num_queries,
            served=report.served,
            p50_seconds=report.latency_percentile(50),
            p99_seconds=p99,
            p99_bound_seconds=bound,
            staged_p99_seconds=_staged_p99(metrics, tid),
            elapsed_seconds=elapsed,
        )
        if report.served != sub.num_queries:
            failures.append(f"solo {tid}: {sub.num_queries - report.served} "
                            "queries not served")
        if not p99 < bound:
            failures.append(f"solo {tid}: p99 {p99:.3f}s over class bound "
                            f"{bound:g}s")

    # --------------------------------------------------------- fairness
    # Gated on the router clock; the wall-clock run below is reported.
    router = router_fairness(base_registry, workload)
    if router["hot_backlog"] <= router["hot_weight"] * ROUTER_BATCH:
        failures.append("fairness: the hot tenant never backlogged in the "
                        "router replay, the bound is vacuous")
    for tid, waited in router["max_hot_batches_waited"].items():
        if waited is None or waited > router["hot_weight"]:
            failures.append(
                f"fairness {tid}: a request waited behind {waited} hot "
                f"batches on the router clock (bound: one hot quantum, "
                f"{router['hot_weight']})"
            )
    report, cluster, registry, metrics, fair_elapsed = _session(workload)
    per = report.per_tenant()
    fairness = dict(
        hot_tenant="hot", cold={}, elapsed_seconds=fair_elapsed, router=router
    )
    if report.accounted != workload.num_queries:
        failures.append(
            f"fairness: {workload.num_queries - report.accounted} "
            "silent drops"
        )
    for tid in ("mid", "cold"):
        sub = per.get(tid)
        p99 = sub.latency_percentile(99) if sub else float("nan")
        solo_p99 = solo[tid]["p99_seconds"]
        limit = FAIR_RATIO * solo_p99 + FAIR_FLOOR
        fairness["cold"][tid] = dict(
            p99_seconds=p99,
            solo_p99_seconds=solo_p99,
            limit_seconds=limit,
            ratio_vs_solo=p99 / solo_p99 if solo_p99 else float("nan"),
            staged_p99_seconds=_staged_p99(metrics, tid),
        )

    # --------------------------------------------------------- overload
    # Offer the traversal-heavy stream at 2x the measured fairness
    # throughput, with tiny quotas and no client retries: every query
    # must end served, failed-typed, or shed-typed — never dropped.
    heavy = _workload(base_registry, hot_friendly=False)
    rate = workload.num_queries / max(fair_elapsed, 1e-9)
    time_scale = (heavy.num_queries / (OVERLOAD_X * rate)) / max(
        heavy.duration_seconds, 1e-9
    )
    report, cluster, _, metrics, over_elapsed = _session(
        heavy, quota=OVERLOAD_QUOTA, time_scale=time_scale,
        max_shed_retries=0,
    )
    silent = heavy.num_queries - report.accounted
    overload = dict(
        offered_x=OVERLOAD_X,
        queries=heavy.num_queries,
        time_scale=time_scale,
        served=report.served,
        typed_sheds=report.typed_sheds,
        failed=report.failed,
        silent_drops=silent,
        quota=OVERLOAD_QUOTA,
        elapsed_seconds=over_elapsed,
        per_class_p99_seconds={
            tid: sub.latency_percentile(99)
            for tid, sub in report.per_tenant().items()
        },
    )
    if silent:
        failures.append(f"overload: {silent} dropped without a typed shed")
    if report.failed:
        failures.append(f"overload: {report.failed} typed failures "
                        "(expected none: sheds only)")
    if report.typed_sheds == 0:
        failures.append("overload: no typed sheds — 2x overload did not "
                        "stress admission, phase is vacuous")

    # --------------------------------------------------------- failover
    expected = {}
    for tenant in base_registry:
        mine = sorted(
            {q.root for q in workload.queries
             if q.tenant == tenant.tenant_id}
        )
        expected[tenant.tenant_id] = {
            r: tenant.batched.run(r).parent for r in mine
        }
    report, cluster, _, metrics, drill_elapsed = _session(
        workload, expected=expected,
        kill_at=("r0", workload.num_queries // 2),
    )
    downs = len(cluster.replica_ids) - len(cluster.live_replicas)
    failover = dict(
        killed="r0",
        replicas=REPLICAS,
        replicas_down=downs,
        served=report.served,
        validated=report.validated,
        wrong_parents=report.wrong_parents,
        failover_replays=cluster.stats.replays,
        elapsed_seconds=drill_elapsed,
    )
    if report.served != workload.num_queries:
        failures.append(
            f"failover: {workload.num_queries - report.served} queries "
            "lost across the replica kill"
        )
    if report.wrong_parents:
        failures.append(f"failover: {report.wrong_parents} parents differ "
                        "from the sequential reference after re-route")
    if downs != 1:
        failures.append(f"failover: expected exactly 1 replica down, "
                        f"found {downs}")

    return dict(
        schema="bench.serve_slo.v1",
        config=dict(
            scale=SCALE, mesh=f"{ROWS}x{COLS}", seed=SEED,
            replicas=REPLICAS,
            tenants={name: cls for name, cls in TENANTS},
            popularity=POPULARITY,
            queries=FAIR_QUERIES, duration_seconds=FAIR_DURATION,
            fair_ratio=FAIR_RATIO, fair_floor_seconds=FAIR_FLOOR,
            overload_x=OVERLOAD_X, overload_quota=OVERLOAD_QUOTA,
        ),
        workload=dict(
            num_queries=workload.num_queries,
            per_tenant_counts=workload.per_tenant_counts(),
            popularity=workload.popularity,
            checksum=_checksum(workload),
            heavy_checksum=_checksum(heavy),
        ),
        solo=solo,
        fairness=fairness,
        overload=overload,
        failover=failover,
        gate=dict(passed=not failures, failures=failures),
    )


def render(result: dict) -> str:
    rows = []
    for tid, doc in result["solo"].items():
        fair = result["fairness"]["cold"].get(tid)
        rows.append([
            tid, doc["slo_class"], doc["queries"],
            f"{doc['p99_seconds'] * 1e3:.1f}ms",
            f"{doc['p99_bound_seconds'] * 1e3:g}ms",
            f"{fair['p99_seconds'] * 1e3:.1f}ms" if fair else "(hot)",
            f"{fair['limit_seconds'] * 1e3:.1f}ms" if fair else "-",
        ])
    table = ascii_table(
        ["tenant", "class", "queries", "solo p99", "class bound",
         "fair p99", "fair limit"],
        rows,
        title=f"per-tenant SLOs ({result['config']['queries']} queries, "
              f"hot tenant at ~10x):",
    )
    o = result["overload"]
    f = result["failover"]
    r = result["fairness"]["router"]
    return "\n".join([
        table,
        f"router clock: cold requests waited behind at most "
        f"{r['max_hot_batches_waited']} hot batches (bound "
        f"{r['hot_weight']}; hot backlog {r['hot_backlog']})",
        f"overload {o['offered_x']:g}x: {o['served']} served, "
        f"{o['typed_sheds']} typed sheds, {o['failed']} failed, "
        f"{o['silent_drops']} silent drops (quota {o['quota']})",
        f"failover: replica {f['killed']} killed mid-run -> "
        f"{f['served']} served, {f['wrong_parents']} wrong parents, "
        f"{f['failover_replays']} failover replays",
    ])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", metavar="BASELINE", default=None,
        help="re-run and gate against this committed artifact",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=str(RESULTS),
        help="artifact destination when not in --check mode",
    )
    args = parser.parse_args(argv)

    result = run_bench()
    print(render(result))
    ok = result["gate"]["passed"]
    for failure in result["gate"]["failures"]:
        print(f"FAIL: {failure}")

    if args.check:
        baseline = json.loads(Path(args.check).read_text())
        base_wl, new_wl = baseline["workload"], result["workload"]
        for key in ("num_queries", "per_tenant_counts", "checksum",
                    "heavy_checksum"):
            if base_wl[key] != new_wl[key]:
                print(f"FAIL: workload.{key} drifted from baseline "
                      f"({base_wl[key]!r} -> {new_wl[key]!r}); the seeded "
                      f"generator changed — regenerate {args.check} if "
                      "intended")
                ok = False
        for tid, share in base_wl["popularity"].items():
            drift = abs(new_wl["popularity"].get(tid, float("nan")) - share)
            if not drift <= SHARE_TOLERANCE:
                print(f"FAIL: popularity[{tid}] drifted {drift:g} "
                      "from baseline")
                ok = False
        print(f"check vs {args.check}: {'PASS' if ok else 'FAIL'}")
    else:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        print(f"baseline: {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

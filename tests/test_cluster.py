"""The multi-tenant cluster plane: tenants, router, service, failover.

MS-BFS and single-graph serving correctness live in test_msbfs.py /
test_serve.py; here we test the sharded layer on top — the tenant spec
grammar and service classes, the deficit-round-robin router as a pure
data structure, per-tenant admission and typed shedding, replica
failover with bit-identical re-routing, weighted fairness under a hot
tenant, per-tenant SLO monitors, streaming-ingest isolation, and the
multi-tenant telemetry views.
"""

import asyncio
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import (
    ClusterRouter,
    ClusterService,
    QueueFull,
    ReplicaDown,
    TenantSpec,
    build_registry,
    parse_tenant_spec,
)
from repro.cluster.tenants import SLO_CLASSES
from repro.dynamic.updates import UpdateBatch
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOMonitor, SLOSpec
from repro.resilience.faults import FaultInjector
from repro.serve.service import (
    LATENCY_BUCKETS,
    IngestReport,
    Overloaded,
    ServeStats,
    TraversalError,
)
from repro.serve.workload import (
    WorkloadReport,
    http_get,
    make_diurnal_workload,
)


def run_async(coro):
    return asyncio.run(coro)


def specs(n=2, scale=8, quota=None):
    classes = list(SLO_CLASSES)
    return [
        TenantSpec(
            tenant_id=f"t{i}", scale=scale, rows=2, cols=2, seed=7 + i,
            slo_class=classes[i % len(classes)], quota=quota,
        )
        for i in range(n)
    ]


# ----------------------------------------------------------------------
# tenant specs and the CLI grammar
# ----------------------------------------------------------------------


class TestTenantSpec:
    def test_class_defaults_resolve(self):
        spec = TenantSpec(tenant_id="a", slo_class="gold")
        assert spec.resolved_weight == 4
        assert spec.resolved_quota == 96
        assert spec.resolved_slos[0].threshold_seconds == 0.25

    def test_overrides_win_over_class(self):
        spec = TenantSpec(tenant_id="a", slo_class="bronze", weight=9, quota=5)
        assert spec.resolved_weight == 9
        assert spec.resolved_quota == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(tenant_id=""),
            dict(tenant_id="a", slo_class="platinum"),
            dict(tenant_id="a", weight=0),
            dict(tenant_id="a", quota=0),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TenantSpec(**kwargs)

    def test_parse_count_form_cycles_classes(self):
        parsed = parse_tenant_spec("4", seed=10)
        assert [s.tenant_id for s in parsed] == ["t0", "t1", "t2", "t3"]
        assert [s.slo_class for s in parsed] == [
            "gold", "silver", "bronze", "gold",
        ]
        # Distinct seeds -> distinct resident graphs.
        assert len({s.seed for s in parsed}) == 4

    def test_parse_name_class_form(self):
        parsed = parse_tenant_spec("search:gold,feed,batch:bronze")
        assert [s.tenant_id for s in parsed] == ["search", "feed", "batch"]
        assert [s.slo_class for s in parsed] == ["gold", "silver", "bronze"]

    @pytest.mark.parametrize(
        "bad", ["", "0", "-1", "a:platinum", "a:gold,a:gold", "a,,b", ":gold"]
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_tenant_spec(bad)


# ----------------------------------------------------------------------
# the router: deterministic deficit round-robin
# ----------------------------------------------------------------------


class TestClusterRouter:
    def _router(self, batch_size=4):
        # (tenant_id, quota, weight): gold-ish 4x weight vs 1x.
        return ClusterRouter(
            [("gold", 100, 4), ("bronze", 100, 1)], batch_size=batch_size
        )

    def test_quota_exhaustion_raises_queue_full(self):
        router = ClusterRouter([("a", 2, 1)], batch_size=4)
        router.push("a", "r1")
        router.push("a", "r2")
        with pytest.raises(QueueFull) as err:
            router.push("a", "r3")
        assert err.value.tenant_id == "a"
        assert err.value.depth == 2
        assert err.value.quota == 2

    def test_batches_never_mix_tenants(self):
        router = self._router(batch_size=4)
        for i in range(6):
            router.push("gold", f"g{i}")
            router.push("bronze", f"b{i}")
        while (picked := router.next_batch()) is not None:
            tenant_id, batch = picked
            prefix = tenant_id[0]
            assert all(r.startswith(prefix) for r in batch)

    def test_weighted_service_over_a_ring_cycle(self):
        # Both tenants backlogged: weight-4 gold must receive 4 full
        # batches for every bronze batch, consecutively.
        router = self._router(batch_size=4)
        for i in range(40):
            router.push("gold", f"g{i}")
            router.push("bronze", f"b{i}")
        order = []
        for _ in range(10):
            tenant_id, batch = router.next_batch()
            assert len(batch) == 4
            order.append(tenant_id)
        assert order == [
            "gold", "gold", "gold", "gold", "bronze",
            "gold", "gold", "gold", "gold", "bronze",
        ]

    def test_idle_tenant_cannot_bank_credit(self):
        router = self._router(batch_size=4)
        # Gold sits idle while bronze is served many times...
        for i in range(32):
            router.push("bronze", f"b{i}")
        for _ in range(8):
            assert router.next_batch()[0] == "bronze"
        # ...then bursts: it still gets exactly its quantum (4 batches)
        # before bronze runs again, not quantum x missed turns.
        for i in range(64):
            router.push("gold", f"G{i}")
            router.push("bronze", f"B{i}")
        order = [router.next_batch()[0] for _ in range(5)]
        assert order == ["gold"] * 4 + ["bronze"]

    def test_emptied_queue_resets_deficit(self):
        router = self._router(batch_size=4)
        router.push("gold", "g0")
        tenant_id, batch = router.next_batch()
        assert (tenant_id, batch) == ("gold", ["g0"])
        assert router.snapshot()["gold"]["deficit"] == 0

    def test_push_front_preserves_order_and_ignores_quota(self):
        router = ClusterRouter([("a", 2, 1)], batch_size=4)
        router.push("a", "tail")
        # Failover re-queue of 3 in-flight requests on a quota-2 queue:
        # admitted work must not be shed by the re-route.
        router.push_front("a", ["x", "y", "z"])
        _, batch = router.next_batch()
        assert batch == ["x", "y", "z", "tail"]

    def test_pop_does_not_charge_deficit(self):
        router = self._router(batch_size=4)
        for i in range(6):
            router.push("gold", f"g{i}")
        _, batch = router.next_batch()
        before = router.snapshot()["gold"]["deficit"]
        extra = [router.pop("gold") for _ in range(3)]
        assert extra == ["g4", "g5", None]
        assert router.snapshot()["gold"]["deficit"] == before

    def test_drain_yields_everything(self):
        router = self._router()
        router.push("gold", "g0")
        router.push("bronze", "b0")
        assert sorted(router.drain()) == [("bronze", "b0"), ("gold", "g0")]
        assert router.pending == 0

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ClusterRouter([], batch_size=4)
        with pytest.raises(ValueError):
            ClusterRouter([("a", 1, 1)], batch_size=0)
        with pytest.raises(ValueError):
            ClusterRouter([("a", 1, 1), ("a", 1, 1)])


# ----------------------------------------------------------------------
# the cluster service
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def registry_pair():
    """Two SCALE-8 tenants (distinct seeds) shared by read-only tests."""
    return build_registry(specs(2))


class TestClusterService:
    def test_submit_serves_each_tenants_own_graph(self, registry_pair):
        async def scenario():
            async with ClusterService(
                registry_pair, replicas=2, batch_window=0.0
            ) as cluster:
                return (
                    await cluster.submit("t0", 3),
                    await cluster.submit("t1", 3),
                )

        r0, r1 = run_async(scenario())
        assert r0.tenant == "t0" and r1.tenant == "t1"
        assert r0.trace_id and r1.trace_id and r0.trace_id != r1.trace_id
        for tid, resp in (("t0", r0), ("t1", r1)):
            want = registry_pair[tid].batched.run(3).parent
            np.testing.assert_array_equal(resp.parent, want)
        # Distinct seeds -> distinct graphs -> distinct parent trees.
        assert not np.array_equal(r0.parent, r1.parent)

    def test_quota_exhaustion_sheds_typed_and_attributed(self):
        registry = build_registry(specs(1, quota=4))
        registry["t0"].cache = None  # every submit must queue

        async def scenario():
            async with ClusterService(
                registry, replicas=1, batch_window=0.05
            ) as cluster:
                tasks = [
                    asyncio.create_task(cluster.submit("t0", r % 8))
                    for r in range(12)
                ]
                results = await asyncio.gather(
                    *tasks, return_exceptions=True
                )
                return results, cluster.stats.shed

        results, shed = run_async(scenario())
        sheds = [r for r in results if isinstance(r, Overloaded)]
        served = [r for r in results if not isinstance(r, Exception)]
        assert len(sheds) == 8 and len(served) == 4
        for exc in sheds:
            assert exc.tenant == "t0"
            assert exc.trace_id.startswith("req-")
            assert "t0" in str(exc) and exc.trace_id in str(exc)
        assert shed == 8

    def test_injected_crash_fails_over_bit_identical(self, registry_pair):
        # A deterministic mid-batch rank crash on whichever replica runs
        # the first batch: it must go down, its batch must re-route to
        # the survivor, and every parent must match a sequential run.
        faults = FaultInjector(
            "crash:rank=1,iter=1", rng=np.random.default_rng(0)
        )
        metrics = MetricsRegistry()
        roots = list(range(8))

        async def scenario():
            async with ClusterService(
                registry_pair, replicas=2, batch_window=0.0,
                faults=faults, metrics=metrics,
            ) as cluster:
                results = await asyncio.gather(
                    *(cluster.submit("t0", r) for r in roots)
                )
                return results, cluster.live_replicas, cluster.stats.replays

        results, live, replays = run_async(scenario())
        assert len(live) == 1 and replays >= 1
        for root, resp in zip(roots, results):
            want = registry_pair["t0"].batched.run(root).parent
            np.testing.assert_array_equal(resp.parent, want)
        assert metrics.counter_total("cluster_failovers") == 1
        assert metrics.counter_total("cluster_batch_replays", tenant="t0") >= 1

    def test_non_crash_exception_fails_typed_and_keeps_replica(
        self, registry_pair, monkeypatch
    ):
        """A traversal bug is not a dead replica: the batch's requests
        fail typed, nobody fails over, the loop keeps serving."""
        from repro.serve.msbfs import MultiSourceBFS

        real_run_batch = MultiSourceBFS.run_batch
        calls = []

        def flaky(self, roots, **kwargs):
            calls.append(len(roots))
            if len(calls) == 1:
                raise ValueError("boom")
            return real_run_batch(self, roots, **kwargs)

        monkeypatch.setattr(MultiSourceBFS, "run_batch", flaky)
        metrics = MetricsRegistry()
        tenant = registry_pair["t0"]
        a, b = [
            r for r in range(tenant.num_vertices)
            if tenant.cache.get(tenant.fingerprint, r) is None
        ][:2]  # the registry is shared: dodge earlier tests' cache hits

        async def scenario():
            async with ClusterService(
                registry_pair, replicas=1, batch_window=0.0, metrics=metrics
            ) as cluster:
                doomed = await asyncio.gather(
                    cluster.submit("t0", a), return_exceptions=True
                )
                ok = await asyncio.wait_for(cluster.submit("t0", b), 30)
                return doomed, ok, len(cluster.live_replicas)

        (doomed,), ok, live = run_async(scenario())
        assert isinstance(doomed, TraversalError) and doomed.tenant == "t0"
        assert "ValueError: boom" in str(doomed)
        want = tenant.batched.run(b).parent
        np.testing.assert_array_equal(ok.parent, want)
        assert live == 1
        assert metrics.counter_total("cluster_failovers") == 0

    def test_kill_replica_mid_stream_is_transparent(self, registry_pair):
        async def scenario():
            async with ClusterService(
                registry_pair, replicas=2, batch_window=0.001
            ) as cluster:
                tasks = [
                    asyncio.create_task(cluster.submit("t1", 100 + r))
                    for r in range(8)
                ]
                await asyncio.sleep(0)
                cluster.kill_replica("r0")
                results = await asyncio.gather(*tasks)
                return results, cluster.live_replicas

        results, live = run_async(scenario())
        assert live == ["r1"]
        for r, resp in enumerate(results):
            want = registry_pair["t1"].batched.run(100 + r).parent
            np.testing.assert_array_equal(resp.parent, want)

    def test_no_live_replica_raises_typed_replica_down(self):
        registry = build_registry(specs(1))
        registry["t0"].cache = None

        async def scenario():
            async with ClusterService(
                registry, replicas=1, batch_window=0.0
            ) as cluster:
                cluster.kill_replica("r0")
                while cluster.live_replicas:
                    await asyncio.sleep(0.005)
                with pytest.raises(ReplicaDown) as err:
                    await cluster.submit("t0", 5)
                return err.value

        exc = run_async(scenario())
        assert exc.tenant == "t0"
        assert exc.replicas == 1
        assert "t0" in str(exc)

    def test_kill_unknown_replica_is_a_key_error(self, registry_pair):
        async def scenario():
            async with ClusterService(registry_pair, replicas=1) as cluster:
                with pytest.raises(KeyError):
                    cluster.kill_replica("r99")

        run_async(scenario())

    def test_submit_validates_tenant_and_root(self, registry_pair):
        async def scenario():
            async with ClusterService(registry_pair, replicas=1) as cluster:
                with pytest.raises(KeyError):
                    await cluster.submit("nope", 0)
                with pytest.raises(ValueError):
                    await cluster.submit("t0", 1 << 20)

        run_async(scenario())

    def test_constructor_validation(self, registry_pair):
        with pytest.raises(ValueError):
            ClusterService(registry_pair, replicas=0)
        with pytest.raises(ValueError):
            ClusterService(registry_pair, batch_size=0)
        with pytest.raises(ValueError):
            ClusterService(registry_pair, batch_window=-1.0)


# ----------------------------------------------------------------------
# weighted fairness under a hot tenant
# ----------------------------------------------------------------------


class TestFairness:
    @staticmethod
    def _contended_workload(registry):
        # The hot tenant (t0, gold) offers ~10x the cold one's (t1,
        # silver) load.
        workload = make_diurnal_workload(
            registry.degrees_map(), 200, seed=11, duration_seconds=0.3,
            popularity={"t0": 10.0, "t1": 1.0},
            hot_fraction=0.5, hot_set_size=8,
        )
        counts = workload.per_tenant_counts()
        assert counts["t0"] > 5 * counts["t1"]
        return workload

    def test_cold_tenant_waits_behind_at_most_one_hot_quantum(self):
        # The fairness property, on the deterministic router: the
        # workload's arrival order is replayed with no event loop and no
        # clock, one batch leaving per two batches' worth of arrivals so
        # the hot tenant backlogs.
        registry = build_registry(specs(2))
        workload = self._contended_workload(registry)
        weight = {t.tenant_id: t.spec.resolved_weight for t in registry}
        batch_size = 4
        router = ClusterRouter(
            [(tid, workload.num_queries, w) for tid, w in weight.items()],
            batch_size=batch_size,
        )
        hot_batches = 0
        cold_waits = []

        def dispatch():
            nonlocal hot_batches
            tenant_id, batch = router.next_batch()
            if tenant_id == "t0":
                hot_batches += 1
            else:
                cold_waits.extend(hot_batches - seen for seen in batch)

        for i, query in enumerate(workload.queries):
            # A cold request remembers how many hot batches had left
            # when it arrived.
            assert router.depth("t1") < weight["t1"] * batch_size
            router.push(query.tenant, hot_batches)
            if (i + 1) % (2 * batch_size) == 0:
                dispatch()
        assert router.depth("t0") > weight["t0"] * batch_size  # backlogged
        # Its turn always fits the cold queue, so a cold request leaves
        # after at most the hot quantum already in progress — however
        # deep the hot backlog is.
        assert len(cold_waits) + router.depth("t1") == (
            workload.per_tenant_counts()["t1"]
        )
        assert cold_waits and max(cold_waits) <= weight["t0"]

        # Both backlogged from the start: every full ring cycle gives
        # each tenant its weight share of the batches, until one drains.
        router = ClusterRouter(
            [(tid, workload.num_queries, w) for tid, w in weight.items()],
            batch_size=batch_size,
        )
        for query in workload.queries:
            router.push(query.tenant, query.root)
        cycle = ["t0"] * weight["t0"] + ["t1"] * weight["t1"]
        cycles = 0
        while all(router.depth(t) >= w * batch_size for t, w in weight.items()):
            served = [router.next_batch() for _ in cycle]
            assert [tid for tid, _ in served] == cycle
            assert all(len(batch) == batch_size for _, batch in served)
            cycles += 1
        assert cycles == workload.per_tenant_counts()["t1"] // (
            weight["t1"] * batch_size
        )

    def test_hot_tenant_cannot_push_cold_p99_past_solo(self):
        # End to end: the cold tenant's exact sub-stream runs twice, once
        # alone and once under the hot tenant's load; every query must be
        # accounted for.  The two p99s are wall-clock on a shared host, so
        # they are printed (``-s``), not asserted — the bound itself is
        # the router test above.
        registry = build_registry(specs(2))
        workload = self._contended_workload(registry)

        from repro.cluster import run_cluster_session

        solo_report, _, _ = run_cluster_session(
            build_registry(specs(2)), workload.for_tenant("t1"),
            replicas=2, max_shed_retries=10_000,
        )
        fair_report, _, _ = run_cluster_session(
            registry, workload, replicas=2, max_shed_retries=10_000,
        )
        assert fair_report.accounted == workload.num_queries
        solo_p99 = solo_report.latency_percentile(99)
        cold_p99 = fair_report.per_tenant()["t1"].latency_percentile(99)
        print(f"cold tenant p99: solo {solo_p99 * 1e3:.1f} ms, "
              f"contended {cold_p99 * 1e3:.1f} ms")


# ----------------------------------------------------------------------
# per-tenant SLO monitors
# ----------------------------------------------------------------------


class TestDiurnalWorkload:
    def test_slo_bench_stream_matches_committed_checksum(self):
        # The SLO bench's three SCALE-9 tenants and its seeded diurnal
        # stream must hash to the checksum its committed artifact holds:
        # arrivals, tenant picks and roots are all bit-reproducible.
        bench_dir = Path(__file__).resolve().parent.parent / "benchmarks"
        spec = importlib.util.spec_from_file_location(
            "bench_serve_slo", bench_dir / "bench_serve_slo.py"
        )
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        committed = json.loads(bench.RESULTS.read_text())["workload"]
        registry = build_registry(bench._specs())
        workload = bench._workload(registry)
        assert workload.num_queries == committed["num_queries"]
        assert bench._checksum(workload) == committed["checksum"]
        heavy = bench._workload(registry, hot_friendly=False)
        assert bench._checksum(heavy) == committed["heavy_checksum"]


class TestPerTenantSLO:
    def test_match_filter_isolates_tenants(self):
        # Two monitors over the SAME latency family, narrowed by tenant
        # label: only the tenant with slow requests may burn.
        metrics = MetricsRegistry()
        clock = lambda: 0.0  # noqa: E731
        spec = (SLOSpec(stage="total", threshold_seconds=0.1, objective=0.9),)
        fast = metrics.histogram(
            "cluster_latency_seconds", buckets=LATENCY_BUCKETS,
            tenant="fast", stage="total",
        )
        slow = metrics.histogram(
            "cluster_latency_seconds", buckets=LATENCY_BUCKETS,
            tenant="slow", stage="total",
        )
        monitors = {
            tid: SLOMonitor(
                metrics, spec, metric="cluster_latency_seconds",
                match={"tenant": tid}, clock=clock,
            )
            for tid in ("fast", "slow")
        }
        # Burn is a windowed delta: take the zero baseline first, then
        # feed 50 requests per tenant and re-evaluate.
        for monitor in monitors.values():
            monitor.observe()
        for _ in range(50):
            fast.observe(0.001)
            slow.observe(5.0)
        assert monitors["fast"].evaluate()["status"] == "ok"
        assert monitors["slow"].evaluate()["status"] == "page"

    def test_cluster_slo_status_keyed_by_tenant(self, registry_pair):
        async def scenario():
            async with ClusterService(
                registry_pair, replicas=1, metrics=MetricsRegistry()
            ) as cluster:
                await cluster.submit("t0", 1)
                return cluster.slo_status()

        status = run_async(scenario())
        assert set(status) == {"t0", "t1"}
        for doc in status.values():
            assert doc["status"] in ("ok", "warn", "page")
            assert doc["slos"]

    def test_session_baseline_lets_each_tenant_observe(self):
        # Burn is a windowed delta and nothing polls /slo mid-run without
        # the telemetry plane: only the session's zero baseline lets the
        # final evaluation see the requests it served.
        from repro.cluster import run_cluster_session

        registry = build_registry(specs(2))
        workload = make_diurnal_workload(
            registry.degrees_map(), 40, seed=3, duration_seconds=0.1
        )
        assert set(workload.per_tenant_counts()) == {"t0", "t1"}
        _, cluster, _ = run_cluster_session(
            registry, workload, replicas=1, max_shed_retries=10_000,
            metrics=MetricsRegistry(),
        )
        for tid, doc in cluster.slo_status().items():
            assert all(row["observed"] > 0 for row in doc["slos"]), tid


# ----------------------------------------------------------------------
# streaming-ingest isolation
# ----------------------------------------------------------------------


class TestIngestIsolation:
    def test_ingest_moves_only_the_target_tenant(self):
        registry = build_registry(specs(2, scale=7), dynamic=True)
        before = {t.tenant_id: t.fingerprint for t in registry}
        batch = UpdateBatch(
            src=np.array([1, 2, 3], dtype=np.int64),
            dst=np.array([100, 101, 102], dtype=np.int64),
            op=np.ones(3, dtype=np.int8),
        )

        async def scenario():
            async with ClusterService(registry, replicas=1) as cluster:
                report = await cluster.ingest_updates("t0", [batch])
                resp = await cluster.submit("t0", 1)
                return report, resp

        report, resp = run_async(scenario())
        assert isinstance(report, IngestReport) and report.tenant == "t0"
        assert report.num_updates == 3
        assert report.old_fingerprint == before["t0"]
        assert report.new_fingerprint == registry["t0"].fingerprint
        assert registry["t0"].fingerprint != before["t0"]
        # The other tenant's generation never moved.
        assert registry["t1"].fingerprint == before["t1"]
        # Post-ingest serving matches a single-root run on the repaired
        # graph (the tenant's one engine is the swapped generation).
        want = registry["t0"].batched.run(1).parent
        np.testing.assert_array_equal(resp.parent, want)

    def test_ingest_requires_dynamic_tenant(self, registry_pair):
        async def scenario():
            async with ClusterService(registry_pair, replicas=1) as cluster:
                with pytest.raises(RuntimeError, match="dynamic"):
                    await cluster.ingest_updates("t0", [])

        run_async(scenario())


# ----------------------------------------------------------------------
# multi-tenant telemetry views
# ----------------------------------------------------------------------


class TestClusterTelemetry:
    def test_tenants_and_per_tenant_slo_routes(self, registry_pair):
        import json

        from repro.serve.telemetry import TelemetryServer

        metrics = MetricsRegistry()

        async def scenario():
            async with ClusterService(
                registry_pair, replicas=2, metrics=metrics
            ) as cluster:
                await cluster.submit("t0", 2)
                server = TelemetryServer(
                    cluster, metrics, port=0, cluster=cluster
                )
                async with server:
                    gets = {}
                    for path in (
                        "/tenants", "/slo", "/slo/t0", "/slo/nope",
                    ):
                        gets[path] = await http_get(
                            "127.0.0.1", server.port, path
                        )
                    return gets

        gets = run_async(scenario())
        status, _, body = gets["/tenants"]
        assert status == 200
        doc = json.loads(body)
        assert set(doc["tenants"]) == {"t0", "t1"}
        assert doc["tenants"]["t0"]["requests"] >= 1
        assert set(doc["replicas"]) == {"r0", "r1"}
        status, _, body = gets["/slo"]
        assert status == 200
        assert set(json.loads(body)) == {"t0", "t1"}
        status, _, body = gets["/slo/t0"]
        assert status == 200
        assert json.loads(body)["status"] in ("ok", "warn", "page")
        assert gets["/slo/nope"][0] == 404

    def test_tenant_routes_404_on_single_graph_service(self, registry_pair):
        from repro.serve.telemetry import TelemetryServer

        metrics = MetricsRegistry()

        async def scenario():
            # No cluster= : the single-graph telemetry surface.
            async with ClusterService(
                registry_pair, replicas=1, metrics=metrics
            ) as cluster:
                server = TelemetryServer(cluster, metrics, port=0)
                async with server:
                    return (
                        await http_get("127.0.0.1", server.port, "/tenants"),
                        await http_get("127.0.0.1", server.port, "/slo/t0"),
                    )

        tenants, slo = run_async(scenario())
        assert tenants[0] == 404 and slo[0] == 404


# ----------------------------------------------------------------------
# empty-reservoir percentiles (satellite: nan, not crash or fake zero)
# ----------------------------------------------------------------------


class TestEmptyPercentiles:
    def test_serve_stats_empty_reservoir_is_nan(self):
        stats = ServeStats()
        assert math.isnan(stats.latency_percentile(99))
        assert math.isnan(stats.p50_seconds)
        assert math.isnan(stats.p99_seconds)

    def test_workload_report_empty_is_nan(self):
        report = WorkloadReport()
        assert math.isnan(report.latency_percentile(99))

    def test_workload_report_all_shed_is_nan(self):
        from repro.serve.workload import QueryOutcome

        report = WorkloadReport(
            outcomes=[QueryOutcome(key=(1,), shed=True, error="shed")]
        )
        assert math.isnan(report.latency_percentile(50))


# ----------------------------------------------------------------------
# typed-error attribution (satellite: tenant + trace on the exception)
# ----------------------------------------------------------------------


class TestErrorAttribution:
    def test_overloaded_carries_tenant_and_trace(self):
        exc = Overloaded(9, 8, tenant="acme", trace_id="req-000042")
        assert exc.tenant == "acme"
        assert exc.trace_id == "req-000042"
        assert "acme" in str(exc) and "req-000042" in str(exc)
        assert exc.queue_depth == 9 and exc.limit == 8

    def test_traversal_error_carries_tenant_and_trace(self):
        exc = TraversalError("boom", tenant="acme", trace_id="req-000007")
        assert exc.tenant == "acme"
        assert exc.trace_id == "req-000007"
        assert "acme" in str(exc) and "req-000007" in str(exc)

    def test_single_graph_defaults_stay_empty(self):
        exc = Overloaded(3, 2)
        assert exc.tenant == "" and exc.trace_id == ""
        assert "[" not in str(exc)

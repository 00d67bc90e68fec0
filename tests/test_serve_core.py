"""The serving core both service planes share (``repro.serve.core``).

``TraversalService`` and a one-tenant, one-replica ``ClusterService``
differ in tenancy and crash policy only: one resident-graph type, one
batch former and one batch executor, so the same root stream over the
same partition must come out the same: bit-identical parents, the same
batches and cache/lane bookkeeping, the same timeline-vs-histogram
reconciliation, the same ingest report.
"""

import asyncio
import functools
import time

import numpy as np
import pytest

from repro.cluster import ClusterService, Tenant, TenantRegistry, TenantSpec
from repro.core import BFSConfig, DistributedBFS
from repro.dynamic.repair import IncrementalGraph
from repro.dynamic.updates import UpdateBatch
from repro.graph500.rmat import generate_edges
from repro.machine.network import MachineSpec
from repro.obs import Tracer
from repro.obs.metrics import MetricsRegistry
from repro.runtime.mesh import ProcessMesh
from repro.serve import ResultCache, TraversalService
from repro.serve.core import IngestReport, sibling_engine
from repro.serve.msbfs import MultiSourceBFS

SCALE = 7
E_THR, H_THR = 32, 8
CONFIG = BFSConfig(e_threshold=E_THR, h_threshold=H_THR)


def build_graph(**engine_kwargs):
    """A fresh ``(IncrementalGraph, MultiSourceBFS)`` over one seeded
    edge set — every call yields the same partition."""
    src, dst = generate_edges(SCALE, seed=3)
    machine = MachineSpec(num_nodes=4, nodes_per_supernode=2)
    inc = IncrementalGraph(
        src, dst, 1 << SCALE, ProcessMesh(2, 2, machine=machine),
        e_threshold=E_THR, h_threshold=H_THR, machine=machine,
    )
    engine = MultiSourceBFS(
        inc.graph(), machine=machine, config=CONFIG, **engine_kwargs
    )
    return inc, engine


def one_tenant(inc, engine) -> TenantRegistry:
    return TenantRegistry([
        Tenant(
            spec=TenantSpec("t0", scale=SCALE),
            batched=engine, cache=ResultCache(), dynamic=inc,
        )
    ])


async def drive(submit, request_timeline, ingest, roots, batch):
    """Duplicates in one concurrent wave, then a warm-cache repeat, then
    one ingest."""
    wave = await asyncio.gather(*(submit(r) for r in roots))
    repeat = await submit(roots[0])
    responses = [*wave, repeat]
    timelines = [request_timeline(r.trace_id) for r in responses]
    return responses, timelines, await ingest([batch])


def total_histogram(metrics, family):
    return next(
        inst for labels, inst in metrics.samples(family)
        if labels["stage"] == "total"
    )


class TestCrossServiceParity:
    @pytest.fixture(scope="class")
    def runs(self):
        inc, engine = build_graph()
        part = inc.graph()
        reference = DistributedBFS(part, machine=engine.machine, config=CONFIG)
        busy = np.flatnonzero(part.degrees > 0)
        a, b, c = (int(r) for r in busy[:3])
        roots = [a, b, b, c]
        batch = UpdateBatch(
            src=np.array([a], dtype=np.int64),
            dst=np.array([int(busy[-1])], dtype=np.int64),
            op=np.ones(1, dtype=np.int8),
        )
        want = {r: reference.run(r).parent for r in set(roots)}

        async def serve():
            inc, engine = build_graph()
            metrics = MetricsRegistry()
            svc = TraversalService(
                engine, cache=ResultCache(), dynamic=inc,
                batch_window=0.01, metrics=metrics,
            )
            async with svc:
                out = await drive(
                    svc.submit, svc.request_timeline, svc.ingest_updates,
                    roots, batch,
                )
            return (*out, total_histogram(metrics, "serve_latency_seconds"))

        async def cluster():
            metrics = MetricsRegistry()
            svc = ClusterService(
                one_tenant(*build_graph()), replicas=1,
                batch_window=0.01, metrics=metrics,
            )
            async with svc:
                out = await drive(
                    lambda r: svc.submit("t0", r), svc.request_timeline,
                    lambda batches: svc.ingest_updates("t0", batches),
                    roots, batch,
                )
            return (*out, total_histogram(metrics, "cluster_latency_seconds"))

        return want, asyncio.run(serve()), asyncio.run(cluster())

    def test_parents_bit_identical_to_sequential(self, runs):
        want, serve, cluster = runs
        for responses, *_ in (serve, cluster):
            for response in responses:
                assert np.array_equal(response.parent, want[response.root])

    def test_cached_and_lane_bookkeeping_match(self, runs):
        _, serve, cluster = runs
        book = [
            [(r.root, r.cached, r.batch_lanes, r.trace_id) for r in run[0]]
            for run in (serve, cluster)
        ]
        assert book[0] == book[1]
        # Four requests over three distinct roots share three lanes;
        # the repeat is a cache hit.
        assert [(cached, lanes) for _, cached, lanes, _ in book[0]] == (
            [(False, 3)] * 4 + [(True, 0)]
        )
        assert [r.tenant for r in serve[0]] == [""] * 5
        assert [r.tenant for r in cluster[0]] == ["t0"] * 5

    def test_timeline_totals_are_the_observed_floats(self, runs):
        _, serve, cluster = runs
        for responses, timelines, _, histogram in (serve, cluster):
            totals = [t.total_seconds for t in timelines]
            assert totals == [r.total_seconds for r in responses]
            assert [t.status for t in timelines] == (
                ["completed"] * 4 + ["cached"]
            )
            assert histogram.count == len(totals)
            assert histogram.min == min(totals)
            assert histogram.max == max(totals)
            assert histogram.sum == pytest.approx(sum(totals), rel=1e-12)

    def test_ingest_reports_match(self, runs):
        _, serve, cluster = runs
        ours, theirs = serve[2], cluster[2]
        assert type(ours) is type(theirs) is IngestReport
        assert (ours.tenant, theirs.tenant) == ("", "t0")
        for name in (
            "num_batches", "num_updates", "cache_evicted", "cache_rekeyed",
            "old_fingerprint", "new_fingerprint",
        ):
            assert getattr(ours, name) == getattr(theirs, name), name
        assert ours.num_updates == 1
        assert ours.cache_evicted + ours.cache_rekeyed == 3
        assert ours.new_fingerprint != ours.old_fingerprint


def make_plane(plane, **kwargs):
    """One fresh graph behind ``plane`` with no result cache, as
    ``(service, submit(root), busy roots)``."""
    _, engine = build_graph()
    busy = [int(r) for r in np.flatnonzero(engine.part.degrees > 0)]
    if plane == "serve":
        svc = TraversalService(engine, cache=None, **kwargs)
        return svc, svc.submit, busy
    registry = TenantRegistry(
        [Tenant(spec=TenantSpec("t0", scale=SCALE), batched=engine)]
    )
    svc = ClusterService(registry, replicas=1, **kwargs)
    return svc, functools.partial(svc.submit, "t0"), busy


@pytest.mark.parametrize("plane", ["serve", "cluster"])
class TestOneBatchFormer:
    """Both planes form a batch by one rule: fill by distinct roots,
    leave when full or when the window ends, drain at close."""

    def test_a_full_batch_leaves_before_its_window(self, plane):
        async def main():
            svc, submit, (a, b, *_) = make_plane(
                plane, batch_size=2, batch_window=0.5
            )
            async with svc:
                start = time.monotonic()
                first = asyncio.ensure_future(submit(a))
                await asyncio.sleep(0.05)
                second = await submit(b)
                first = await first
                return first, second, time.monotonic() - start

        first, second, elapsed = asyncio.run(main())
        assert elapsed < 0.25
        assert first.batch_lanes == second.batch_lanes == 2

    def test_duplicate_roots_fill_one_batch(self, plane):
        async def main():
            svc, submit, (a, b, *_) = make_plane(
                plane, batch_size=2, batch_window=0.3
            )
            async with svc:
                out = await asyncio.gather(*(submit(r) for r in (a, a, b)))
            return svc.stats.batches, out

        batches, out = asyncio.run(main())
        assert batches == 1
        assert [r.batch_lanes for r in out] == [2, 2, 2]

    def test_closing_drains_without_waiting_out_the_window(self, plane):
        async def main():
            svc, submit, (a, *_) = make_plane(
                plane, batch_size=2, batch_window=30.0
            )
            await svc.start()
            pending = asyncio.ensure_future(submit(a))
            await asyncio.sleep(0.01)
            start = time.monotonic()
            await svc.stop()
            return await pending, time.monotonic() - start

        response, elapsed = asyncio.run(main())
        assert elapsed < 5.0
        assert response.batch_lanes == 1


class TestSiblingEngines:
    def test_forwards_every_engine_setting(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        _, engine = build_graph(tracer=tracer, metrics=metrics)
        sibling = sibling_engine(engine, engine.part)
        assert isinstance(sibling, DistributedBFS)
        assert sibling.part is engine.part
        assert sibling.machine is engine.machine
        assert sibling.config == engine.config
        assert sibling.tracer is tracer and sibling.metrics is metrics
        assert sibling.scheduler.backend is engine.scheduler.backend

    def test_served_program_is_traced_under_its_request(self):
        tracer = Tracer()
        _, engine = build_graph(tracer=tracer)

        async def main():
            svc = TraversalService(engine)
            async with svc:
                return svc, await svc.submit(program="cc")

        svc, response = asyncio.run(main())
        assert svc.graph.batched.config == engine.config
        spans = [sp for sp in tracer.spans if sp.name == "program"]
        assert [sp.attrs["trace_id"] for sp in spans] == [response.trace_id]

    def test_tenant_engines_stay_instrumented_across_ingest(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        inc, engine = build_graph(tracer=tracer, metrics=metrics)
        registry = one_tenant(inc, engine)
        batch = UpdateBatch(
            src=np.array([1], dtype=np.int64),
            dst=np.array([100], dtype=np.int64),
            op=np.ones(1, dtype=np.int8),
        )

        async def main():
            async with ClusterService(registry, replicas=1) as svc:
                await svc.ingest_updates("t0", [batch])

        asyncio.run(main())
        tenant = registry["t0"]
        assert tenant.batched is not engine
        rebuilt = tenant.batched
        assert rebuilt.tracer is tracer and rebuilt.metrics is metrics
        assert rebuilt.config == engine.config


class TestRequestIdsReachTheEngineSpans:
    """Neither service holds a tracer: a request's trace id lands on the
    root span of the engine that serves it, when that engine is traced."""

    def test_cluster_tenant_batch_span_carries_the_request_ids(self):
        tracer = Tracer()
        registry = one_tenant(*build_graph(tracer=tracer))
        a, b = (int(r) for r in np.flatnonzero(registry["t0"].degrees > 0)[:2])

        async def main():
            async with ClusterService(
                registry, replicas=1, batch_window=0.05
            ) as svc:
                return await asyncio.gather(
                    svc.submit("t0", a), svc.submit("t0", b)
                )

        responses = asyncio.run(main())
        spans = [sp for sp in tracer.spans if sp.name == "msbfs"]
        assert [sp.attrs.get("trace_id") for sp in spans] == [
            ",".join(sorted(r.trace_id for r in responses))
        ]

    def test_traversal_service_needs_no_tracer_of_its_own(self):
        tracer = Tracer()
        _, engine = build_graph(tracer=tracer)
        root = int(np.flatnonzero(engine.part.degrees > 0)[0])

        async def main():
            async with TraversalService(engine, batch_window=0.0) as svc:
                return await svc.submit(root), await svc.submit(program="cc")

        bfs, program = asyncio.run(main())
        batches = [sp for sp in tracer.spans if sp.name == "msbfs"]
        assert [sp.attrs.get("trace_id") for sp in batches] == [bfs.trace_id]
        served = [sp for sp in tracer.spans if sp.name == "program"]
        assert [sp.attrs.get("trace_id") for sp in served] == [program.trace_id]

    def test_untraced_engine_costs_the_batch_path_nothing(self):
        from repro.serve.core import ServingCore

        _, engine = build_graph()

        def requests():
            raise AssertionError("request ids read for an untraced engine")
            yield

        assert ServingCore.trace_id(engine, requests()) is None

"""Request-scoped tracing and the live telemetry plane in serve/.

Trace-id propagation and retrievable per-request timelines, the
reconciliation between a timeline's ``total_seconds`` and the
``serve_latency_seconds{stage="total"}`` histogram, the bounded latency
reservoir behind percentile stats, the HTTP endpoint surface
(``/metrics`` byte-equal to the offline exporter), and the end-to-end
``run_serving_session`` telemetry mode.
"""

import asyncio
import json
import threading

import numpy as np
import pytest

from repro.core import BFSConfig, DistributedBFS, partition_graph
from repro.graph500.rmat import generate_edges
from repro.machine.network import MachineSpec
from repro.obs.metrics import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    to_prometheus_text,
)
from repro.obs.slo import SLOSpec
from repro.obs.tracer import Tracer
from repro.runtime.mesh import ProcessMesh
from repro.serve import TelemetryServer, TraversalService
from repro.serve.msbfs import MultiSourceBFS
from repro.serve import workload
from repro.serve.core import RESERVOIR_CAPACITY
from repro.serve.service import TIMELINE_CAPACITY, LatencyReservoir
from repro.serve.workload import (
    http_get,
    make_workload_roots,
    run_serving_session,
)


def build_engines(scale=9, rows=2, cols=2, e_thr=128, h_thr=16, seed=7,
                  tracer=None, metrics=None):
    src, dst = generate_edges(scale, seed=seed)
    n = 1 << scale
    machine = MachineSpec(num_nodes=rows * cols, nodes_per_supernode=cols)
    mesh = ProcessMesh(rows, cols, machine=machine)
    part = partition_graph(
        src, dst, n, mesh, e_threshold=e_thr, h_threshold=h_thr
    )
    config = BFSConfig(e_threshold=e_thr, h_threshold=h_thr)
    sequential = DistributedBFS(part, machine=machine, config=config)
    extra = {}
    if tracer is not None:
        extra["tracer"] = tracer
    if metrics is not None:
        extra["metrics"] = metrics
    batched = MultiSourceBFS(part, machine=machine, config=config, **extra)
    return sequential, batched


@pytest.fixture(scope="module")
def engines():
    return build_engines()


def run_async(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# the latency reservoir (satellite: bounded ServeStats.total_latencies)
# ----------------------------------------------------------------------


class TestLatencyReservoir:
    def test_bounded_under_sustained_traffic(self):
        res = LatencyReservoir()
        for i in range(10_000):
            res.append(float(i))
        assert len(res) == RESERVOIR_CAPACITY
        assert np.asarray(res).shape == (RESERVOIR_CAPACITY,)

    def test_exact_below_capacity(self):
        res = LatencyReservoir()
        for v in (3.0, 1.0, 2.0):
            res.append(v)
        assert sorted(res) == [1.0, 2.0, 3.0]

    def test_percentiles_drift_bounded_at_100k(self):
        # 100k appends through the reservoir keep p50/p99 close to the
        # exact stream percentiles.
        rng = np.random.default_rng(42)
        stream = rng.lognormal(mean=-4.0, sigma=1.0, size=100_000)
        res = LatencyReservoir()
        for v in stream:
            res.append(float(v))
        assert len(res) == RESERVOIR_CAPACITY
        sample = np.asarray(res)
        for q in (50.0, 99.0):
            exact = float(np.percentile(stream, q))
            estimate = float(np.percentile(sample, q))
            assert estimate == pytest.approx(exact, rel=0.25), q

    def test_deterministic_given_seed(self):
        def fill():
            res = LatencyReservoir()
            for i in range(2 * RESERVOIR_CAPACITY):
                res.append(float(i))
            return list(res)

        assert fill() == fill()


# ----------------------------------------------------------------------
# trace ids and per-request timelines
# ----------------------------------------------------------------------


class TestRequestTracing:
    def test_trace_ids_and_timeline_reconciliation(self, engines):
        _, batched = engines
        metrics = MetricsRegistry()
        roots = [int(r) for r in
                 np.flatnonzero(batched.part.degrees > 0)[:6]]

        async def main():
            async with TraversalService(
                batched, batch_window=0.0, metrics=metrics
            ) as svc:
                responses = [await svc.submit(r) for r in roots]
                timelines = [
                    svc.request_timeline(resp.trace_id)
                    for resp in responses
                ]
                return responses, timelines

        responses, timelines = run_async(main())
        ids = [r.trace_id for r in responses]
        assert all(ids), "every response carries a trace id"
        assert len(set(ids)) == len(ids), "trace ids are unique"
        assert ids[0] == "req-000001"

        hist = None
        for labels, inst in metrics.samples("serve_latency_seconds"):
            if labels.get("stage") == "total":
                hist = inst
        assert hist is not None and hist.count == len(roots)
        # ISSUE acceptance: the retrievable timeline totals are the very
        # floats observed into the stage="total" histogram.
        assert sum(t.total_seconds for t in timelines) == pytest.approx(
            hist.sum, rel=1e-12
        )
        for resp, timeline in zip(responses, timelines):
            assert timeline.trace_id == resp.trace_id
            assert timeline.status == "completed"
            assert timeline.total_seconds == pytest.approx(
                resp.total_seconds
            )
            assert timeline.total_seconds >= (
                timeline.traversal_seconds
            ) >= 0.0

    def test_cache_hit_timeline(self, engines):
        _, batched = engines
        root = int(np.flatnonzero(batched.part.degrees > 0)[0])

        async def main():
            async with TraversalService(batched, batch_window=0.0) as svc:
                first = await svc.submit(root)
                second = await svc.submit(root)
                return first, second, svc.request_timeline(second.trace_id)

        first, second, timeline = run_async(main())
        assert second.cached and second.trace_id != first.trace_id
        assert timeline.status == "cached"
        assert timeline.traversal_seconds == 0.0

    def test_timeline_ring_evicts_oldest(self, engines):
        _, batched = engines
        distinct = [int(r) for r in
                    np.flatnonzero(batched.part.degrees > 0)[:6]]
        # Repeats of the last root are cache hits, timelined like the rest.
        roots = distinct + distinct[-1:] * (TIMELINE_CAPACITY - 4)

        async def main():
            async with TraversalService(batched, batch_window=0.0) as svc:
                responses = [await svc.submit(r) for r in roots]
                kept = [
                    svc.request_timeline(r.trace_id) is not None
                    for r in responses
                ]
                return kept

        kept = run_async(main())
        assert kept.count(True) == TIMELINE_CAPACITY
        assert kept[:2] == [False, False]
        assert kept[-2:] == [True, True]

    def test_unknown_trace_id(self, engines):
        _, batched = engines

        async def main():
            async with TraversalService(batched) as svc:
                return svc.request_timeline("req-999999")

        assert run_async(main()) is None

    def test_trace_id_lands_in_scheduler_spans(self, engines):
        tracer = Tracer()
        _, batched = build_engines(tracer=tracer)
        root = int(np.flatnonzero(batched.part.degrees > 0)[0])

        async def main():
            async with TraversalService(batched, batch_window=0.0) as svc:
                return await svc.submit(root)

        response = run_async(main())
        spans = [sp for sp in tracer.spans if sp.name == "msbfs"]
        assert spans
        assert response.trace_id in spans[-1].attrs.get("trace_id", "")


# ----------------------------------------------------------------------
# telemetry off is bit-identical (NULL fast paths)
# ----------------------------------------------------------------------


class TestDisabledTelemetryIdentity:
    def test_parents_and_sim_costs_identical(self, engines):
        sequential, _ = engines
        roots = [int(r) for r in
                 np.flatnonzero(sequential.part.degrees > 0)[:4]]

        def session(**extra):
            _, batched = build_engines(**extra)

            async def main():
                async with TraversalService(
                    batched, batch_window=0.0,
                    **({"metrics": extra["metrics"]}
                       if "metrics" in extra else {}),
                ) as svc:
                    return [await svc.submit(r) for r in roots]

            return run_async(main())

        bare = session()
        metered = session(tracer=Tracer(), metrics=MetricsRegistry())
        for a, b in zip(bare, metered):
            assert np.array_equal(a.parent, b.parent)
            assert a.batch_lanes == b.batch_lanes


# ----------------------------------------------------------------------
# the HTTP endpoint
# ----------------------------------------------------------------------


class TestTelemetryServer:
    def _serve(self, engines, handler, **service_kwargs):
        _, batched = engines

        async def main():
            metrics = service_kwargs.pop("metrics", MetricsRegistry())
            async with TraversalService(
                batched, batch_window=0.0, metrics=metrics,
                **service_kwargs,
            ) as svc:
                async with TelemetryServer(svc, metrics) as server:
                    return await handler(svc, server, metrics)

        return run_async(main())

    def test_metrics_byte_equal_to_offline_export(self, engines):
        async def handler(svc, server, metrics):
            root = int(np.flatnonzero(svc.engine.part.degrees > 0)[0])
            await svc.submit(root)
            status, headers, body = await http_get(
                "127.0.0.1", server.port, "/metrics"
            )
            return status, headers, body, to_prometheus_text(metrics)

        status, headers, body, offline = self._serve(engines, handler)
        assert status == 200
        assert headers["content-type"] == PROMETHEUS_CONTENT_TYPE
        # ISSUE acceptance: scraped body == offline exporter, byte for
        # byte (no mutations between submit and scrape).
        assert body == offline.encode("utf-8")
        assert b"serve_latency_seconds_bucket" in body

    def test_healthz_and_slo_and_timeline(self, engines):
        async def handler(svc, server, metrics):
            status, _, body = await http_get(
                "127.0.0.1", server.port, "/healthz"
            )
            health = json.loads(body)
            s2, _, b2 = await http_get("127.0.0.1", server.port, "/slo")
            s3, _, b3 = await http_get(
                "127.0.0.1", server.port, "/timeline"
            )
            return status, health, s2, json.loads(b2), s3, json.loads(b3)

        status, health, s2, slo, s3, timeline = self._serve(engines, handler)
        assert status == 200 and health["status"] == "ok"
        assert health["pending"] == 0
        # No monitor/sampler attached in this minimal server.
        assert s2 == 200 and slo == {"status": "disabled"}
        assert s3 == 200 and timeline == {"status": "disabled"}

    def test_trace_endpoint_and_404(self, engines):
        async def handler(svc, server, metrics):
            root = int(np.flatnonzero(svc.engine.part.degrees > 0)[0])
            resp = await svc.submit(root)
            ok, _, body = await http_get(
                "127.0.0.1", server.port, f"/trace/{resp.trace_id}"
            )
            missing, _, _ = await http_get(
                "127.0.0.1", server.port, "/trace/req-999999"
            )
            nopath, _, _ = await http_get(
                "127.0.0.1", server.port, "/nope"
            )
            return resp, ok, json.loads(body), missing, nopath

        resp, ok, doc, missing, nopath = self._serve(engines, handler)
        assert ok == 200
        assert doc["trace_id"] == resp.trace_id
        assert doc["total_seconds"] == pytest.approx(resp.total_seconds)
        assert missing == 404
        assert nopath == 404

    def test_non_get_rejected(self, engines):
        async def handler(svc, server, metrics):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            return raw

        raw = self._serve(engines, handler)
        assert b"405" in raw.split(b"\r\n", 1)[0]


# ----------------------------------------------------------------------
# run_serving_session with the live plane
# ----------------------------------------------------------------------


class TestServingSessionTelemetry:
    def test_without_telemetry_the_summary_is_none(self, engines):
        _, batched = engines
        roots = make_workload_roots(
            batched.part.degrees, 8, seed=3, hot_fraction=0.5
        )
        report, _, telem = run_serving_session(batched, roots, clients=2)
        assert report.served == 8
        assert telem is None

    def test_telemetry_three_tuple(self, engines):
        _, batched = engines
        metrics = MetricsRegistry()
        roots = make_workload_roots(
            batched.part.degrees, 16, seed=3, hot_fraction=0.5
        )
        report, service, telem = run_serving_session(
            batched, roots, clients=2, metrics=metrics,
            telemetry={
                "port": 0,
                "interval": 0.02,
                "slos": [SLOSpec("total", 0.25, 0.99)],
            },
        )
        assert report.served == 16
        assert telem.port > 0
        assert telem.samples >= 1
        assert telem.scrapes.get("/metrics", 0) >= 1
        assert telem.scrapes.get("/healthz", 0) >= 1
        assert telem.slo is not None
        assert telem.slo["slos"][0]["name"] == "total<0.25s@99%"
        # The captured /metrics body parses as exposition text.
        assert b"serve_requests" in telem.last_metrics_body

    def test_session_ends_when_a_scrape_swallows_its_cancellation(
        self, engines, monkeypatch
    ):
        # Before Python 3.12, asyncio.wait_for returns its inner result
        # and drops a cancellation that lands as the inner read finishes
        # (seen as an intermittent hang of the test above).  A scrape
        # that always does so must still let the session end.
        _, batched = engines

        async def swallowing_get(host, port, path, *, timeout=5.0):
            try:
                await asyncio.sleep(0.1)
            except asyncio.CancelledError:
                pass
            return 200, {}, b"serve_requests"

        monkeypatch.setattr(workload, "http_get", swallowing_get)
        roots = make_workload_roots(batched.part.degrees, 4, seed=3)
        done = []
        session = threading.Thread(
            target=lambda: done.append(run_serving_session(
                batched, roots, clients=2, metrics=MetricsRegistry(),
                telemetry={"port": 0, "interval": 0.001},
            )),
            daemon=True,
        )
        session.start()
        session.join(timeout=30)
        assert done, "the session never returned"
        report, _, telem = done[0]
        assert report.served == 4
        assert telem.scrapes.get("/metrics", 0) >= 1

    def test_telemetry_requires_real_registry(self, engines):
        _, batched = engines
        roots = make_workload_roots(batched.part.degrees, 4, seed=3)
        with pytest.raises(ValueError):
            run_serving_session(
                batched, roots, telemetry={"port": 0}
            )

"""The serving layer: cache, admission-controlled service, workload.

MS-BFS correctness lives in test_msbfs.py; here we test everything
around it — eviction policy, bounded-queue shedding, batching windows,
crash replay, latency accounting, and the closed-loop workload the CI
smoke drives.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.cli import main
from repro.core import BFSConfig, DistributedBFS, partition_graph
from repro.graph500.rmat import generate_edges
from repro.graphs.csr import build_csr, symmetrize_edges
from repro.machine.network import MachineSpec
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import report_from_serve
from repro.resilience.faults import FaultInjector
from repro.runtime.mesh import ProcessMesh
from repro.serve import (
    Overloaded,
    ResultCache,
    TraversalError,
    TraversalService,
    fingerprint_graph,
)
from repro.serve.bench import amortization_sweep, build_serving_engine
from repro.serve.cache import CACHE_CAPACITY
from repro.serve.msbfs import MultiSourceBFS
from repro.serve.workload import (
    make_workload_roots,
    run_serving_session,
    run_workload,
)


def build_engines(scale=9, rows=2, cols=2, e_thr=128, h_thr=16, seed=7):
    src, dst = generate_edges(scale, seed=seed)
    n = 1 << scale
    machine = MachineSpec(num_nodes=rows * cols, nodes_per_supernode=cols)
    mesh = ProcessMesh(rows, cols, machine=machine)
    part = partition_graph(
        src, dst, n, mesh, e_threshold=e_thr, h_threshold=h_thr
    )
    config = BFSConfig(e_threshold=e_thr, h_threshold=h_thr)
    sequential = DistributedBFS(part, machine=machine, config=config)
    batched = MultiSourceBFS(part, machine=machine, config=config)
    graph = build_csr(*symmetrize_edges(src, dst), n)
    return sequential, batched, graph


@pytest.fixture(scope="module")
def engines():
    return build_engines()


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------


class TestResultCache:
    def _parent(self, tag):
        return np.arange(tag, tag + 4, dtype=np.int64)

    def test_hit_miss_counters(self):
        metrics = MetricsRegistry()
        cache = ResultCache(metrics=metrics)
        assert cache.get("fp", 1) is None
        cache.put("fp", 1, self._parent(0))
        assert np.array_equal(cache.get("fp", 1), self._parent(0))
        assert metrics.counter_total("serve_cache_hits") == 1
        assert metrics.counter_total("serve_cache_misses") == 1

    def test_lru_eviction_order(self):
        metrics = MetricsRegistry()
        cache = ResultCache(metrics=metrics)
        for root in range(1, CACHE_CAPACITY + 1):
            cache.put("fp", root, self._parent(root))
        cache.get("fp", 1)  # 1 is now most-recently-used
        cache.put("fp", 0, self._parent(0))  # evicts 2
        assert cache.get("fp", 2) is None
        assert cache.get("fp", 1) is not None
        assert metrics.counter_total("serve_cache_evictions", reason="lru") == 1
        assert metrics.counter_total("serve_cache_size") == CACHE_CAPACITY

    def test_invalidate_generation(self):
        # A delta invalidates trees of the generation it repairs only;
        # another graph's entries keep their key and their tree.
        metrics = MetricsRegistry()
        cache = ResultCache(metrics=metrics)
        cache.put("old", 1, self._parent(1))
        cache.put("old", 2, self._parent(2))
        cache.put("other", 1, self._parent(3))
        touched = np.arange(8)
        assert cache.apply_delta("old", "new", touched) == (2, 0)
        assert cache.get("new", 1) is None and cache.get("old", 1) is None
        assert np.array_equal(cache.get("other", 1), self._parent(3))
        assert metrics.counter_total(
            "serve_cache_evictions", reason="invalidation"
        ) == 2
        assert len(cache) == 1

    def test_cached_arrays_are_readonly(self):
        cache = ResultCache()
        cache.put("fp", 1, self._parent(1))
        got = cache.get("fp", 1)
        with pytest.raises(ValueError):
            got[0] = 99

    def test_fingerprint_distinguishes_graphs(self, engines):
        _, batched, _ = engines
        fp1 = fingerprint_graph(batched.part)
        assert fp1 == fingerprint_graph(batched.part)
        _, other, _ = build_engines(seed=8)
        assert fp1 != fingerprint_graph(other.part)

    def test_cached_lane_does_not_pin_its_batch(self):
        # A served tree is one lane's row of the batch's (lanes, n)
        # parent matrix; the cache must hold a read-only copy of it, not
        # a view that keeps the whole matrix alive (and writable).
        matrix = np.arange(64 * 100, dtype=np.int64).reshape(64, 100)
        cache = ResultCache()
        cache.put("fp", 3, matrix[3])
        got = cache.get("fp", 3)
        assert np.array_equal(got, matrix[3])
        assert not np.shares_memory(got, matrix)
        assert got.base is None and not got.flags.writeable


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------


def run_async(coro):
    return asyncio.run(coro)


class TestTraversalService:
    def test_single_query_matches_sequential(self, engines):
        sequential, batched, _ = engines
        root = int(np.flatnonzero(batched.part.degrees > 0)[0])

        async def main():
            async with TraversalService(batched, batch_window=0.0) as svc:
                return await svc.submit(root)

        response = run_async(main())
        assert not response.cached
        assert np.array_equal(response.parent, sequential.run(root).parent)
        assert response.total_seconds >= 0
        assert response.batch_lanes == 1

    def test_batch_flush_on_size(self, engines):
        _, batched, _ = engines
        roots = np.flatnonzero(batched.part.degrees > 0)[:8]

        async def main():
            # A generous window: the flush must come from reaching
            # batch_size, not the deadline.
            svc = TraversalService(
                batched, batch_size=8, batch_window=30.0, cache=None
            )
            async with svc:
                out = await asyncio.gather(
                    *(svc.submit(int(r)) for r in roots)
                )
            return svc, out

        svc, out = run_async(main())
        assert svc.stats.batches == 1
        assert all(r.batch_lanes == 8 for r in out)

    def test_batch_flush_on_window_deadline(self, engines):
        _, batched, _ = engines
        root = int(np.flatnonzero(batched.part.degrees > 0)[0])

        async def main():
            svc = TraversalService(
                batched, batch_size=64, batch_window=0.01, cache=None
            )
            async with svc:
                return svc, await svc.submit(root)

        svc, response = run_async(main())
        assert svc.stats.batches == 1
        assert response.batch_lanes == 1
        assert response.batch_wait >= 0.0

    def test_duplicate_roots_share_a_lane(self, engines):
        _, batched, _ = engines
        root = int(np.flatnonzero(batched.part.degrees > 0)[0])

        async def main():
            svc = TraversalService(
                batched, batch_size=4, batch_window=0.05, cache=None
            )
            async with svc:
                return svc, await asyncio.gather(
                    *(svc.submit(root) for _ in range(4))
                )

        svc, out = run_async(main())
        assert svc.stats.batches == 1
        assert svc.stats.batched_lanes == 1  # four requests, one lane
        assert all(np.array_equal(r.parent, out[0].parent) for r in out)

    def test_overloaded_is_typed_and_queue_stays_bounded(self, engines):
        _, batched, _ = engines
        roots = np.flatnonzero(batched.part.degrees > 0)

        async def main():
            svc = TraversalService(
                batched, queue_depth=4, batch_size=4, batch_window=0.001,
                cache=None,
            )
            async with svc:
                # All twelve submit() coroutines reach the admission
                # check before the flush loop can drain: only four fit.
                tasks = [
                    asyncio.ensure_future(svc.submit(int(r)))
                    for r in roots[:12]
                ]
                done = await asyncio.gather(*tasks, return_exceptions=True)
            return svc, done

        svc, done = run_async(main())
        shed = [e for e in done if isinstance(e, Overloaded)]
        served = [r for r in done if not isinstance(r, Exception)]
        assert len(shed) > 0
        assert all(e.limit == 4 for e in shed)
        assert svc.stats.shed == len(shed)
        assert len(served) + len(shed) == 12
        assert not any(
            isinstance(e, Exception) and not isinstance(e, Overloaded)
            for e in done
        )

    def test_cache_hit_path(self, engines):
        _, batched, _ = engines
        root = int(np.flatnonzero(batched.part.degrees > 0)[0])

        async def main():
            async with TraversalService(batched, batch_window=0.0) as svc:
                first = await svc.submit(root)
                second = await svc.submit(root)
            return svc, first, second

        svc, first, second = run_async(main())
        assert not first.cached and second.cached
        assert np.array_equal(first.parent, second.parent)
        assert svc.stats.cache_hits == 1
        assert svc.stats.batches == 1

    def test_crash_replay_transparent_to_client(self, engines):
        sequential, batched, _ = engines
        root = int(np.flatnonzero(batched.part.degrees > 0)[0])
        injector = FaultInjector(
            "crash:rank=1,iter=1", rng=np.random.default_rng(0)
        )

        async def main():
            svc = TraversalService(batched, batch_window=0.0, faults=injector)
            async with svc:
                return svc, await svc.submit(root)

        svc, response = run_async(main())
        assert svc.stats.replays == 1
        assert svc.stats.failed == 0
        assert np.array_equal(response.parent, sequential.run(root).parent)

    def test_replay_budget_exhaustion_fails_only_that_batch(self, engines):
        _, batched, _ = engines
        roots = np.flatnonzero(batched.part.degrees > 0)
        # One crash per attempt: first batch exhausts its MAX_REPLAYS
        # budget, the follow-up query (a fresh batch) succeeds.
        injector = FaultInjector(
            "crash:rank=1,iter=1;crash:rank=0,iter=1;crash:rank=2,iter=1",
            rng=np.random.default_rng(0),
        )

        async def main():
            svc = TraversalService(batched, batch_window=0.0, faults=injector)
            async with svc:
                with pytest.raises(TraversalError):
                    await svc.submit(int(roots[0]))
                ok = await svc.submit(int(roots[1]))
            return svc, ok

        svc, ok = run_async(main())
        assert svc.stats.failed == 1
        assert svc.stats.completed == 1
        assert ok.parent is not None

    def test_replay_budget_is_per_request(self, engines):
        """A fresh request that joins a replayed batch head keeps its
        own budget: the head fails typed, the newcomer is replayed."""
        sequential, batched, _ = engines
        roots = np.flatnonzero(batched.part.degrees > 0)
        a, b = int(roots[0]), int(roots[1])
        injector = FaultInjector(
            "crash:rank=1,iter=1;crash:rank=0,iter=1;crash:rank=2,iter=1",
            rng=np.random.default_rng(0),
        )

        async def main():
            svc = TraversalService(
                batched, batch_window=0.05, faults=injector, cache=None,
            )
            async with svc:
                first = asyncio.ensure_future(svc.submit(a))
                while svc.stats.replays < 1:
                    await asyncio.sleep(0.001)
                # A is back at the queue head (one attempt spent), its
                # batch window open: B rides the last two crashes with it.
                second = asyncio.ensure_future(svc.submit(b))
                done = await asyncio.wait_for(
                    asyncio.gather(first, second, return_exceptions=True),
                    timeout=30,
                )
            return svc, done

        svc, (first, second) = run_async(main())
        assert isinstance(first, TraversalError)
        assert first.trace_id == "req-000001"
        assert np.array_equal(second.parent, sequential.run(b).parent)
        assert svc.stats.failed == 1 and svc.stats.completed == 1
        assert svc.stats.replays == 3  # one per crash that left a survivor
        assert svc.request_timeline(first.trace_id).status == "failed"

    def test_non_crash_exception_fails_the_batch_typed(self, engines, monkeypatch):
        """A traversal that raises anything but an injected crash used
        to kill the flusher task, so every queued future waited for
        ever.  Each request of the batch must fail with a typed
        ``TraversalError`` and the next submit must still be served."""
        sequential, batched, _ = engines
        roots = np.flatnonzero(batched.part.degrees > 0)
        a, b, c = (int(r) for r in roots[:3])
        real_run_batch = MultiSourceBFS.run_batch
        calls = []

        def flaky(self, batch_roots, **kwargs):
            calls.append(len(batch_roots))
            if len(calls) == 1:
                raise ValueError("half-repaired partition")
            return real_run_batch(self, batch_roots, **kwargs)

        monkeypatch.setattr(MultiSourceBFS, "run_batch", flaky)

        async def main():
            svc = TraversalService(batched, batch_window=0.05, cache=None)
            async with svc:
                doomed = await asyncio.wait_for(
                    asyncio.gather(
                        svc.submit(a), svc.submit(b), return_exceptions=True
                    ),
                    timeout=30,
                )
                ok = await asyncio.wait_for(svc.submit(c), timeout=30)
            return svc, doomed, ok

        svc, doomed, ok = run_async(main())
        assert calls == [2, 1]
        assert [type(e) for e in doomed] == [TraversalError, TraversalError]
        assert sorted(e.trace_id for e in doomed) == ["req-000001", "req-000002"]
        assert all("ValueError: half-repaired partition" in str(e) for e in doomed)
        assert np.array_equal(ok.parent, sequential.run(c).parent)
        assert svc.stats.failed == 2 and svc.stats.completed == 1
        assert svc.stats.replays == 0  # not a crash: nothing is replayed
        assert svc.request_timeline("req-000001").status == "failed"

    def test_latency_histograms_populated(self, engines):
        _, batched, _ = engines
        metrics = MetricsRegistry()
        roots = np.flatnonzero(batched.part.degrees > 0)[:4]

        async def main():
            svc = TraversalService(
                batched, batch_size=4, batch_window=0.05, metrics=metrics
            )
            async with svc:
                await asyncio.gather(*(svc.submit(int(r)) for r in roots))

        run_async(main())
        for stage in ("queue", "batch", "traversal", "total"):
            samples = list(
                metrics.samples("serve_latency_seconds")
            )
            labels = [lab for lab, _ in samples]
            assert {"stage": stage} in labels, f"missing stage={stage}"
        total = [
            inst for lab, inst in metrics.samples("serve_latency_seconds")
            if lab == {"stage": "total"}
        ][0]
        assert total.summary()["count"] == 4

    def test_submit_validates_inputs(self, engines):
        _, batched, _ = engines

        async def main():
            svc = TraversalService(batched)
            with pytest.raises(RuntimeError):
                await svc.submit(0)  # not started
            async with svc:
                with pytest.raises(ValueError):
                    await svc.submit(-1)
                with pytest.raises(ValueError):
                    await svc.submit(batched.num_vertices)

        run_async(main())

    def test_constructor_validation(self, engines):
        _, batched, _ = engines
        with pytest.raises(ValueError):
            TraversalService(batched, batch_size=0)
        with pytest.raises(ValueError):
            TraversalService(batched, batch_size=65)
        with pytest.raises(ValueError):
            TraversalService(batched, queue_depth=0)
        with pytest.raises(ValueError):
            TraversalService(batched, batch_window=-1.0)


# ----------------------------------------------------------------------
# workload
# ----------------------------------------------------------------------


class TestWorkload:
    def test_root_stream_is_seed_deterministic(self, engines):
        _, batched, _ = engines
        degrees = batched.part.degrees
        a = make_workload_roots(degrees, 64, seed=3)
        b = make_workload_roots(degrees, 64, seed=3)
        c = make_workload_roots(degrees, 64, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.all(degrees[a] > 0)

    def test_hot_fraction_produces_repeats(self, engines):
        _, batched, _ = engines
        roots = make_workload_roots(
            batched.part.degrees, 128, seed=1,
            hot_fraction=0.9, hot_set_size=4,
        )
        assert np.unique(roots).size < 64  # heavy repetition

    def test_closed_loop_zero_wrong_parents(self, engines):
        sequential, batched, _ = engines
        roots = make_workload_roots(
            batched.part.degrees, 96, seed=11,
            hot_fraction=0.5, hot_set_size=8,
        )
        expected = {
            (int(r),): sequential.run(int(r)).parent for r in np.unique(roots)
        }
        report, service, _ = run_serving_session(
            batched, roots, clients=8, expected=expected,
            batch_size=16, batch_window=0.005,
        )
        assert report.served == report.num_queries
        assert report.failed == 0
        assert report.wrong_parents == 0
        assert report.validated == report.num_queries
        assert report.cache_hit_rate > 0  # repeats hit the cache
        # Admission accounting closes: everything admitted completed.
        assert service.stats.admitted == service.stats.completed

    def test_shedding_retries_eventually_serve_everything(self, engines):
        _, batched, _ = engines
        roots = make_workload_roots(batched.part.degrees, 48, seed=2)

        async def main():
            svc = TraversalService(
                batched, queue_depth=2, batch_size=4, batch_window=0.001,
                cache=None,
            )
            async with svc:
                return svc, await run_workload(svc, roots, clients=16)

        svc, report = run_async(main())
        assert report.served == report.num_queries
        assert report.failed == 0
        assert svc.stats.shed > 0  # backpressure actually engaged
        assert report.shed_retries == svc.stats.shed

    def test_report_from_serve_metrics(self, engines):
        _, batched, _ = engines
        roots = make_workload_roots(
            batched.part.degrees, 32, seed=5, hot_fraction=0.5
        )
        report, service, _ = run_serving_session(
            batched, roots, clients=8, batch_size=8,
            metrics=MetricsRegistry(),
        )
        run_report = report_from_serve(
            service, report, context=dict(scale=9)
        )
        m = run_report.metrics
        assert m["serve.requests"] == 32
        assert m["serve.completed"] + m["serve.cache_hits"] == 32
        assert m["serve.failed"] == 0
        assert m["serve.sim_seconds_per_query"] > 0
        assert 0 <= m["serve.cache_hit_rate"] <= 1
        assert any(
            key.startswith("serve_latency_seconds")
            for key in run_report.summaries
        )
        assert run_report.context["batch_size"] == 8

    def test_workload_argument_validation(self, engines):
        _, batched, _ = engines
        with pytest.raises(ValueError):
            make_workload_roots(batched.part.degrees, 0, seed=1)
        with pytest.raises(ValueError):
            make_workload_roots(
                batched.part.degrees, 4, seed=1, hot_fraction=1.5
            )
        with pytest.raises(ValueError):
            make_workload_roots(np.zeros(8, dtype=np.int64), 4, seed=1)


# ----------------------------------------------------------------------
# bench core + CLI
# ----------------------------------------------------------------------


class TestServeBench:
    def test_amortization_sweep_monotone_gain(self):
        engine = build_serving_engine(
            9, 2, 2, seed=7, e_threshold=128, h_threshold=16
        )
        roots = np.flatnonzero(engine.part.degrees > 0)[:16]
        points = amortization_sweep(engine, roots, batch_sizes=(1, 4, 16))
        assert [p.batch_size for p in points] == [1, 4, 16]
        # A batch of one is charged exactly what its root is.
        assert points[0].amortization_factor == 1.0
        assert points[0].batch_bytes == points[0].sequential_bytes
        assert points[-1].amortization_factor > points[0].amortization_factor
        assert points[-1].amortization_factor > 2.0
        for p in points:
            assert p.amortized_seconds * p.batch_size == pytest.approx(
                p.batch_seconds
            )


class TestServeCLI:
    ARGS = ["--scale", "9", "--mesh", "2x2", "--seed", "7",
            "--e-threshold", "128", "--h-threshold", "16"]

    def test_serve_command_validates(self, capsys, tmp_path):
        out_path = tmp_path / "serve.json"
        rc = main([
            "serve", *self.ARGS, "--queries", "48", "--clients", "8",
            "--batch-size", "16", "--validate", "--out", str(out_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "wrong parents" in out and "0/48 validated" in out
        assert out_path.exists()

    def test_serve_command_with_faults_replays(self, capsys):
        rc = main([
            "serve", *self.ARGS, "--queries", "24", "--clients", "8",
            "--batch-size", "8", "--faults", "crash:rank=1,iter=1",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "batch replays" in out

    def test_bench_serve_command(self, capsys, tmp_path):
        json_path = tmp_path / "bench.json"
        rc = main([
            "bench-serve", *self.ARGS, "--batch-sizes", "1,8",
            "--json", str(json_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "amortized simulated cost per query" in out
        doc = json.loads(json_path.read_text())
        assert doc["schema"] == "repro.bench_serve/2"
        assert [p["batch_size"] for p in doc["amortization"]] == [1, 8]
        assert "service" not in doc

    def test_graph500_batch_roots_flag(self, capsys):
        rc = main([
            "graph500", *self.ARGS, "--roots", "4", "--batch-roots",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "validation: PASSED" in out

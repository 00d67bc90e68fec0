"""Serving under churn: partial cache invalidation and live ingestion.

The cache tests exercise the touched-vertex digest machinery directly;
the service tests run edge-update batches through
:meth:`TraversalService.ingest_updates` on a two-component graph, where
an update confined to one component must evict only that component's
cached trees and carry the other component's across the generation.
"""

import asyncio
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import BFSConfig
from repro.core.partition import mix64
from repro.dynamic.repair import IncrementalGraph
from repro.dynamic.updates import UpdateBatch
from repro.machine.network import MachineSpec
from repro.obs.metrics import MetricsRegistry
from repro.runtime.mesh import ProcessMesh
from repro.serve.cache import ResultCache, fingerprint_graph, touched_digest
from repro.serve.msbfs import MultiSourceBFS
from repro.serve.service import TraversalService


def run_async(coro):
    return asyncio.run(coro)


def _insert_batch(pairs):
    return UpdateBatch(
        src=np.array([p[0] for p in pairs], dtype=np.int64),
        dst=np.array([p[1] for p in pairs], dtype=np.int64),
        op=np.ones(len(pairs), dtype=np.int8),
    )


def _delete_batch(pairs):
    batch = _insert_batch(pairs)
    batch.op[:] = -1
    return batch


def two_rings(half=32):
    """Two disjoint rings: component A on [0, half), B on [half, 2*half)."""
    i = np.arange(half, dtype=np.int64)
    lo = np.concatenate([i, i + half])
    hi = np.concatenate([(i + 1) % half, (i + 1) % half + half])
    return lo, hi, 2 * half


# ----------------------------------------------------------------------
# digest + cache
# ----------------------------------------------------------------------


class TestTouchedDigest:
    def test_shared_vertex_always_intersects(self):
        a = touched_digest(np.array([3, 9, 100]))
        b = touched_digest(np.array([100, 2000]))
        assert np.any(a & b)

    def test_empty_set_never_intersects(self):
        a = touched_digest(np.arange(1000))
        assert not np.any(a & touched_digest(np.array([], dtype=np.int64)))

    def test_deterministic(self):
        v = np.array([5, 17, 23])
        assert np.array_equal(touched_digest(v), touched_digest(v[::-1]))

    @staticmethod
    def reference_digest(vertices):
        """The digest by one ``bitwise_or.at`` per hashed bit."""
        digest = np.zeros(16, dtype=np.uint64)
        bits = mix64(np.asarray(vertices, dtype=np.uint64)) % np.uint64(1024)
        np.bitwise_or.at(
            digest, bits >> np.uint64(6), np.uint64(1) << (bits & np.uint64(63))
        )
        return digest

    #: Vertices below 2**14 grouped by the digest bit they hash to.
    BIT_OF = mix64(np.arange(1 << 14, dtype=np.uint64)) % np.uint64(1024)

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["empty", "single", "colliding", "full", "drawn"]),
        data=st.data(),
    )
    def test_matches_bitwise_or_at_reference(self, kind, data):
        if kind == "empty":
            v = np.array([], dtype=np.int64)
        elif kind == "single":
            v = np.array([data.draw(st.integers(0, 2**40))])
        elif kind == "colliding":
            # Distinct vertices sharing one bit, plus a repeat.
            bit = data.draw(st.integers(0, 1023))
            same = np.flatnonzero(self.BIT_OF == bit)
            assert same.size >= 2
            v = np.concatenate([same, same[:1]])
        elif kind == "full":
            # Every vertex of a tree over 2**14 vertices: all 1024 bits.
            v = np.arange(1 << 14)
        else:
            v = np.array(
                data.draw(st.lists(st.integers(0, 2**20), max_size=300)),
                dtype=np.int64,
            )
        got = touched_digest(v)
        expected = self.reference_digest(v)
        assert got.dtype == np.uint64 and got.shape == (16,)
        assert got.tobytes() == expected.tobytes()
        if kind == "full":
            assert np.all(got == np.uint64(2**64 - 1))


class TestTreeDigest:
    """``ResultCache.put`` digests a parent tree by one gather of a
    per-size bit-of-vertex table; it must be the digest of the reached
    set, ``touched_digest(flatnonzero(parent >= 0))``."""

    BIT_OF = TestTouchedDigest.BIT_OF

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["empty", "single", "colliding", "full", "drawn"]),
        data=st.data(),
    )
    def test_put_digest_is_the_reached_set_digest(self, kind, data):
        n = 1 << 14
        parent = np.full(n, -1, dtype=np.int64)
        if kind == "single":
            parent[data.draw(st.integers(0, n - 1))] = 0
        elif kind == "colliding":
            bit = data.draw(st.integers(0, 1023))
            parent[np.flatnonzero(self.BIT_OF == bit)] = 0
        elif kind == "full":
            parent[:] = 0
        elif kind == "drawn":
            reached = data.draw(st.lists(st.integers(0, n - 1), max_size=300))
            parent[reached] = 0
        cache = ResultCache()
        cache.put("fp", 0, parent)
        digest = cache._entries[("fp", 0)][1]
        expected = touched_digest(np.flatnonzero(parent >= 0))
        assert digest.dtype == np.uint64 and digest.shape == (16,)
        assert digest.tobytes() == expected.tobytes()

    def test_sizes_keep_their_own_tables(self):
        cache = ResultCache()
        for n in (1, 5, 1 << 10, 5):
            parent = np.zeros(n, dtype=np.int64)
            cache.put(str(n), 0, parent)
            assert cache._entries[(str(n), 0)][1].tobytes() == (
                touched_digest(np.arange(n)).tobytes()
            )


class TestPartialInvalidation:
    def _parent(self, tree):
        parent = np.full(16, -1, dtype=np.int64)
        parent[list(tree)] = 0
        return parent

    def test_apply_delta_evicts_touched_rekeys_rest(self):
        metrics = MetricsRegistry()
        cache = ResultCache(metrics=metrics)
        cache.put("old", 0, self._parent([0, 1, 2]))
        cache.put("old", 8, self._parent([8, 9]))
        evicted, rekeyed = cache.apply_delta(
            "old", "new", touched=np.array([1])
        )
        assert (evicted, rekeyed) == (1, 1)
        # The untouched tree answers under the new fingerprint only.
        assert cache.get("new", 8) is not None
        assert cache.get("old", 8) is None
        assert cache.get("new", 0) is None
        assert metrics.counter_total(
            "serve_cache_evictions", reason="invalidation"
        ) == 1

    def test_apply_delta_explicit_touched_on_put(self):
        cache = ResultCache()
        cache.put("old", 3, self._parent([3]), touched=np.array([3, 7]))
        evicted, rekeyed = cache.apply_delta(
            "old", "new", touched=np.array([7])
        )
        assert (evicted, rekeyed) == (1, 0)


# ----------------------------------------------------------------------
# service ingestion
# ----------------------------------------------------------------------


@pytest.fixture()
def dynamic_service():
    lo, hi, n = two_rings()
    machine = MachineSpec(num_nodes=4, nodes_per_supernode=2)
    mesh = ProcessMesh(2, 2, machine=machine)
    inc = IncrementalGraph(
        lo, hi, n, mesh, e_threshold=8, h_threshold=4, machine=machine
    )
    config = BFSConfig(e_threshold=8, h_threshold=4)
    engine = MultiSourceBFS(inc.graph(), machine=machine, config=config)
    service = TraversalService(engine, dynamic=inc, batch_window=0.0)
    return service, inc, machine, config


class TestIngestion:
    def test_ingest_requires_dynamic_graph(self, dynamic_service):
        service, inc, machine, config = dynamic_service
        static = TraversalService(service.engine)

        async def main():
            async with static:
                await static.ingest_updates([])

        with pytest.raises(RuntimeError, match="dynamic"):
            run_async(main())

    def test_update_in_one_component_keeps_the_others_cache(
        self, dynamic_service
    ):
        service, inc, machine, config = dynamic_service
        # (33, 50) lives in component B; digest-checked not to collide
        # with component A's 32-vertex tree.
        batch = _insert_batch([(33, 50)])

        async def main():
            async with service as svc:
                a = await svc.submit(0)    # component A
                b = await svc.submit(40)   # component B
                report = await svc.ingest_updates([batch])
                a2 = await svc.submit(0)
                b2 = await svc.submit(40)
                return a, b, report, a2, b2

        a, b, report, a2, b2 = run_async(main())
        assert not a.cached and not b.cached
        assert report.num_batches == 1
        assert report.cache_rekeyed == 1  # component A's tree survived
        assert report.cache_evicted == 1  # component B's tree was stale
        assert a2.cached
        assert not b2.cached
        # The patched answer is the rebuilt graph's answer.
        fresh = MultiSourceBFS(
            inc.rebuild_reference(), machine=machine, config=config
        ).run_batch(np.array([40], dtype=np.int64))
        assert np.array_equal(b2.parent, fresh.lane_parent(0))
        assert b2.parent[50] == 33 or b2.parent[50] >= 0

    def test_fingerprint_tracks_repaired_graph(self, dynamic_service):
        service, inc, machine, config = dynamic_service
        batch = _insert_batch([(35, 60)])

        async def main():
            async with service as svc:
                before = svc.graph_fingerprint
                report = await svc.ingest_updates([batch])
                return before, report, svc.graph_fingerprint

        before, report, after = run_async(main())
        assert report.old_fingerprint == before
        assert report.new_fingerprint == after
        assert before != after
        assert after == fingerprint_graph(inc.graph())

    def test_ingest_counts_metrics(self):
        lo, hi, n = two_rings()
        machine = MachineSpec(num_nodes=4, nodes_per_supernode=2)
        mesh = ProcessMesh(2, 2, machine=machine)
        metrics = MetricsRegistry()
        inc = IncrementalGraph(
            lo, hi, n, mesh, e_threshold=8, h_threshold=4,
            machine=machine, metrics=metrics,
        )
        config = BFSConfig(e_threshold=8, h_threshold=4)
        engine = MultiSourceBFS(inc.graph(), machine=machine, config=config)
        service = TraversalService(
            engine, dynamic=inc, batch_window=0.0, metrics=metrics
        )

        async def main():
            async with service as svc:
                await svc.ingest_updates(
                    [_insert_batch([(34, 62)]), _insert_batch([(36, 58)])]
                )

        run_async(main())
        assert metrics.counter_total("serve_ingest_batches") == 2
        assert metrics.counter_total("serve_ingest_updates") == 2
        assert metrics.counter_total("dynamic_batches") == 2


def test_ingest_during_inflight_batch(dynamic_service, monkeypatch):
    """A query batch already traversing generation N must not see the
    repair of generation N+1.

    ``IncrementalGraph.graph()`` used to hand the serving engine the one
    live partition ``apply_batch`` rewrites, so a demotion (H -> L turns
    ``eh_col`` to -1) under an in-flight batch raised inside the
    traversal, the flusher task died, and the request never resolved.
    """
    service, inc, machine, config = dynamic_service
    # Ring A lives on mesh row 0, so an L -> H message to a vertex whose
    # ``eh_col`` turned -1 routes to rank -1 and ``np.bincount`` raises.
    promote = _insert_batch([(1, 10), (1, 12)])   # 1: degree 4 -> H
    demote = _delete_batch([(1, 10), (1, 12)])    # ...and back to L
    in_flight, release = threading.Event(), threading.Event()
    real_run_batch = MultiSourceBFS.run_batch

    def gated(self, roots, **kwargs):
        in_flight.set()
        assert release.wait(10)
        return real_run_batch(self, roots, **kwargs)

    async def main():
        loop = asyncio.get_running_loop()
        async with service as svc:
            await svc.ingest_updates([promote])
            expected = MultiSourceBFS(
                inc.rebuild_reference(), machine=machine, config=config
            ).run_batch(np.array([8], dtype=np.int64))
            monkeypatch.setattr(MultiSourceBFS, "run_batch", gated)
            query = asyncio.create_task(svc.submit(8))
            assert await loop.run_in_executor(None, in_flight.wait, 10)
            # The batch now sits on the executor holding generation 1;
            # repair generation 2 underneath it, then let it traverse.
            ingest = asyncio.create_task(svc.ingest_updates([demote]))
            while inc.num_batches < 2:
                await asyncio.sleep(0.005)
            release.set()
            response = await asyncio.wait_for(query, 10)
            await ingest
            monkeypatch.setattr(MultiSourceBFS, "run_batch", real_run_batch)
            after = await svc.submit(8)
            return expected, response, after

    expected, response, after = run_async(main())
    assert np.array_equal(response.parent, expected.lane_parent(0))
    assert response.parent[1] >= 0
    # ...and priced on generation 1 too (a half-repaired partition can
    # also mis-route silently instead of raising).
    assert response.sim_seconds == expected.amortized_seconds
    # The next query is served from the repaired generation, not the
    # in-flight batch's cache entry.
    assert not after.cached
    fresh = MultiSourceBFS(
        inc.rebuild_reference(), machine=machine, config=config
    ).run_batch(np.array([8], dtype=np.int64))
    assert np.array_equal(after.parent, fresh.lane_parent(0))

"""Tests for incremental result patching (:mod:`repro.dynamic.patch`).

Every patched or recomputed result must be bit-identical to a fresh
traversal of the repaired graph — modes only describe how much work the
repair took, never what the answer is.
"""

import numpy as np

from repro.core.config import BFSConfig
from repro.core.engine import DistributedBFS
from repro.dynamic.patch import (
    levels_from_parent,
    patch_bfs_result,
    patch_sssp_result,
)
from repro.dynamic.repair import IncrementalGraph
from repro.dynamic.updates import UpdateBatch
from repro.runtime.mesh import ProcessMesh

CONFIG = BFSConfig(e_threshold=8, h_threshold=4)


def _unit_weights(s, d):
    return np.ones(np.asarray(s, dtype=np.int64).shape, dtype=np.float64)


def _batch(ins=(), dels=()):
    pairs = list(ins) + list(dels)
    return UpdateBatch(
        src=np.array([p[0] for p in pairs], dtype=np.int64),
        dst=np.array([p[1] for p in pairs], dtype=np.int64),
        op=np.array([1] * len(ins) + [-1] * len(dels), dtype=np.int8),
    )


def _path_edges(n):
    return np.arange(n - 1, dtype=np.int64), np.arange(1, n, dtype=np.int64)


def _incremental(src, dst, n):
    return IncrementalGraph(
        src, dst, n, ProcessMesh(2, 2),
        e_threshold=CONFIG.e_threshold, h_threshold=CONFIG.h_threshold,
    )


def _engine(part):
    return DistributedBFS(part, config=CONFIG)


class TestLevelsFromParent:
    def test_path_levels(self):
        parent = np.array([0, 0, 1, 2, 3])
        assert levels_from_parent(parent, 0).tolist() == [0, 1, 2, 3, 4]

    def test_unreachable_is_minus_one(self):
        parent = np.array([0, 0, -1, -1])
        assert levels_from_parent(parent, 0).tolist() == [0, 1, -1, -1]

    def test_forest_of_other_root_ignored(self):
        # Vertices parented in a different tree never gain a level.
        parent = np.array([0, 0, 3, 3])
        assert levels_from_parent(parent, 0).tolist() == [0, 1, -1, -1]


class TestBfsPatch:
    def test_deep_insert_resumes_mid_traversal(self):
        n = 20
        inc = _incremental(*_path_edges(n), n)
        old = _engine(inc.graph()).run(0)
        report = inc.apply_batch(_batch(ins=[(10, 19)]))
        engine = _engine(inc.graph())
        outcome = patch_bfs_result(old, engine, report.delta)
        assert outcome.mode == "patched"
        assert outcome.resumed_from is not None
        fresh = _engine(inc.rebuild_reference()).run(0)
        assert np.array_equal(outcome.result.parent, fresh.parent)

    def test_non_tree_delete_is_unchanged(self):
        # Triangle at the root: BFS(0) parents 1 and 2 to 0, so {1, 2}
        # is a non-tree edge and removing it changes nothing.
        src = np.array([0, 0, 1, 2, 3])
        dst = np.array([1, 2, 2, 3, 4])
        inc = _incremental(src, dst, 5)
        old = _engine(inc.graph()).run(0)
        assert old.parent[1] == 0 and old.parent[2] == 0
        report = inc.apply_batch(_batch(dels=[(1, 2)]))
        engine = _engine(inc.graph())
        outcome = patch_bfs_result(old, engine, report.delta)
        assert outcome.mode == "unchanged"
        assert outcome.result is old
        fresh = _engine(inc.rebuild_reference()).run(0)
        assert np.array_equal(outcome.result.parent, fresh.parent)

    def test_tree_delete_recomputes(self):
        n = 12
        inc = _incremental(*_path_edges(n), n)
        old = _engine(inc.graph()).run(0)
        report = inc.apply_batch(_batch(dels=[(5, 6)]))
        engine = _engine(inc.graph())
        outcome = patch_bfs_result(old, engine, report.delta)
        assert outcome.mode == "recomputed"
        fresh = _engine(inc.rebuild_reference()).run(0)
        assert np.array_equal(outcome.result.parent, fresh.parent)
        # The far half of the severed path is unreachable now.
        assert outcome.result.parent[6] == -1

    def test_insert_at_root_recomputes(self):
        # A chord landing at level <= 1 leaves no prefix to keep.
        n = 12
        inc = _incremental(*_path_edges(n), n)
        old = _engine(inc.graph()).run(0)
        report = inc.apply_batch(_batch(ins=[(0, 11)]))
        engine = _engine(inc.graph())
        outcome = patch_bfs_result(old, engine, report.delta)
        assert outcome.mode == "recomputed"
        fresh = _engine(inc.rebuild_reference()).run(0)
        assert np.array_equal(outcome.result.parent, fresh.parent)


class TestSsspPatch:
    def test_improving_insert_patches(self):
        n = 20
        inc = _incremental(*_path_edges(n), n)
        engine = _engine(inc.graph())
        from repro.dynamic.patch import _fresh_sssp

        old = _fresh_sssp(engine, 0, _unit_weights)
        report = inc.apply_batch(_batch(ins=[(2, 17)]))
        engine = _engine(inc.graph())
        outcome = patch_sssp_result(
            old, engine, report.delta, weight_of=_unit_weights
        )
        assert outcome.mode == "patched"
        fresh = _fresh_sssp(
            _engine(inc.rebuild_reference()), 0, _unit_weights
        )
        distance = outcome.result.state["distance"]
        assert np.array_equal(distance, fresh.state["distance"])
        assert distance[17] == 3.0

    def test_non_improving_insert_is_unchanged(self):
        # 1 and 2 are equidistant from 0; a unit-weight edge between
        # them cannot improve either side.
        src = np.array([0, 0, 1, 2])
        dst = np.array([1, 2, 3, 4])
        inc = _incremental(src, dst, 5)
        engine = _engine(inc.graph())
        from repro.dynamic.patch import _fresh_sssp

        old = _fresh_sssp(engine, 0, _unit_weights)
        report = inc.apply_batch(_batch(ins=[(1, 2)]))
        engine = _engine(inc.graph())
        outcome = patch_sssp_result(
            old, engine, report.delta, weight_of=_unit_weights
        )
        assert outcome.mode == "unchanged"
        assert outcome.result is old

    def test_tree_delete_recomputes(self):
        n = 12
        inc = _incremental(*_path_edges(n), n)
        engine = _engine(inc.graph())
        from repro.dynamic.patch import _fresh_sssp

        old = _fresh_sssp(engine, 0, _unit_weights)
        report = inc.apply_batch(_batch(dels=[(5, 6)]))
        engine = _engine(inc.graph())
        outcome = patch_sssp_result(
            old, engine, report.delta, weight_of=_unit_weights
        )
        assert outcome.mode == "recomputed"
        fresh = _fresh_sssp(
            _engine(inc.rebuild_reference()), 0, _unit_weights
        )
        distance = outcome.result.state["distance"]
        assert np.array_equal(distance, fresh.state["distance"])
        assert not np.isfinite(distance[6])


class TestPatchedChain:
    def test_results_chain_across_batches(self):
        """Patched results stay exact when each batch patches the
        previous batch's (already patched) result."""
        n = 32
        inc = _incremental(*_path_edges(n), n)
        res = _engine(inc.graph()).run(0)
        for pair in [(20, 31), (16, 27), (8, 30)]:
            report = inc.apply_batch(_batch(ins=[pair]))
            engine = _engine(inc.graph())
            res = patch_bfs_result(res, engine, report.delta).result
            fresh = _engine(inc.rebuild_reference()).run(0)
            assert np.array_equal(res.parent, fresh.parent)

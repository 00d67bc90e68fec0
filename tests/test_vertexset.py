"""The single-source sets never drift from their masks.

A run's frontier, visited set and next frontier are
:class:`~repro.core.vertexset.VertexSet` objects that grow only through
``add``; every host hook reads ``ids`` / ``counts`` / ``len`` off them
instead of re-reading the mask.  The definition stays the mask: ``ids``
is its ``flatnonzero``, ``counts`` the per-class popcounts, ``len`` the
population.  A checking host (the single-source twin of
``test_lane_counts.CheckingMSBFS``) holds every set to that definition
at every hook of every level, and the 1.5D engine's count-based §4.2
decision to ``choose_component_direction(ClassState.measure(masks))``.
"""

import threading

import numpy as np
import pytest

from repro.baselines import DelegatedOneDimBFS, OneDimBFS, TwoDimBFS
from repro.core import BFSConfig, DistributedBFS, partition_graph
from repro.core.direction import choose_component_direction
from repro.core.lanes import NUM_CLASSES
from repro.core.vertexset import VertexSet
from repro.dynamic.patch import patch_bfs_result
from repro.dynamic.repair import IncrementalGraph
from repro.dynamic.updates import UpdateBatch
from repro.graphs.generators import ring_lattice_edges
from repro.resilience import LevelCheckpointer
from repro.runtime.mesh import ProcessMesh
from repro.runtime.replay import ReplayBFS

from golden.generate import E_THR, H_THR, build_system


class Checking:
    """Mixin over any ``SchedulerHost``: asserts the sets' invariants in
    every hook that receives them, then defers to the engine."""

    checks = 0

    def assert_sets_match_masks(self, *sets) -> None:
        vclass = self.vertex_classes
        for s in sets:
            assert isinstance(s, VertexSet)
            members = np.flatnonzero(s.mask)
            assert np.array_equal(s.ids, members)
            assert len(s) == members.size
            codes = np.zeros(members.size, int) if vclass is None else vclass[members]
            assert np.array_equal(
                s.counts, np.bincount(codes, minlength=NUM_CLASSES)
            )
            self.checks += 1

    def begin_iteration(self, ledger, active, visited):
        self.assert_sets_match_masks(active, visited)
        assert visited.mask[active.ids].all()  # the frontier is visited
        super().begin_iteration(ledger, active, visited)

    def iteration_direction(self, active, visited):
        self.assert_sets_match_masks(active, visited)
        return super().iteration_direction(active, visited)

    def record_activation(self, record, next_active):
        self.assert_sets_match_masks(next_active)
        super().record_activation(record, next_active)

    def end_iteration(self, ledger, record, active, visited, parent, next_active):
        # After the engine's own work: the replay commits here.
        super().end_iteration(ledger, record, active, visited, parent, next_active)
        self.assert_sets_match_masks(active, visited, next_active)
        assert record.frontier_size == len(active)
        assert visited.mask[next_active.ids].all()
        assert not (active.mask & next_active.mask).any()


class CheckingBFS(Checking, DistributedBFS):
    """Adds the decision equivalence before every sub-iteration."""

    decisions = 0

    def component_direction(self, name, active, visited):
        self.assert_sets_match_masks(active, visited)
        chosen = super().component_direction(name, active, visited)
        state = self.ctx.class_state
        measured = state.measure(active.mask, visited.mask)
        assert chosen == choose_component_direction(name, measured, self.config)
        self.decisions += 1
        return chosen


def checking(cls):
    return type(f"Checking{cls.__name__}", (Checking, cls), {})


# ----------------------------------------------------------------------
# the golden graph, seven engine configs
# ----------------------------------------------------------------------

FIFTEEND_CONFIGS = {
    "default": {},
    "whole_iteration": {"sub_iteration_direction": False},
    "eager_reduction": {"delayed_reduction": False},
}


@pytest.fixture(scope="module")
def system():
    return build_system()


@pytest.mark.parametrize("name", FIFTEEND_CONFIGS)
def test_fifteend_sets_match_masks(system, name):
    *_, machine, part, root = system
    config = BFSConfig(e_threshold=E_THR, h_threshold=H_THR, **FIFTEEND_CONFIGS[name])
    engine = CheckingBFS(part, machine=machine, config=config)
    result = engine.run(root)
    plain = DistributedBFS(part, machine=machine, config=config).run(root)
    assert np.array_equal(result.parent, plain.parent)
    assert engine.checks > 4 * result.num_iterations
    assert (engine.decisions > 0) == config.sub_iteration_direction


@pytest.mark.parametrize("cls", [OneDimBFS, DelegatedOneDimBFS, TwoDimBFS])
def test_baseline_sets_match_masks(system, cls):
    src, dst, n, mesh, machine, _, root = system
    engine = checking(cls)(src, dst, n, mesh, machine=machine)
    result = engine.run(root)
    assert np.array_equal(
        result.parent, cls(src, dst, n, mesh, machine=machine).run(root).parent
    )
    assert engine.checks > 4 * result.num_iterations


def test_replay_sets_match_masks(system):
    *_, machine, part, root = system
    engine = checking(ReplayBFS)(part, machine=machine)
    result = engine.run(root)
    assert engine.checks > 4 * result.num_iterations
    assert np.array_equal(
        result.parent >= 0, DistributedBFS(part, machine=machine).run(root).parent >= 0
    )


# ----------------------------------------------------------------------
# the ring and the degenerate graphs
# ----------------------------------------------------------------------


def checked_run(src, dst, n, mesh, root, e_thr, h_thr):
    part = partition_graph(src, dst, n, mesh, e_threshold=e_thr, h_threshold=h_thr)
    engine = CheckingBFS(part, config=BFSConfig(e_threshold=e_thr, h_threshold=h_thr))
    result = engine.run(root)
    assert engine.checks > 0
    return part, result


def test_ring_every_level_is_a_sparse_push():
    n = 256
    src, dst = ring_lattice_edges(n, neighbors=2)
    part, result = checked_run(src, dst, n, ProcessMesh(2, 2), 0, 64, 4)
    assert part.num_h == n  # every vertex is heavy: EH2EH only, E and L empty
    assert result.num_visited == n
    assert all(rec.frontier_size <= 4 for rec in result.iterations)


@pytest.mark.parametrize(
    "e_thr, h_thr, empty",
    [(10**6, 16, "E"), (16, 16, "H"), (10**6, 10**6, "EH")],
)
def test_empty_classes(system, e_thr, h_thr, empty):
    src, dst, n, mesh, _, _, root = system
    part, result = checked_run(src, dst, n, mesh, root, e_thr, h_thr)
    assert part.class_sizes()[empty] == 0
    assert result.num_visited > 1


def test_isolated_root(system):
    src, dst, n, mesh, _, part, _ = system
    root = int(np.flatnonzero(part.degrees == 0)[0])
    _, result = checked_run(src, dst, n, mesh, root, E_THR, H_THR)
    assert result.num_visited == 1


@pytest.mark.parametrize("rows, cols, n", [(1, 1, 64), (3, 3, 5)])
def test_degenerate_meshes(rows, cols, n):
    """A 1x1 mesh, and a mesh with more ranks than vertices."""
    src = np.arange(n - 1, dtype=np.int64)
    dst = src + 1
    src, dst = np.append(src, 0), np.append(dst, n // 2)
    _, result = checked_run(src, dst, n, ProcessMesh(rows, cols), 0, 8, 3)
    assert result.num_visited == n


# ----------------------------------------------------------------------
# resumes: sets rebuilt from masks
# ----------------------------------------------------------------------


def test_resume_from_every_checkpoint(system):
    *_, mesh, machine, part, root = system
    config = BFSConfig(e_threshold=E_THR, h_threshold=H_THR)
    store = LevelCheckpointer(every=1, mesh=mesh, keep=10**6)
    full = DistributedBFS(part, machine=machine, config=config).run(
        root, checkpointer=store
    )
    assert len(store.snapshots) == full.num_iterations
    for snap in store.snapshots:
        engine = CheckingBFS(part, machine=machine, config=config)
        resumed = engine.run(root, resume=snap)
        assert np.array_equal(resumed.parent, full.parent)
        assert resumed.iterations == full.iterations
        assert engine.checks > 0 or snap.iteration == full.num_iterations - 1


def test_patch_resume():
    """A ``dynamic/patch.py`` resume: the checkpoint is derived from the
    old result's level prefix, never captured from live sets."""
    n = 20
    config = BFSConfig(e_threshold=8, h_threshold=4)
    inc = IncrementalGraph(
        np.arange(n - 1, dtype=np.int64), np.arange(1, n, dtype=np.int64), n,
        ProcessMesh(2, 2), e_threshold=8, h_threshold=4,
    )
    old = DistributedBFS(inc.graph(), config=config).run(0)
    report = inc.apply_batch(
        UpdateBatch(
            src=np.array([10]), dst=np.array([19]), op=np.array([1], dtype=np.int8)
        )
    )
    engine = CheckingBFS(inc.graph(), config=config)
    outcome = patch_bfs_result(old, engine, report.delta)
    assert outcome.mode == "patched" and engine.checks > 0
    fresh = DistributedBFS(inc.rebuild_reference(), config=config).run(0)
    assert np.array_equal(outcome.result.parent, fresh.parent)


# ----------------------------------------------------------------------
# per-run state lives on the run's sets, never on the engine
# ----------------------------------------------------------------------


def engine_attributes(engine):
    """Identity of every attribute of the host, its kernels, their
    shared context and their components."""
    objects = {"host": engine, "ctx": engine.ctx}
    for name, kernel in engine.kernels.items():
        objects[f"kernel.{name}"] = kernel
        objects[f"comp.{name}"] = kernel.comp
    return {
        (where, attr): id(value)
        for where, obj in objects.items()
        for attr, value in vars(obj).items()
    }


def test_run_writes_nothing_on_the_engine(system):
    *_, machine, part, root = system
    engine = DistributedBFS(part, machine=machine)
    before = engine_attributes(engine)
    engine.run(root)
    assert engine_attributes(engine) == before


def test_two_threads_share_one_engine(system):
    *_, machine, part, _ = system
    engine = DistributedBFS(part, machine=machine)
    roots = [int(r) for r in np.flatnonzero(part.degrees > 0)[:8]]
    expected = {r: engine.run(r) for r in roots}
    got, errors = {}, []

    def worker(mine):
        try:
            for _ in range(3):
                for r in mine:
                    got[r] = engine.run(r)
        except Exception as exc:  # surfaced below, with the traceback
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(roots[i::2],)) for i in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert not errors, errors
    for r in roots:
        assert np.array_equal(got[r].parent, expected[r].parent)
        assert got[r].total_seconds == expected[r].total_seconds
        assert got[r].iterations == expected[r].iterations

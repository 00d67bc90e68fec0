"""Tests for the baseline BFS engines (1D, 1D+delegates, 2D)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import DelegatedOneDimBFS, OneDimBFS, TwoDimBFS
from repro.core.kernels.base import MESSAGE_BYTES
from repro.graph500.rmat import generate_edges
from repro.graph500.reference import bfs_levels_from_parents, serial_bfs
from repro.graph500.validate import validate_bfs_result
from repro.graphs.csr import build_csr, symmetrize_edges
from repro.machine.costmodel import CollectiveKind
from repro.machine.network import MachineSpec
from repro.runtime.mesh import ProcessMesh

from helpers import random_edge_list

ALL_ENGINES = [OneDimBFS, DelegatedOneDimBFS, TwoDimBFS]


def setup(scale=11, rows=2, cols=2, seed=1):
    src, dst = generate_edges(scale, seed=seed)
    n = 1 << scale
    machine = MachineSpec(num_nodes=rows * cols, nodes_per_supernode=cols)
    mesh = ProcessMesh(rows, cols, machine=machine)
    graph = build_csr(*symmetrize_edges(src, dst), n)
    return src, dst, n, mesh, machine, graph


class TestCorrectness:
    @pytest.mark.parametrize("engine_cls", ALL_ENGINES)
    def test_levels_match_reference(self, engine_cls):
        src, dst, n, mesh, machine, graph = setup()
        engine = engine_cls(src, dst, n, mesh, machine=machine)
        root = int(np.argmax(graph.degrees))
        res = engine.run(root)
        validate_bfs_result(graph, root, res.parent)
        ref = bfs_levels_from_parents(graph, root, serial_bfs(graph, root))
        got = bfs_levels_from_parents(graph, root, res.parent)
        assert np.array_equal(ref, got)

    @pytest.mark.parametrize("engine_cls", ALL_ENGINES)
    def test_multiple_roots(self, engine_cls):
        src, dst, n, mesh, machine, graph = setup(scale=10)
        engine = engine_cls(src, dst, n, mesh, machine=machine)
        rng = np.random.default_rng(0)
        for root in rng.choice(np.flatnonzero(graph.degrees > 0), 3, replace=False):
            res = engine.run(int(root))
            validate_bfs_result(graph, int(root), res.parent)

    @pytest.mark.parametrize("engine_cls", ALL_ENGINES)
    def test_root_out_of_range(self, engine_cls):
        src, dst, n, mesh, machine, _ = setup(scale=8)
        engine = engine_cls(src, dst, n, mesh, machine=machine)
        with pytest.raises(ValueError, match="root"):
            engine.run(n)

    @pytest.mark.parametrize("engine_cls", ALL_ENGINES)
    def test_single_rank(self, engine_cls):
        src, dst, n, _, _, graph = setup(scale=9)
        mesh = ProcessMesh(1, 1)
        engine = engine_cls(src, dst, n, mesh)
        res = engine.run(int(np.argmax(graph.degrees)))
        validate_bfs_result(graph, res.root, res.parent)


class TestSchemeProperties:
    def test_vanilla_1d_arcs_at_source_owner(self):
        src, dst, n, mesh, machine, _ = setup()
        engine = OneDimBFS(src, dst, n, mesh, machine=machine)
        s, _, r = engine.components["ALL"].arcs()
        assert np.all(r == mesh.owner_of(s, n))

    def test_delegated_component_split_covers_arcs(self):
        src, dst, n, mesh, machine, _ = setup()
        engine = DelegatedOneDimBFS(src, dst, n, mesh, machine=machine)
        total = sum(c.num_arcs for c in engine.components.values())
        a_src, _ = symmetrize_edges(src, dst)
        assert total == a_src.size
        assert engine.num_heavy > 0

    def test_delegated_heavy_threshold_rule(self):
        # The degree of the 0.1%-quantile vertex (at least 2) delegates.
        src, dst, n, mesh, machine, _ = setup()
        engine = DelegatedOneDimBFS(src, dst, n, mesh, machine=machine)
        k = max(1, n // 1000)
        want = max(int(np.sort(engine.degrees)[::-1][k]), 2)
        assert engine.heavy_threshold == want
        assert np.all(engine.degrees[engine.heavy_mask] >= want)
        assert np.all(engine.degrees[~engine.heavy_mask] < want)

    def test_2d_placement(self):
        src, dst, n, mesh, machine, _ = setup()
        engine = TwoDimBFS(src, dst, n, mesh, machine=machine)
        s, d, r = engine.components["2D"].arcs()
        o_s = mesh.owner_of(s, n)
        o_d = mesh.owner_of(d, n)
        assert np.all(mesh.col_of(r) == mesh.col_of(o_s))
        assert np.all(mesh.row_of(r) == mesh.row_of(o_d))

    def test_2d_has_no_alltoallv(self):
        """2D needs no per-edge messages (paper §2.1.1)."""
        src, dst, n, mesh, machine, graph = setup()
        engine = TwoDimBFS(src, dst, n, mesh, machine=machine)
        res = engine.run(int(np.argmax(graph.degrees)))
        kinds = set(res.ledger.comm_seconds_by_kind())
        assert CollectiveKind.ALLTOALLV not in kinds

    def test_vanilla_1d_messages_per_frontier_arc(self):
        src, dst, n, mesh, machine, graph = setup()
        engine = OneDimBFS(src, dst, n, mesh, machine=machine)
        res = engine.run(int(np.argmax(graph.degrees)))
        assert CollectiveKind.ALLTOALLV in res.ledger.comm_seconds_by_kind()

    @pytest.mark.parametrize("engine_cls", [OneDimBFS, DelegatedOneDimBFS])
    def test_recorded_messages_are_the_alltoallv_bytes(self, engine_cls):
        """Every remote frontier arc is one message of the global
        alltoallv, and the iteration records count each one."""
        src, dst, n, mesh, machine, graph = setup(scale=10)
        engine = engine_cls(src, dst, n, mesh, machine=machine)
        res = engine.run(int(np.argmax(graph.degrees)))
        sent = sum(sum(it.messages.values()) for it in res.iterations)
        assert sent > 0
        assert sent * MESSAGE_BYTES == (
            res.ledger.bytes_by_kind()[CollectiveKind.ALLTOALLV]
        )

    def test_delegates_message_less_than_vanilla(self):
        """Heavy delegation removes the heavy-endpoint messages."""
        src, dst, n, mesh, machine, graph = setup(scale=12)
        root = int(np.argmax(graph.degrees))
        vanilla = OneDimBFS(src, dst, n, mesh, machine=machine).run(root)
        delegated = DelegatedOneDimBFS(src, dst, n, mesh, machine=machine).run(root)
        bytes_v = vanilla.ledger.bytes_by_kind().get(CollectiveKind.ALLTOALLV, 0.0)
        bytes_d = delegated.ledger.bytes_by_kind().get(CollectiveKind.ALLTOALLV, 0.0)
        assert bytes_d < bytes_v

    def test_delegated_faster_than_vanilla(self):
        src, dst, n, mesh, machine, graph = setup(scale=12)
        root = int(np.argmax(graph.degrees))
        machine = machine.scaled_for(src.size / mesh.num_ranks)
        t_v = OneDimBFS(src, dst, n, mesh, machine=machine).run(root).total_seconds
        t_d = DelegatedOneDimBFS(src, dst, n, mesh, machine=machine).run(
            root
        ).total_seconds
        assert t_d < t_v

    @pytest.mark.parametrize("engine_cls", ALL_ENGINES)
    def test_kernels_run_single_source_bfs_only(self, engine_cls):
        """Baseline kernels share the 1.5D push/pull skeleton but not
        its lane or vertex-program commits."""
        src, dst, n, mesh, machine, _ = setup(scale=8)
        engine = engine_cls(src, dst, n, mesh, machine=machine)
        for kernel in engine.kernels.values():
            assert not kernel.supports_lanes
            assert not kernel.supports_programs

    def test_vanilla_1d_load_imbalance_visible(self):
        """Heavy vertices concentrate arcs on single ranks in 1D."""
        src, dst, n, mesh, machine, _ = setup(scale=12, rows=4, cols=4)
        engine = OneDimBFS(src, dst, n, mesh, machine=machine)
        loads = engine.components["ALL"].arcs_per_rank
        assert loads.max() > 1.5 * loads.mean()


@given(
    seed=st.integers(0, 200),
    n=st.integers(1, 150),
    shape=st.sampled_from([(2, 2), (1, 1), (1, 3), (2, 3)]),
)
@settings(max_examples=40, deadline=None)
def test_property_all_engines_agree(seed, n, shape):
    # n need not be a power of two nor fill the mesh's blocks (a rank may
    # own no vertex at all), and the mesh may be a single rank or row.
    src, dst = random_edge_list(n, 3 * n, seed=seed)
    mesh = ProcessMesh(*shape)
    graph = build_csr(*symmetrize_edges(src, dst), n)
    root = seed % n
    ref = bfs_levels_from_parents(graph, root, serial_bfs(graph, root))
    for cls in ALL_ENGINES:
        engine = cls(src, dst, n, mesh)
        res = engine.run(root)
        validate_bfs_result(graph, root, res.parent)
        got = bfs_levels_from_parents(graph, root, res.parent)
        assert np.array_equal(ref, got), (cls.scheme, shape)

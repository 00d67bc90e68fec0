"""Tests for SSSP and PageRank on the 1.5D partitioning (paper §8)."""

import numpy as np
import pytest

from repro.core.programs import generate_weights
from repro.core.partition import partition_graph
from repro.graph500.rmat import generate_edges
from repro.graphs.csr import build_csr, symmetrize_edges
from repro.runtime.mesh import ProcessMesh

from helpers import run_program


def make_part(scale=10, rows=2, cols=2, seed=1, e_thr=128, h_thr=16):
    src, dst = generate_edges(scale, seed=seed)
    mesh = ProcessMesh(rows, cols)
    part = partition_graph(
        src, dst, 1 << scale, mesh, e_threshold=e_thr, h_threshold=h_thr
    )
    return part, src, dst


def nx_shortest_paths(n, src, dst, weights, root):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    for u, v, w in zip(src.tolist(), dst.tolist(), weights.tolist()):
        if u == v:
            continue
        if g.has_edge(u, v):
            g[u][v]["weight"] = min(g[u][v]["weight"], w)
        else:
            g.add_edge(u, v, weight=w)

    out = np.full(n, np.inf)
    lengths = nx.single_source_dijkstra_path_length(g, root)
    for v, d in lengths.items():
        out[v] = d
    return out


class TestSSSP:
    def test_unit_weights_equal_bfs_depth(self):
        from repro.graph500.reference import bfs_levels_from_parents, serial_bfs

        part, src, dst = make_part()
        graph = build_csr(*symmetrize_edges(src, dst), part.num_vertices)
        root = int(np.argmax(graph.degrees))
        res = run_program("sssp", part, root=root)
        levels = bfs_levels_from_parents(graph, root, serial_bfs(graph, root))
        reach = levels >= 0
        distance = res.state["distance"]
        assert np.allclose(distance[reach], levels[reach])
        assert np.all(np.isinf(distance[~reach]))

    def test_weighted_matches_dijkstra(self):
        part, src, dst = make_part(scale=9)
        w = generate_weights(src.size, seed=5)
        root = 0
        res = run_program(
            "sssp", part, root=root, weights=w, edge_src=src, edge_dst=dst
        )
        expect = nx_shortest_paths(part.num_vertices, src, dst, w, root)
        finite = np.isfinite(expect)
        distance = res.state["distance"]
        assert np.allclose(distance[finite], expect[finite], atol=1e-9)
        assert np.array_equal(np.isfinite(distance), finite)

    def test_parents_consistent_with_distances(self):
        part, src, dst = make_part(scale=9, seed=3)
        w = generate_weights(src.size, seed=6)
        res = run_program(
            "sssp", part, root=1, weights=w, edge_src=src, edge_dst=dst
        )
        distance, parent = res.state["distance"], res.state["parent"]
        reached = np.isfinite(distance)
        v = np.flatnonzero(reached & (np.arange(part.num_vertices) != 1))
        assert np.all(parent[v] >= 0)
        # parent distance strictly smaller
        assert np.all(distance[parent[v]] < distance[v] + 1e-12)

    def test_ledger_charged(self):
        part, _, _ = make_part()
        res = run_program("sssp", part, root=0)
        assert res.total_seconds > 0
        assert res.info["relaxations"] > 0
        assert res.gteps() > 0

    def test_invalid_root(self):
        part, _, _ = make_part()
        with pytest.raises(ValueError, match="root"):
            run_program("sssp", part, root=-1)

    def test_negative_weights_rejected(self):
        part, src, dst = make_part()
        with pytest.raises(ValueError, match="nonnegative"):
            run_program(
                "sssp", part, root=0, weights=-np.ones(src.size),
                edge_src=src, edge_dst=dst,
            )

    def test_weights_need_edges(self):
        part, src, _ = make_part()
        with pytest.raises(ValueError, match="edge_src"):
            run_program("sssp", part, root=0, weights=np.ones(src.size))


class TestPageRank:
    def test_matches_networkx(self):
        import networkx as nx

        part, src, dst = make_part(scale=9)
        res = run_program("pagerank", part, tol=1e-12)
        assert res.converged

        g = nx.MultiGraph()
        g.add_nodes_from(range(part.num_vertices))
        keep = src != dst
        g.add_edges_from(zip(src[keep].tolist(), dst[keep].tolist()))
        expect = nx.pagerank(nx.Graph(g) if False else g, alpha=0.85, tol=1e-12, max_iter=500)
        got = res.state["ranks"]
        want = np.array([expect[i] for i in range(part.num_vertices)])
        assert np.allclose(got, want, atol=1e-6)

    def test_ranks_are_distribution(self):
        part, _, _ = make_part(seed=4)
        ranks = run_program("pagerank", part).state["ranks"]
        assert ranks.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(ranks > 0)

    def test_hubs_rank_higher(self):
        part, _, _ = make_part()
        ranks = run_program("pagerank", part).state["ranks"]
        hub = int(np.argmax(part.degrees))
        leaf_candidates = np.flatnonzero(part.degrees == 1)
        if leaf_candidates.size:
            assert ranks[hub] > ranks[int(leaf_candidates[0])]

    def test_invalid_damping(self):
        part, _, _ = make_part()
        with pytest.raises(ValueError, match="damping"):
            run_program("pagerank", part, damping=1.5)

    def test_iteration_cap(self):
        part, _, _ = make_part()
        res = run_program("pagerank", part, tol=0.0, max_iterations=3)
        assert res.num_iterations == 3
        assert not res.converged

    def test_ledger_charged_per_iteration(self):
        part, _, _ = make_part()
        short = run_program("pagerank", part, tol=0.0, max_iterations=2)
        longer = run_program("pagerank", part, tol=0.0, max_iterations=6)
        assert longer.total_seconds > short.total_seconds

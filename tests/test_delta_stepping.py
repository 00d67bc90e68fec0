"""Tests for delta-stepping SSSP."""

import numpy as np
import pytest

from repro.core import generate_weights, suggest_delta
from repro.core.partition import partition_graph
from repro.graph500.rmat import generate_edges
from repro.runtime.mesh import ProcessMesh

from helpers import random_edge_list, run_program


def make_part(scale=9, rows=2, cols=2, seed=1):
    src, dst = generate_edges(scale, seed=seed)
    mesh = ProcessMesh(rows, cols)
    part = partition_graph(src, dst, 1 << scale, mesh, e_threshold=64, h_threshold=8)
    return part, src, dst


def delta_stepping(part, root, w, src, dst, **params):
    return run_program(
        "sssp-delta", part, root=root, weights=w, edge_src=src, edge_dst=dst,
        **params,
    )


def dijkstra_reference(n, src, dst, weights, root):
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
    for v, d in nx.single_source_dijkstra_path_length(g, root).items():
        out[v] = d
    return out


class TestCorrectness:
    def test_matches_dijkstra(self):
        part, src, dst = make_part()
        w = generate_weights(src.size, seed=4)
        root = 0
        res = delta_stepping(part, root, w, src, dst)
        expect = dijkstra_reference(part.num_vertices, src, dst, w, root)
        finite = np.isfinite(expect)
        assert np.array_equal(np.isfinite(res.state["distance"]), finite)
        assert np.allclose(res.state["distance"][finite], expect[finite], atol=1e-9)

    def test_matches_bellman_ford_engine(self):
        part, src, dst = make_part(seed=2)
        w = generate_weights(src.size, seed=5)
        root = 7
        ds = delta_stepping(part, root, w, src, dst).state["distance"]
        bf = run_program(
            "sssp", part, root=root, weights=w, edge_src=src, edge_dst=dst
        ).state["distance"]
        finite = np.isfinite(bf)
        assert np.allclose(ds[finite], bf[finite], atol=1e-9)

    def test_various_deltas_agree(self):
        part, src, dst = make_part()
        w = generate_weights(src.size, seed=6)
        results = [
            delta_stepping(part, 3, w, src, dst, delta=d).state["distance"]
            for d in (0.01, 0.1, 1.0)
        ]
        for r in results[1:]:
            finite = np.isfinite(results[0])
            assert np.allclose(r[finite], results[0][finite], atol=1e-9)

    def test_parents_form_shortest_path_tree(self):
        part, src, dst = make_part(seed=3)
        w = generate_weights(src.size, seed=7)
        res = delta_stepping(part, 1, w, src, dst)
        distance, parent = res.state["distance"], res.state["parent"]
        reached = np.isfinite(distance)
        v = np.flatnonzero(reached & (np.arange(part.num_vertices) != 1))
        assert np.all(parent[v] >= 0)
        assert np.all(distance[parent[v]] <= distance[v] + 1e-12)

    def test_unit_weights_equal_bfs_levels(self):
        from repro.graph500.reference import bfs_levels_from_parents, serial_bfs
        from repro.graphs.csr import build_csr, symmetrize_edges

        part, src, dst = make_part()
        w = np.ones(src.size)
        root = int(np.argmax(part.degrees))
        res = delta_stepping(part, root, w, src, dst, delta=0.5)
        g = build_csr(*symmetrize_edges(src, dst), part.num_vertices)
        levels = bfs_levels_from_parents(g, root, serial_bfs(g, root))
        reach = levels >= 0
        assert np.allclose(res.state["distance"][reach], levels[reach])

    def test_random_graphs(self):
        for seed in range(3):
            n = 64
            src, dst = random_edge_list(n, 300, seed=seed)
            mesh = ProcessMesh(2, 2)
            part = partition_graph(src, dst, n, mesh, e_threshold=16, h_threshold=4)
            w = generate_weights(src.size, seed=seed + 10)
            res = delta_stepping(part, seed % n, w, src, dst)
            expect = dijkstra_reference(n, src, dst, w, seed % n)
            finite = np.isfinite(expect)
            assert np.allclose(res.state["distance"][finite], expect[finite], atol=1e-9)


class TestBehaviour:
    def test_bucket_count_scales_inverse_delta(self):
        part, src, dst = make_part()
        w = generate_weights(src.size, seed=8)
        small = delta_stepping(part, 0, w, src, dst, delta=0.02)
        large = delta_stepping(part, 0, w, src, dst, delta=0.5)
        assert small.info["num_buckets"] > large.info["num_buckets"]

    def test_suggest_delta_positive(self):
        part, src, dst = make_part()
        w = generate_weights(src.size)
        d = suggest_delta(w, part.degrees)
        assert d > 0

    def test_ledger_charged(self):
        part, src, dst = make_part()
        w = generate_weights(src.size, seed=9)
        res = delta_stepping(part, 0, w, src, dst)
        assert res.total_seconds > 0
        assert res.info["relaxations"] > 0
        assert res.num_iterations >= res.info["num_buckets"]

    def test_validation(self):
        part, src, dst = make_part()
        w = generate_weights(src.size)
        with pytest.raises(ValueError, match="root"):
            delta_stepping(part, -1, w, src, dst)
        with pytest.raises(ValueError, match="nonnegative"):
            delta_stepping(part, 0, -w, src, dst)
        with pytest.raises(ValueError, match="delta"):
            delta_stepping(part, 0, w, src, dst, delta=0.0)
        with pytest.raises(ValueError, match="align"):
            delta_stepping(part, 0, w[:-1], src, dst)

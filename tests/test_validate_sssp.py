"""Tests for the SSSP optimality-certificate validator."""

import numpy as np
import pytest

from repro.core import generate_weights
from repro.core.partition import partition_graph
from repro.graph500.rmat import generate_edges
from repro.graph500.validate import ValidationError
from repro.graph500.validate_sssp import validate_sssp_result
from repro.runtime.mesh import ProcessMesh

from helpers import run_program


@pytest.fixture(scope="module")
def solved():
    scale = 9
    src, dst = generate_edges(scale, seed=1)
    n = 1 << scale
    mesh = ProcessMesh(2, 2)
    part = partition_graph(src, dst, n, mesh, e_threshold=64, h_threshold=8)
    w = generate_weights(src.size, seed=3)
    root = int(np.argmax(part.degrees))
    res = run_program(
        "sssp-delta", part, root=root, weights=w, edge_src=src, edge_dst=dst
    )
    return n, src, dst, w, root, res


class TestAcceptsValid:
    def test_delta_stepping_output_validates(self, solved):
        n, src, dst, w, root, res = solved
        validate_sssp_result(
            n, src, dst, w, root, res.state["distance"], res.state["parent"]
        )

    def test_bellman_ford_output_validates(self, solved):
        n, src, dst, w, root, _ = solved
        mesh = ProcessMesh(2, 2)
        part = partition_graph(src, dst, n, mesh, e_threshold=64, h_threshold=8)
        res = run_program(
            "sssp", part, root=root, weights=w, edge_src=src, edge_dst=dst
        )
        validate_sssp_result(
            n, src, dst, w, root, res.state["distance"], res.state["parent"]
        )

    def test_trivial_graph(self):
        src = np.array([0])
        dst = np.array([1])
        w = np.array([0.5])
        dist = np.array([0.0, 0.5, np.inf])
        parent = np.array([0, 0, -1])
        validate_sssp_result(3, src, dst, w, 0, dist, parent)


class TestRejectsCorruptions:
    def test_wrong_root_distance(self, solved):
        n, src, dst, w, root, res = solved
        d = res.state["distance"].copy()
        d[root] = 1.0
        with pytest.raises(ValidationError, match="root distance"):
            validate_sssp_result(n, src, dst, w, root, d, res.state["parent"])

    def test_relaxable_edge(self, solved):
        n, src, dst, w, root, res = solved
        d = res.state["distance"].copy()
        # inflate one reached non-root vertex's distance
        v = int(np.flatnonzero(np.isfinite(d) & (np.arange(n) != root))[0])
        d[v] += 10.0
        with pytest.raises(ValidationError):
            validate_sssp_result(n, src, dst, w, root, d, res.state["parent"])

    def test_fabricated_shorter_distance(self, solved):
        n, src, dst, w, root, res = solved
        d = res.state["distance"].copy()
        reached = np.flatnonzero(np.isfinite(d) & (d > 0.2))
        v = int(reached[0])
        d[v] -= 0.1
        with pytest.raises(ValidationError):
            validate_sssp_result(n, src, dst, w, root, d, res.state["parent"])

    def test_bogus_parent_edge(self, solved):
        n, src, dst, w, root, res = solved
        p = res.state["parent"].copy()
        d = res.state["distance"]
        # point a vertex's parent at a non-neighbor with matching rule-2
        reached = np.flatnonzero(np.isfinite(d) & (np.arange(n) != root))
        v = int(reached[5])
        p[v] = root if p[v] != root else int(reached[0])
        with pytest.raises(ValidationError):
            validate_sssp_result(n, src, dst, w, root, d, p)

    def test_unreached_marked_reached(self, solved):
        n, src, dst, w, root, res = solved
        d = res.state["distance"].copy()
        p = res.state["parent"].copy()
        unreached = np.flatnonzero(~np.isfinite(d))
        if unreached.size == 0:
            pytest.skip("graph fully reachable from this root")
        v = int(unreached[0])
        d[v] = 1.0
        p[v] = root
        with pytest.raises(ValidationError):
            validate_sssp_result(n, src, dst, w, root, d, p)

    def test_zero_weight_cycle_component(self):
        """A self-consistent unreachable component must be caught by the
        forest check."""
        src = np.array([0, 2])
        dst = np.array([1, 3])
        w = np.array([1.0, 0.0])
        dist = np.array([0.0, 1.0, 5.0, 5.0])
        parent = np.array([0, 0, 3, 2])  # 2 <-> 3 cycle, zero-weight edge
        with pytest.raises(ValidationError, match="cycle"):
            validate_sssp_result(4, src, dst, w, 0, dist, parent)

    def test_negative_weights_rejected(self, solved):
        n, src, dst, w, root, res = solved
        with pytest.raises(ValidationError, match="nonnegative"):
            validate_sssp_result(
                n, src, dst, -w, root, res.state["distance"], res.state["parent"]
            )

    def test_shape_mismatch(self, solved):
        n, src, dst, w, root, res = solved
        with pytest.raises(ValidationError, match="shape"):
            validate_sssp_result(
                n, src, dst, w, root, res.state["distance"][:-1],
                res.state["parent"],
            )


class TestSSSPDriver:
    def test_run_graph500_sssp(self):
        from repro.graph500.driver import run_graph500_sssp

        report = run_graph500_sssp(10, 2, 2, seed=1, num_roots=3)
        assert report.validated
        assert report.roots.size == 3
        assert report.mean_gteps > 0
        assert "harmonic_mean_TEPS" in report.render()

    def test_bellman_ford_variant(self):
        from repro.graph500.driver import run_graph500_sssp

        report = run_graph500_sssp(
            9, 2, 2, seed=1, num_roots=2, algorithm="sssp"
        )
        assert report.validated

    def test_unknown_algorithm(self):
        from repro.graph500.driver import run_graph500_sssp

        with pytest.raises(ValueError, match="algorithm"):
            run_graph500_sssp(9, 2, 2, algorithm="dijkstra")

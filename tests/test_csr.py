"""Unit and property tests for repro.graphs.csr."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.csr import CSRGraph, build_csr, symmetrize_edges

from helpers import random_edge_list


class TestSymmetrize:
    def test_doubles_arcs(self):
        src = np.array([0, 1, 2])
        dst = np.array([1, 2, 3])
        a_src, a_dst = symmetrize_edges(src, dst)
        assert a_src.size == 6
        pairs = set(zip(a_src.tolist(), a_dst.tolist()))
        assert (0, 1) in pairs and (1, 0) in pairs

    def test_drops_self_loops_by_default(self):
        a_src, a_dst = symmetrize_edges(np.array([3, 1]), np.array([3, 2]))
        assert a_src.size == 2
        assert not np.any(a_src == a_dst)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            symmetrize_edges(np.array([0, 1]), np.array([1]))


class TestBuildCSR:
    def test_simple_triangle(self):
        src, dst = symmetrize_edges(np.array([0, 1, 2]), np.array([1, 2, 0]))
        g = build_csr(src, dst, 3)
        assert g.num_arcs == 6
        assert sorted(g.neighbors(0).tolist()) == [1, 2]
        assert sorted(g.neighbors(1).tolist()) == [0, 2]

    def test_degrees(self):
        src, dst = symmetrize_edges(np.array([0, 0, 0]), np.array([1, 2, 3]))
        g = build_csr(src, dst, 4)
        assert g.degrees.tolist() == [3, 1, 1, 1]

    def test_empty_graph(self):
        g = build_csr(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 5)
        assert g.num_arcs == 0
        assert g.neighbors(2).size == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            build_csr(np.array([0]), np.array([7]), 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            build_csr(np.array([-1]), np.array([0]), 3)

    def test_duplicate_arcs_preserved(self):
        g = build_csr(np.array([0, 0]), np.array([1, 1]), 2)
        assert g.neighbors(0).tolist() == [1, 1]

    def test_arcs_roundtrip(self):
        src, dst = random_edge_list(20, 100, seed=3)
        g = build_csr(src, dst, 20)
        r_src, r_dst = g.arcs()
        orig = sorted(zip(src.tolist(), dst.tolist()))
        back = sorted(zip(r_src.tolist(), r_dst.tolist()))
        assert orig == back

    def test_indptr_validation(self):
        with pytest.raises(ValueError):
            CSRGraph(
                num_vertices=2,
                indptr=np.array([0, 1], dtype=np.int64),
                indices=np.array([1], dtype=np.int64),
            )


@given(
    n=st.integers(min_value=1, max_value=40),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_csr_preserves_multiset_of_arcs(n, data):
    m = data.draw(st.integers(min_value=0, max_value=120))
    src = np.array(
        data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)),
        dtype=np.int64,
    )
    dst = np.array(
        data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)),
        dtype=np.int64,
    )
    g = build_csr(src, dst, n)
    # property: indptr is monotone and degrees sum to arc count
    assert np.all(np.diff(g.indptr) >= 0)
    assert int(g.degrees.sum()) == m
    r_src, r_dst = g.arcs()
    assert sorted(zip(r_src.tolist(), r_dst.tolist())) == sorted(
        zip(src.tolist(), dst.tolist())
    )

"""Tests for the Graph500 R-MAT generator."""

import numpy as np
import pytest

from repro.graph500.rmat import (
    RMAT_CHUNK_EDGES,
    generate_edges,
    rmat_edges,
    scramble_vertices,
)
from repro.graph500.spec import Graph500Problem
from repro.graphs.stats import degrees_from_edges


class TestRmatEdges:
    def test_counts_and_range(self):
        src, dst = rmat_edges(10, 5000, seed=1)
        assert src.size == dst.size == 5000
        assert src.min() >= 0 and src.max() < 1024
        assert dst.min() >= 0 and dst.max() < 1024

    def test_deterministic_with_seed(self):
        a = rmat_edges(8, 1000, seed=42)
        b = rmat_edges(8, 1000, seed=42)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_different_seeds_differ(self):
        a = rmat_edges(8, 1000, seed=1)
        b = rmat_edges(8, 1000, seed=2)
        assert not np.array_equal(a[0], b[0])

    def test_chunking_matches_single_shot(self):
        # Chunks draw from one rng in order, so a stream one chunk longer
        # starts with the one-chunk stream of the same seed.
        src_a, dst_a = rmat_edges(10, RMAT_CHUNK_EDGES + 1000, seed=7)
        src_b, dst_b = rmat_edges(10, RMAT_CHUNK_EDGES, seed=7)
        assert np.array_equal(src_a[:RMAT_CHUNK_EDGES], src_b)
        assert np.array_equal(dst_a[:RMAT_CHUNK_EDGES], dst_b)
        assert src_a.max() < 1024 and dst_a.max() < 1024

    def test_zero_edges(self):
        src, dst = rmat_edges(5, 0, seed=0)
        assert src.size == 0 and dst.size == 0

    def test_skewness(self):
        """R-MAT with Graph500 parameters must be heavily skewed."""
        scale = 12
        src, dst = rmat_edges(scale, 16 << scale, seed=3)
        deg = degrees_from_edges(src, dst, 1 << scale)
        # Max degree should dwarf the mean degree (~32).
        assert deg.max() > 20 * deg.mean()

    def test_uniform_probabilities_not_skewed(self):
        scale = 12
        src, dst = rmat_edges(scale, 16 << scale, a=0.25, b=0.25, c=0.25, seed=3)
        deg = degrees_from_edges(src, dst, 1 << scale)
        assert deg.max() < 5 * deg.mean()

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError, match="invalid quadrant"):
            rmat_edges(5, 10, a=0.8, b=0.3, c=0.1, seed=0)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            rmat_edges(0, 10, seed=0)

    def test_rng_and_seed_exclusive(self):
        with pytest.raises(ValueError, match="either rng or seed"):
            rmat_edges(5, 10, rng=np.random.default_rng(0), seed=1)

    def test_quadrant_marginals(self):
        """First-bit marginals must match the quadrant probabilities."""
        a, b, c = 0.57, 0.19, 0.19
        src, dst = rmat_edges(1, 200_000, a=a, b=b, c=c, seed=5)
        # With scale=1 the vertex IDs are exactly the quadrant bits.
        p_src1 = np.mean(src == 1)
        p_dst1 = np.mean(dst == 1)
        assert p_src1 == pytest.approx(1 - (a + b), abs=0.01)
        assert p_dst1 == pytest.approx(b + (1 - a - b - c), abs=0.01)


class TestScramble:
    def test_is_permutation(self):
        src = np.arange(100) % 10
        dst = (np.arange(100) * 3) % 10
        s, d = scramble_vertices(src, dst, 10, seed=1)
        # Degrees are permuted, not changed as a multiset.
        deg_before = degrees_from_edges(src, dst, 10)
        deg_after = degrees_from_edges(s, d, 10)
        assert sorted(deg_before.tolist()) == sorted(deg_after.tolist())

    def test_preserves_structure(self):
        # Scrambling must preserve adjacency up to relabeling: edge
        # multiplicities of endpoint pairs are preserved.
        src = np.array([0, 0, 1])
        dst = np.array([1, 1, 2])
        s, d = scramble_vertices(src, dst, 3, seed=9)
        # the doubled edge stays doubled
        pairs = sorted(zip(np.minimum(s, d).tolist(), np.maximum(s, d).tolist()))
        multiplicities = sorted(pairs.count(p) for p in set(pairs))
        assert multiplicities == [1, 2]


class TestGenerateEdges:
    def test_spec_counts(self):
        src, dst = generate_edges(10, seed=2)
        assert src.size == 16 * 1024

    def test_deterministic(self):
        a = generate_edges(8, seed=5)
        b = generate_edges(8, seed=5)
        assert np.array_equal(a[0], b[0])

    def test_scramble_changes_labels(self):
        # The unscrambled draws of the same seed, then generate_edges'.
        plain = rmat_edges(8, 16 << 8, rng=np.random.default_rng(5))
        mixed = generate_edges(8, seed=5)
        assert not np.array_equal(plain[0], mixed[0])
        # A relabelling only: the degree multiset is kept.
        assert sorted(np.bincount(plain[0], minlength=256)) == sorted(
            np.bincount(mixed[0], minlength=256)
        )


class TestProblem:
    def test_counts(self):
        p = Graph500Problem(scale=20)
        assert p.num_vertices == 1 << 20
        assert p.num_edges == 16 << 20

    def test_gteps(self):
        p = Graph500Problem(scale=30)
        assert p.gteps(1.0) == pytest.approx(p.num_edges / 1e9)

    def test_gteps_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Graph500Problem(scale=10).gteps(0.0)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            Graph500Problem(scale=0)

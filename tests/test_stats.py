"""Tests for repro.graphs.stats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.stats import (
    degree_histogram,
    degree_peaks,
    degrees_from_edges,
    gini_coefficient,
)


class TestDegreesFromEdges:
    def test_simple(self):
        src = np.array([0, 0, 1])
        dst = np.array([1, 2, 2])
        deg = degrees_from_edges(src, dst, 4)
        assert deg.tolist() == [2, 2, 2, 0]

    def test_self_loops_excluded_by_default(self):
        deg = degrees_from_edges(np.array([1]), np.array([1]), 2)
        assert deg.tolist() == [0, 0]

    def test_duplicates_counted(self):
        deg = degrees_from_edges(np.array([0, 0]), np.array([1, 1]), 2)
        assert deg.tolist() == [2, 2]


class TestDegreeHistogram:
    def test_basic(self):
        values, counts = degree_histogram(np.array([1, 1, 2, 5, 0]))
        assert values.tolist() == [1, 2, 5]
        assert counts.tolist() == [2, 1, 1]

    def test_empty(self):
        values, counts = degree_histogram(np.array([0, 0]))
        assert values.size == 0 and counts.size == 0

    def test_counts_sum_to_nonzero_vertices(self):
        rng = np.random.default_rng(0)
        deg = rng.integers(0, 50, size=1000)
        _, counts = degree_histogram(deg)
        assert counts.sum() == np.count_nonzero(deg)


class TestDegreePeaks:
    def test_single_mode(self):
        deg = np.full(1000, 16)
        peaks = degree_peaks(deg)
        assert peaks.size >= 1
        # peak should be within a factor ~2 of the true mode
        assert np.any((peaks >= 8) & (peaks <= 32))

    def test_two_well_separated_modes(self):
        deg = np.concatenate([np.full(1000, 4), np.full(50, 4096)])
        peaks = degree_peaks(deg)
        assert np.any(peaks <= 16)
        assert np.any(peaks >= 1024)

    def test_empty_degrees(self):
        assert degree_peaks(np.array([0, 0, 0])).size == 0


class TestGini:
    def test_uniform_is_zero(self):
        assert gini_coefficient(np.full(10, 7.0)) == pytest.approx(0.0, abs=1e-12)

    def test_concentrated_is_near_one(self):
        v = np.zeros(100)
        v[0] = 1.0
        assert gini_coefficient(v) > 0.95

    def test_empty_and_zero(self):
        assert gini_coefficient(np.array([])) == 0.0
        assert gini_coefficient(np.zeros(5)) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gini_coefficient(np.array([1.0, -1.0]))

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_bounded(self, values):
        g = gini_coefficient(np.array(values))
        assert -1e-9 <= g <= 1.0

    def test_scale_invariant(self):
        v = np.array([1.0, 2.0, 3.0, 10.0])
        assert gini_coefficient(v) == pytest.approx(gini_coefficient(v * 100))

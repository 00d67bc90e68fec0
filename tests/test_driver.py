"""Tests for the official Graph500 benchmark driver."""

import numpy as np
import pytest

from repro.graph500.driver import (
    Graph500Report,
    Graph500Stats,
    harmonic_mean_stats,
    run_graph500,
    run_graph500_sssp,
    sample_roots,
)


class TestSampleRoots:
    def test_only_connected_vertices(self):
        degrees = np.array([0, 3, 0, 1, 5])
        rng = np.random.default_rng(0)
        roots = sample_roots(degrees, 3, rng=rng)
        assert set(roots.tolist()) <= {1, 3, 4}
        assert roots.size == 3

    def test_no_replacement(self):
        degrees = np.array([1, 1, 1])
        rng = np.random.default_rng(0)
        roots = sample_roots(degrees, 64, rng=rng)
        assert sorted(roots.tolist()) == [0, 1, 2]

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="non-isolated"):
            sample_roots(np.zeros(4, dtype=np.int64), 8, rng=np.random.default_rng(0))


class TestNumRootsRejected:
    @pytest.mark.parametrize("driver", [run_graph500, run_graph500_sssp])
    @pytest.mark.parametrize("num_roots", [0, -1])
    def test_raises_before_generation(self, monkeypatch, driver, num_roots):
        def no_generation(*args, **kwargs):
            raise AssertionError("graph generated before num_roots was checked")

        monkeypatch.setattr("repro.graph500.driver.build_setup", no_generation)
        with pytest.raises(ValueError, match="num_roots must be at least 1"):
            driver(10, 2, 2, num_roots=num_roots)


class TestStats:
    def test_quartiles(self):
        s = Graph500Stats.of(np.arange(1.0, 6.0))
        assert s.minimum == 1.0 and s.maximum == 5.0
        assert s.median == 3.0
        assert s.mean == 3.0

    def test_single_sample(self):
        s = Graph500Stats.of(np.array([2.0]))
        assert s.stddev == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Graph500Stats.of(np.array([]))

    def test_harmonic_mean(self):
        hm, err = harmonic_mean_stats(np.array([1.0, 2.0, 4.0]))
        assert hm == pytest.approx(3.0 / (1.0 + 0.5 + 0.25))
        assert err >= 0

    def test_harmonic_mean_constant(self):
        hm, err = harmonic_mean_stats(np.full(8, 7.0))
        assert hm == pytest.approx(7.0)
        assert err == pytest.approx(0.0)

    def test_harmonic_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            harmonic_mean_stats(np.array([1.0, 0.0]))


class TestRunGraph500:
    @pytest.fixture(scope="class")
    def report(self):
        return run_graph500(11, 2, 2, seed=1, num_roots=6)

    def test_report_fields(self, report):
        assert report.problem.scale == 11
        assert report.num_nodes == 4
        assert report.roots.size == 6
        assert report.bfs_times.size == 6
        assert report.construction_seconds > 0

    def test_all_roots_validated(self, report):
        assert report.validated

    def test_teps_consistent(self, report):
        expect = report.problem.num_edges / report.bfs_times
        assert np.allclose(report.teps, expect)

    def test_render_block(self, report):
        block = report.render()
        for key in (
            "SCALE: 11",
            "edgefactor: 16",
            "NBFS: 6",
            "construction_time:",
            "harmonic_mean_TEPS:",
            "validation: PASSED",
        ):
            assert key in block

    def test_mean_gteps_positive(self, report):
        assert report.mean_gteps > 0

    def test_deterministic(self):
        a = run_graph500(10, 2, 2, seed=3, num_roots=3, validate=False)
        b = run_graph500(10, 2, 2, seed=3, num_roots=3, validate=False)
        assert np.array_equal(a.roots, b.roots)
        assert np.allclose(a.bfs_times, b.bfs_times)

    def test_construction_override(self):
        rep = run_graph500(
            10, 2, 2, seed=1, num_roots=2, validate=False,
            construction_seconds=123.0,
        )
        assert rep.construction_seconds == 123.0

    def test_config_overrides_respected(self):
        rep = run_graph500(
            10, 2, 2, seed=1, num_roots=2, validate=False,
            config_overrides=dict(segmenting=False),
        )
        assert rep.mean_gteps > 0

"""Tests for the official Graph500 benchmark driver."""

import numpy as np
import pytest

from repro.core.preprocessing import construction_ledger
from repro.core.setup import build_setup
from repro.graph500.driver import (
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


class TestBatchRootsRejected:
    @pytest.mark.parametrize("option", [
        dict(checkpoint_every=1), dict(recovery_mode="degrade"),
    ])
    def test_raises_before_generation(self, monkeypatch, option):
        def no_generation(*args, **kwargs):
            raise AssertionError("graph generated before batch_roots was checked")

        monkeypatch.setattr("repro.graph500.driver.build_setup", no_generation)
        with pytest.raises(ValueError, match="batch_roots"):
            run_graph500(10, 2, 2, num_roots=2, batch_roots=True, **option)


class TestValidationSkipped:
    @pytest.mark.parametrize("driver", [run_graph500, run_graph500_sssp])
    def test_unvalidated_run_is_neither_passed_nor_failed(self, driver):
        report = driver(10, 2, 2, num_roots=2, validate=False)
        assert report.validated is None
        assert "validation: SKIPPED" in report.render()


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

    def test_construction_is_kernel1_price_of_its_partition(self):
        rep = run_graph500(10, 2, 2, seed=1, num_roots=2, validate=False)
        setup = build_setup(10, 2, 2, seed=1)
        ledger = construction_ledger(setup.partition(), setup.machine)
        assert rep.construction_seconds == ledger.total_seconds

    def test_config_overrides_respected(self):
        rep = run_graph500(
            10, 2, 2, seed=1, num_roots=2, validate=False,
            config_overrides=dict(segmenting=False),
        )
        assert rep.mean_gteps > 0


class TestTwoBatches:
    """More roots than one 64-lane wave holds: two batches, one per-root
    result each, the same roots and parents as the sequential run."""

    def test_batched_matches_per_root(self):
        cfg = dict(seed=1, num_roots=70)
        plain = run_graph500(10, 2, 2, **cfg)
        batched = run_graph500(10, 2, 2, batch_roots=True, **cfg)
        assert plain.roots.size == 70
        assert np.array_equal(plain.roots, batched.roots)
        assert plain.validated is True and batched.validated is True
        assert [r.root for r in batched.results] == plain.roots.tolist()
        for a, b in zip(plain.results, batched.results):
            assert np.array_equal(a.parent, b.parent)
        # Each batch's ledger rides on its first lane only.
        carriers = [i for i, r in enumerate(batched.results) if r.ledger.comm_events]
        assert carriers == [0, 64]


class TestKernel3Report:
    def test_report_carries_per_root_results(self):
        from repro.obs.report import report_from_graph500

        g500 = run_graph500_sssp(10, 2, 2, num_roots=2)
        assert len(g500.results) == 2
        report = report_from_graph500(g500)
        m = report.metrics
        assert m["total_seconds"] == pytest.approx(
            sum(r.total_seconds for r in g500.results))
        assert m["total_bytes"] == pytest.approx(
            sum(r.ledger.total_bytes for r in g500.results))
        assert m["iterations"] == sum(r.num_iterations for r in g500.results)
        assert set(report.breakdowns) == {
            "seconds_by_phase", "comm_seconds_by_kind", "bytes_by_kind",
            "time_by_category",
        }

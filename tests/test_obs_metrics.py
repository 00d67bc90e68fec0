"""Tests for the metrics registry, exporters, and RunReport artifacts.

The parity class is the load-bearing one: for every golden engine
configuration (the three 1.5D variants, the three baselines, and the
replay engine — the same seven ``tests/test_golden_equivalence.py``
pins), the registry's counter totals must equal the ledger's totals and
the tracer's span-counter totals exactly.  The registry, the span tree,
and the ledger are three views of the same charges; any drift between
them means a choke point stopped feeding one of the sinks.
"""

import json
import math

import numpy as np
import pytest

from golden.generate import E_THR, H_THR, build_system

from repro.baselines import DelegatedOneDimBFS, OneDimBFS, TwoDimBFS
from repro.core import BFSConfig, DistributedBFS
from repro.obs.metrics import (
    METRICS_SCHEMA,
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    RankVector,
    exponential_buckets,
    registry_to_json,
    to_prometheus_text,
)
from repro.obs.report import (
    HIGHER_BETTER,
    RUN_REPORT_SCHEMA,
    MetricDelta,
    RunReport,
    compare_reports,
    config_fingerprint,
    parse_threshold,
    render_compare,
    report_from_bfs,
    report_from_graph500,
)
from repro.obs.tracer import Tracer
from repro.runtime.replay import ReplayBFS


# ----------------------------------------------------------------------
# instruments
# ----------------------------------------------------------------------


class TestInstruments:
    def test_counter_monotone(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_last_write_wins(self):
        g = Gauge()
        g.set(3.0)
        g.set(1.5)
        assert g.value == 1.5

    def test_exponential_buckets(self):
        b = exponential_buckets(1.0, 2.0, 4)
        assert b == (1.0, 2.0, 4.0, 8.0)
        with pytest.raises(ValueError):
            exponential_buckets(0.0)
        with pytest.raises(ValueError):
            exponential_buckets(1.0, 1.0)
        with pytest.raises(ValueError):
            exponential_buckets(1.0, 2.0, 0)

    def test_histogram_buckets_and_digest(self):
        h = Histogram((1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        # 0.5 -> <=1, 5 -> <=10, 50 -> <=100, 500 -> overflow
        assert list(h.bucket_counts) == [1, 1, 1, 1]
        assert h.count == 4
        assert h.sum == 555.5
        assert h.min == 0.5 and h.max == 500.0
        s = h.summary()
        assert s["count"] == 4 and s["mean"] == pytest.approx(138.875)

    def test_histogram_observe_many_matches_loop(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0.1, 1e6, size=500)
        a, b = Histogram(), Histogram()
        a.observe_many(values)
        for v in values:
            b.observe(v)
        assert list(a.bucket_counts) == list(b.bucket_counts)
        assert a.count == b.count and a.sum == pytest.approx(b.sum)

    def test_histogram_percentile_is_bucket_upper_bound(self):
        h = Histogram((1.0, 2.0, 4.0))
        h.observe_many(np.array([0.5, 1.5, 1.5, 3.0]))
        assert h.percentile(0.5) == 2.0
        # The top quantile is clamped to the exact observed max.
        assert h.percentile(1.0) == 3.0
        with pytest.raises(ValueError):
            h.percentile(1.5)

    def test_histogram_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram((2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram((1.0, 1.0))

    def test_rank_vector_accumulates_and_grows(self):
        v = RankVector()
        v.add(np.array([1.0, 2.0]))
        v.add(np.array([1.0, 1.0, 5.0]))
        assert list(v.values) == [2.0, 3.0, 5.0]
        s = v.summary()
        assert s["ranks"] == 3 and s["sum"] == 10.0
        assert s["spread"] == pytest.approx((5.0 - 2.0) / (10.0 / 3))
        assert s["max_over_avg"] == pytest.approx(5.0 / (10.0 / 3) - 1.0)

    def test_empty_digests(self):
        assert Histogram().summary()["count"] == 0
        assert RankVector().summary()["ranks"] == 0


class TestRegistry:
    def test_get_or_create_by_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("x", phase="E2L")
        b = reg.counter("x", phase="E2L")
        c = reg.counter("x", phase="L2L")
        assert a is b and a is not c
        a.inc(2)
        c.inc(3)
        assert reg.counter_total("x") == 5.0
        assert reg.counter_total("x", phase="E2L") == 2.0

    def test_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_families_and_samples(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(1)
        reg.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        assert reg.families() == {"g": "gauge", "h": "histogram"}
        assert reg.samples("missing") == []
        [(labels, inst)] = reg.samples("h")
        assert labels == {} and inst.count == 1

    def test_null_registry_is_inert(self):
        null = NullMetricsRegistry()
        null.counter("x", phase="p").inc(5)
        null.histogram("h").observe(1)
        null.vector("v").add(np.ones(3))
        null.gauge("g").set(2)
        assert null.families() == {}
        assert null.counter_total("x") == 0.0
        assert null.samples("x") == []
        assert NULL_METRICS.enabled is False


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------


class TestExporters:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("bytes", kind="alltoallv").inc(100)
        reg.gauge("depth").set(7)
        h = reg.histogram("sizes", buckets=(1.0, 10.0))
        h.observe_many(np.array([0.5, 5.0, 50.0]))
        reg.vector("rank_work", phase="E2L").add(np.array([1.0, 2.0]))
        return reg

    def test_prometheus_text_format(self):
        text = to_prometheus_text(self._registry())
        assert text.endswith("\n")
        lines = text.splitlines()
        assert "# TYPE repro_bytes_total counter" in lines
        assert 'repro_bytes_total{kind="alltoallv"} 100' in lines
        assert "repro_depth 7" in lines
        # Histogram buckets are cumulative and end at +Inf == count.
        assert 'repro_sizes_bucket{le="1"} 1' in lines
        assert 'repro_sizes_bucket{le="10"} 2' in lines
        assert 'repro_sizes_bucket{le="+Inf"} 3' in lines
        assert "repro_sizes_count 3" in lines
        # Vectors emit one gauge sample per rank.
        assert 'repro_rank_work{phase="E2L",rank="0"} 1' in lines
        assert 'repro_rank_work{phase="E2L",rank="1"} 2' in lines

    def test_json_export(self):
        doc = registry_to_json(self._registry())
        assert doc["schema"] == METRICS_SCHEMA
        assert doc["families"]["bytes"]["type"] == "counter"
        hist = doc["families"]["sizes"]["samples"][0]
        assert hist["count"] == 3 and hist["overflow"] == 1
        json.dumps(doc)  # must be serializable as-is


# ----------------------------------------------------------------------
# parity on every golden engine configuration
# ----------------------------------------------------------------------


def _engine_builders():
    """name -> callable(system, tracer, registry) -> result-with-ledger."""

    def mk_15d(cfg):
        def build(system, tracer, registry):
            _, _, _, _, machine, part, root = system
            engine = DistributedBFS(
                part, machine=machine, config=cfg,
                tracer=tracer, metrics=registry,
            )
            return engine.run(root)

        return build

    def mk_baseline(cls):
        def build(system, tracer, registry):
            src, dst, n, mesh, machine, _, root = system
            engine = cls(
                src, dst, n, mesh, machine=machine,
                tracer=tracer, metrics=registry,
            )
            return engine.run(root)

        return build

    def mk_replay(system, tracer, registry):
        _, _, _, _, machine, part, root = system
        return ReplayBFS(
            part, machine=machine, tracer=tracer, metrics=registry
        ).run(root)

    base = dict(e_threshold=E_THR, h_threshold=H_THR)
    return {
        "engine_default": mk_15d(BFSConfig(**base)),
        "engine_whole_iteration": mk_15d(
            BFSConfig(**base, sub_iteration_direction=False)
        ),
        "engine_eager_reduction": mk_15d(
            BFSConfig(**base, delayed_reduction=False)
        ),
        "baseline_1d": mk_baseline(OneDimBFS),
        "baseline_1d_delegated": mk_baseline(DelegatedOneDimBFS),
        "baseline_2d": mk_baseline(TwoDimBFS),
        "replay": mk_replay,
    }


ENGINES = _engine_builders()


@pytest.fixture(scope="module")
def system():
    return build_system()


class TestParityAcrossEngines:
    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_registry_equals_ledger_and_spans(self, system, name):
        tracer, registry = Tracer(), MetricsRegistry()
        res = ENGINES[name](system, tracer, registry)
        ledger = res.ledger
        # Three views of the same charges agree exactly.
        assert registry.counter_total("comm_bytes") == ledger.total_bytes
        assert tracer.counter_total("bytes") == ledger.total_bytes
        assert registry.counter_total("comm_seconds") == pytest.approx(
            ledger.comm_seconds, rel=1e-12
        )
        assert registry.counter_total("compute_seconds") == pytest.approx(
            ledger.compute_seconds, rel=1e-12
        )
        assert (
            registry.counter_total("comm_seconds")
            + registry.counter_total("compute_seconds")
        ) == pytest.approx(ledger.total_seconds, rel=1e-12)
        assert registry.counter_total("imbalance_seconds") == pytest.approx(
            ledger.imbalance_seconds, rel=1e-12
        )
        assert registry.counter_total("comm_events") == len(ledger.comm_events)
        assert registry.counter_total("compute_events") == len(
            ledger.compute_events
        )

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_scheduler_counters_match_spans(self, system, name):
        tracer, registry = Tracer(), MetricsRegistry()
        ENGINES[name](system, tracer, registry)
        # The scheduler feeds edges/messages/activated both as span
        # counters and as labeled metric counters.
        for family, span_key in (
            ("edges_scanned", "edges"),
            ("messages", "messages"),
            ("activated", "activated"),
        ):
            assert registry.counter_total(family) == tracer.counter_total(
                span_key
            ), f"{name}: {family}"
        assert registry.counter_total("bfs_runs") == 1
        n_iter = registry.counter_total("iterations")
        assert n_iter == len(tracer.find(category="iteration"))
        [(_, frontier_hist)] = registry.samples("frontier_size")
        assert frontier_hist.count == n_iter

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_per_phase_seconds_match(self, system, name):
        registry = MetricsRegistry()
        res = ENGINES[name](system, None, registry)
        for phase, secs in res.ledger.seconds_by_phase().items():
            got = registry.counter_total(
                "comm_seconds", phase=phase
            ) + registry.counter_total("compute_seconds", phase=phase)
            assert got == pytest.approx(secs, rel=1e-12), f"{name}:{phase}"

    def test_rank_vectors_cover_all_compute_items(self, system):
        registry = MetricsRegistry()
        res = ENGINES["engine_default"](system, None, registry)
        total_vec = sum(
            float(vec.values.sum())
            for _, vec in registry.samples("rank_items")
        )
        total_items = sum(
            e.total_items for e in res.ledger.compute_events
        )
        assert total_vec == float(total_items)

    def test_comm_rank_bytes_present(self, system):
        # Only the replay engine routes through SimCommunicator, the
        # layer that feeds the per-rank byte instruments.
        registry = MetricsRegistry()
        res = ENGINES["replay"](system, None, registry)
        assert registry.samples("rank_bytes")
        assert registry.samples("rank_byte_load")
        total_vec = sum(
            float(vec.values.sum())
            for _, vec in registry.samples("rank_bytes")
        )
        assert total_vec <= res.ledger.total_bytes

    def test_unmetered_run_bit_identical(self, system):
        """NULL_METRICS must leave every result bit unchanged."""
        plain = ENGINES["engine_default"](system, None, None)
        metered = ENGINES["engine_default"](system, None, MetricsRegistry())
        assert np.array_equal(plain.parent, metered.parent)
        assert repr(plain.total_seconds) == repr(metered.total_seconds)
        assert repr(plain.ledger.total_bytes) == repr(
            metered.ledger.total_bytes
        )
        assert [r.directions for r in plain.iterations] == [
            r.directions for r in metered.iterations
        ]
        assert plain.metrics is NULL_METRICS


# ----------------------------------------------------------------------
# RunReport artifacts and the compare gate
# ----------------------------------------------------------------------


class TestRunReport:
    @pytest.fixture(scope="class")
    def bfs_report(self):
        system = build_system()
        registry = MetricsRegistry()
        cfg = BFSConfig(e_threshold=E_THR, h_threshold=H_THR)
        res = ENGINES["engine_default"](system, None, registry)
        return report_from_bfs(
            res, config=cfg, context={"scale": 10, "mesh": "2x2"}
        ), res

    def test_metrics_mirror_ledger(self, bfs_report):
        report, res = bfs_report
        assert report.schema == RUN_REPORT_SCHEMA
        assert report.metrics["total_seconds"] == res.total_seconds
        assert report.metrics["total_bytes"] == res.ledger.total_bytes
        assert report.metrics["gteps"] == res.simulated_gteps()
        assert report.metrics["iterations"] == res.num_iterations
        for phase, secs in res.ledger.seconds_by_phase().items():
            assert report.metrics[f"seconds.{phase}"] == secs
        assert len(report.directions) == res.num_iterations
        assert report.summaries  # metered run embeds digests

    def test_save_load_roundtrip(self, bfs_report, tmp_path):
        report, _ = bfs_report
        path = report.save(tmp_path / "r.json")
        again = RunReport.load(path)
        assert again.to_dict() == report.to_dict()

    def test_load_rejects_foreign_schema(self, tmp_path):
        bogus = tmp_path / "x.json"
        bogus.write_text('{"schema": "not.a.report/1", "name": "x"}')
        with pytest.raises(ValueError, match="not a RunReport"):
            RunReport.load(bogus)

    def test_fingerprint_key_order_invariant(self):
        a = config_fingerprint({"b": 1, "a": {"y": 2, "x": 3}})
        b = config_fingerprint({"a": {"x": 3, "y": 2}, "b": 1})
        assert a == b and len(a) == 64

    def test_render_mentions_metrics_and_directions(self, bfs_report):
        report, _ = bfs_report
        text = report.render()
        assert "tracked metrics" in text
        assert "direction matrix" in text
        assert "EH2EH" in text

    def test_report_from_graph500(self):
        from repro.graph500.driver import run_graph500

        registry = MetricsRegistry()
        g500 = run_graph500(
            10, 2, 2, seed=7, num_roots=2,
            e_threshold=E_THR, h_threshold=H_THR, metrics=registry,
        )
        report = report_from_graph500(g500, context={"seed": 7})
        assert report.metrics["harmonic_mean_teps"] > 0
        assert report.metrics["iterations"] > 0
        assert report.context["num_roots"] == 2
        assert report.breakdowns["seconds_by_phase"]
        assert report.summaries


class TestCompareGate:
    def _report(self, **metrics):
        base = {"gteps": 10.0, "total_seconds": 1.0, "total_bytes": 100.0}
        base.update(metrics)
        return RunReport(
            name="t", fingerprint="f", context={}, metrics=base
        )

    def test_identical_reports_pass(self):
        a, b = self._report(), self._report()
        deltas = compare_reports(a, b, 0.05)
        assert deltas and not any(d.regressed for d in deltas)
        assert "PASS" in render_compare(deltas)

    def test_lower_better_regression(self):
        deltas = compare_reports(
            self._report(), self._report(total_seconds=1.2), 0.05
        )
        bad = {d.name for d in deltas if d.regressed}
        assert bad == {"total_seconds"}

    def test_higher_better_regression(self):
        deltas = compare_reports(
            self._report(), self._report(gteps=8.0), 0.05
        )
        bad = {d.name for d in deltas if d.regressed}
        assert bad == {"gteps"}
        assert "gteps" in HIGHER_BETTER

    def test_improvement_not_flagged(self):
        deltas = compare_reports(
            self._report(),
            self._report(gteps=20.0, total_seconds=0.5),
            0.05,
        )
        assert not any(d.regressed for d in deltas)
        improved = {d.name for d in deltas if d.improved}
        assert {"gteps", "total_seconds"} <= improved

    def test_within_threshold_passes(self):
        deltas = compare_reports(
            self._report(), self._report(total_seconds=1.04), 0.05
        )
        assert not any(d.regressed for d in deltas)

    def test_only_common_metrics_compared(self):
        a = self._report(old_only=1.0)
        b = self._report(new_only=99.0)
        names = {d.name for d in compare_reports(a, b, 0.05)}
        assert "old_only" not in names and "new_only" not in names

    def test_zero_baseline(self):
        deltas = compare_reports(
            self._report(extra=0.0), self._report(extra=1.0), 0.05
        )
        [d] = [d for d in deltas if d.name == "extra"]
        assert d.rel == math.inf and d.regressed
        assert "+inf" in render_compare(deltas)

    def test_parse_threshold(self):
        assert parse_threshold("5%") == 0.05
        assert parse_threshold("0.05") == 0.05
        assert parse_threshold(" 12.5% ") == 0.125
        with pytest.raises(ValueError):
            parse_threshold("-1%")
        with pytest.raises(ValueError):
            parse_threshold("nope")

    def test_delta_improved_property(self):
        d = MetricDelta("x", 1.0, 0.9, -0.1, False, False)
        assert d.improved
        d = MetricDelta("gteps", 1.0, 0.9, -0.1, True, True)
        assert not d.improved

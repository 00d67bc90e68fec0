"""The observability additions behind the live telemetry plane.

The deterministic Chrome-trace track table, the ring-buffer sampler,
the SLO burn-rate monitor and the Prometheus exposition format.
"""

import json

import numpy as np
import pytest

from repro.obs.export import build_track_table, to_chrome_trace
from repro.obs.metrics import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    to_prometheus_text,
)
from repro.obs.slo import (
    SLOMonitor,
    SLOSpec,
    parse_slo_spec,
)
from repro.obs.sampler import TelemetrySampler
from repro.obs.tracer import Tracer
from repro.serve.service import LATENCY_BUCKETS


class FakeClock:
    def __init__(self, now=0.0):
        self.now = float(now)

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


# ----------------------------------------------------------------------
# track table (satellite: no more hardcoded pid 0 / tid 0)
# ----------------------------------------------------------------------


class TestTrackTable:
    def _spans(self):
        tracer = Tracer()
        with tracer.span("bfs", category="bfs"):
            pass
        for rank in (10, 1, 0):
            with tracer.span("route", category="phase", rank=rank):
                pass
        with tracer.span("msbfs", category="msbfs", trace_id="req-000001"):
            pass
        return tracer

    def test_deterministic_and_grouped(self):
        tracer = self._spans()
        table = build_track_table(tracer.spans)
        # Same set of tracks -> same table, regardless of span order.
        assert table == build_track_table(list(reversed(tracer.spans)))
        assert table[("main", 0)][0] != table[("rank", 0)][0]
        # Ranks sort numerically (1 before 10) into tids on one pid.
        r0, r1, r10 = (table[("rank", r)] for r in (0, 1, 10))
        assert r0[0] == r1[0] == r10[0]
        assert (r0[1], r1[1], r10[1]) == (0, 1, 2)
        assert ("request", "req-000001") in table

    def test_chrome_trace_tracks_and_metadata(self):
        tracer = self._spans()
        doc = to_chrome_trace(tracer, clock="wall")
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {
            (e["pid"], e.get("tid")): e["args"]["name"]
            for e in meta if e["name"] == "thread_name"
        }
        assert "rank 0" in names.values()
        assert "rank 10" in names.values()
        assert "request req-000001" in names.values()
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        pids = {e["name"]: (e["pid"], e["tid"]) for e in events}
        assert pids["route"][0] != pids["bfs"][0]
        assert "tracks" in doc["otherData"]


# ----------------------------------------------------------------------
# sampler
# ----------------------------------------------------------------------


class TestTelemetrySampler:
    def test_snapshot_contents_and_ring(self):
        clock = FakeClock()
        reg = MetricsRegistry()
        reg.counter("serve_requests", outcome="cached").inc(3)
        reg.counter("serve_requests", outcome="completed").inc(9)
        reg.gauge("serve_queue_depth").set(5)
        reg.histogram("serve_batch_size").observe(4)
        reg.histogram("serve_batch_size").observe(8)
        sampler = TelemetrySampler(reg, capacity=2, clock=clock)
        snap = sampler.sample()
        assert snap["counters"]["serve_requests"] == 12.0
        assert snap["derived"]["queue_depth"] == 5.0
        assert snap["derived"]["cache_hit_rate"] == pytest.approx(0.25)
        assert snap["derived"]["batch_occupancy"] == pytest.approx(6.0)
        for _ in range(3):
            sampler.sample()
        assert len(sampler.samples) == 2  # ring capacity
        assert sampler.taken == 4
        assert sampler.to_dict()["taken"] == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            TelemetrySampler(MetricsRegistry(), capacity=0)
        with pytest.raises(ValueError):
            TelemetrySampler(MetricsRegistry(), interval=0.0)


# ----------------------------------------------------------------------
# SLO monitor
# ----------------------------------------------------------------------


def _observe_latency(reg, stage, seconds, n=1):
    hist = reg.histogram(
        "serve_latency_seconds", buckets=LATENCY_BUCKETS, stage=stage
    )
    for _ in range(n):
        hist.observe(seconds)


class TestSLOMonitor:
    def test_parse_round_trip(self):
        spec = parse_slo_spec("total:0.05:0.99:30")
        assert spec.stage == "total"
        assert spec.threshold_seconds == pytest.approx(0.05)
        assert spec.objective == pytest.approx(0.99)
        assert spec.window_seconds == pytest.approx(30.0)
        assert spec.name == "total<0.05s@99%"
        with pytest.raises(ValueError):
            parse_slo_spec("nonsense")
        with pytest.raises(ValueError):
            parse_slo_spec(":1:0.9")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SLOSpec("total", -1.0, 0.99)
        with pytest.raises(ValueError):
            SLOSpec("total", 0.1, 1.5)
        with pytest.raises(ValueError):
            SLOSpec("total", 0.1, 0.9, burn_warn=5.0, burn_page=1.0)

    def test_burn_rate_math_and_alerts(self):
        clock = FakeClock()
        reg = MetricsRegistry()
        spec = SLOSpec("total", 0.1, 0.9, window_seconds=60.0,
                       burn_warn=1.0, burn_page=5.0)
        mon = SLOMonitor(reg, [spec], clock=clock)
        mon.observe()  # zero baseline
        # 8 good, 2 bad of 10 -> error rate 0.2, burn 2.0 -> warn
        _observe_latency(reg, "total", 0.001, n=8)
        _observe_latency(reg, "total", 5.0, n=2)
        clock.advance(1.0)
        doc = mon.evaluate()
        row = doc["slos"][0]
        assert row["observed"] == 10 and row["bad"] == 2
        assert row["error_rate"] == pytest.approx(0.2)
        assert row["burn_rate"] == pytest.approx(2.0)
        assert doc["status"] == "warn"
        assert len(mon.alerts) == 1 and mon.alerts[0].severity == "warn"
        # Same severity again: no duplicate alert.
        clock.advance(1.0)
        mon.evaluate()
        assert len(mon.alerts) == 1
        # Escalation to page fires once more.
        _observe_latency(reg, "total", 5.0, n=30)
        clock.advance(1.0)
        doc = mon.evaluate()
        assert doc["status"] == "page"
        assert [a.severity for a in mon.alerts] == ["warn", "page"]

    def test_quantization_is_conservative(self):
        clock = FakeClock()
        reg = MetricsRegistry()
        # Threshold between two bucket bounds: good is counted at the
        # lower bound, never overstated.
        bounds = LATENCY_BUCKETS
        mid = (bounds[10] + bounds[11]) / 2
        spec = SLOSpec("total", mid, 0.5, window_seconds=60.0)
        mon = SLOMonitor(reg, [spec], clock=clock)
        mon.observe()
        # A latency in (bounds[10], mid) is truly good but lands in the
        # bucket whose upper bound exceeds the quantized threshold.
        _observe_latency(reg, "total", (bounds[10] + mid) / 2)
        clock.advance(1.0)
        row = mon.evaluate()["slos"][0]
        assert row["quantized_threshold_seconds"] == pytest.approx(bounds[10])
        assert row["bad"] == 1  # conservative: not credited as good

    @pytest.mark.parametrize("threshold", [0.02, 0.25, 0.5, 1.0])
    def test_threshold_is_judged_near_its_value(self, threshold):
        # Four bucket bounds per doubling: a latency 20 % under the
        # threshold is good and one 25 % over it is bad, wherever the
        # threshold falls between two bounds.
        for factor, status in ((0.8, "ok"), (1.25, "page")):
            clock = FakeClock()
            reg = MetricsRegistry()
            mon = SLOMonitor(reg, [SLOSpec("total", threshold, 0.99)],
                             clock=clock)
            mon.observe()
            _observe_latency(reg, "total", factor * threshold, n=50)
            clock.advance(1.0)
            row = mon.evaluate()["slos"][0]
            assert row["status"] == status, (factor, row)
            assert 0.8 * threshold < row["quantized_threshold_seconds"]
            assert row["quantized_threshold_seconds"] <= threshold

    def test_rolling_window_forgets(self):
        clock = FakeClock()
        reg = MetricsRegistry()
        spec = SLOSpec("total", 0.1, 0.9, window_seconds=10.0)
        mon = SLOMonitor(reg, [spec], clock=clock)
        mon.observe()
        _observe_latency(reg, "total", 5.0, n=10)  # all bad
        clock.advance(1.0)
        assert mon.evaluate()["status"] != "ok"
        # A quiet window later the bad burst has aged out.
        for _ in range(12):
            clock.advance(1.0)
            mon.observe()
        doc = mon.evaluate()
        assert doc["slos"][0]["observed"] == 0
        assert doc["status"] == "ok"

    def test_requires_specs(self):
        with pytest.raises(ValueError):
            SLOMonitor(MetricsRegistry(), [])
        spec = SLOSpec("total", 0.1, 0.9)
        with pytest.raises(ValueError):
            SLOMonitor(MetricsRegistry(), [spec, spec])


# ----------------------------------------------------------------------
# Prometheus exposition (satellite: exposition-format tests)
# ----------------------------------------------------------------------


class TestPrometheusExposition:
    def test_content_type_pinned(self):
        assert PROMETHEUS_CONTENT_TYPE == (
            "text/plain; version=0.0.4; charset=utf-8"
        )

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        reg.counter("events", where='say "hi"\nback\\slash').inc()
        text = to_prometheus_text(reg)
        assert r'where="say \"hi\"\nback\\slash"' in text

    def test_histogram_inf_bucket_sum_count(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 99.0):
            hist.observe(v)
        text = to_prometheus_text(reg)
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_sum 99.55" in text
        assert "lat_count 3" in text

    def test_scalar_observe_matches_vectorized(self):
        a = MetricsRegistry().histogram("h", buckets=(0.1, 1.0, 10.0))
        b = MetricsRegistry().histogram("h", buckets=(0.1, 1.0, 10.0))
        values = [0.05, 0.1, 0.11, 1.0, 2.0, 10.0, 11.0]
        for v in values:
            a.observe(v)
        b.observe_many(np.asarray(values))
        assert np.array_equal(a.bucket_counts, b.bucket_counts)
        assert a.count == b.count
        assert a.sum == pytest.approx(b.sum)
        assert a.min == b.min and a.max == b.max


# ----------------------------------------------------------------------
# chrome trace JSON stays loadable end to end
# ----------------------------------------------------------------------


def test_trace_json_round_trip(tmp_path):
    from repro.obs.export import write_chrome_trace

    tracer = Tracer()
    with tracer.span("msbfs", category="msbfs", trace_id="req-000001"):
        pass
    path = tmp_path / "nested" / "trace.json"
    count = write_chrome_trace(tracer, path, clock="wall")
    assert count == 1
    doc = json.loads(path.read_text())
    assert any(e["ph"] == "X" for e in doc["traceEvents"])

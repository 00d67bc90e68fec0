"""Tests for the repro.obs tracing layer.

Contract: spans nest (both clocks monotone, parents contain children),
counters attach exactly once, the NullTracer is a perfect no-op leaving
engine results bit-identical, and the Chrome trace_event export is
schema-valid JSON whose events mirror the span tree.
"""

import json

import numpy as np
import pytest

from repro.analysis.timeline import (
    category_seconds_from_trace,
    iteration_component_seconds_from_trace,
    phase_seconds_from_trace,
)
from repro.core import BFSConfig, DistributedBFS, partition_graph
from repro.graph500.rmat import generate_edges
from repro.machine.network import MachineSpec
from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    render_flame,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.runtime.mesh import ProcessMesh


def build_traced_run(scale=11, rows=2, cols=2, e_thr=128, h_thr=16, seed=1):
    src, dst = generate_edges(scale, seed=seed)
    n = 1 << scale
    machine = MachineSpec(num_nodes=rows * cols, nodes_per_supernode=cols)
    mesh = ProcessMesh(rows, cols, machine=machine)
    part = partition_graph(src, dst, n, mesh, e_threshold=e_thr, h_threshold=h_thr)
    config = BFSConfig(e_threshold=e_thr, h_threshold=h_thr)
    tracer = Tracer()
    engine = DistributedBFS(part, machine=machine, config=config, tracer=tracer)
    root = int(np.argmax(part.degrees))
    return engine.run(root), tracer, part, machine, config, root


class TestSpanNesting:
    def test_parent_child_structure(self):
        t = Tracer()
        with t.span("outer", category="a") as outer:
            with t.span("inner", category="b") as inner:
                t.charge("leaf", sim_seconds=1.0)
        assert outer.parent is None and outer.depth == 0
        assert inner.parent == outer.sid and inner.depth == 1
        leaf = t.find(name="leaf")[0]
        assert leaf.parent == inner.sid and leaf.depth == 2
        assert t.children_of(outer) == [inner]
        assert t.roots() == [outer]

    def test_sim_clock_advances_only_on_charge(self):
        t = Tracer()
        with t.span("s"):
            assert t.sim_now == 0.0
            t.charge("a", sim_seconds=2.0)
            assert t.sim_now == 2.0
            t.charge("b", sim_seconds=0.5)
        assert t.sim_now == 2.5
        sp = t.find(name="s")[0]
        assert sp.sim_start == 0.0 and sp.sim_end == 2.5
        assert sp.sim_seconds == 2.5

    def test_parents_contain_children_on_both_clocks(self):
        res, t, *_ = build_traced_run()
        by_sid = {sp.sid: sp for sp in t.spans}
        for sp in t.spans:
            assert sp.closed
            assert sp.sim_end >= sp.sim_start
            assert sp.wall_end >= sp.wall_start
            if sp.parent is not None:
                par = by_sid[sp.parent]
                assert par.sim_start <= sp.sim_start
                assert sp.sim_end <= par.sim_end

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Tracer().charge("bad", sim_seconds=-1.0)

    def test_span_closes_on_exception(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.span("s"):
                raise RuntimeError("boom")
        assert t.spans[0].closed
        assert t.current is None


class TestCounters:
    def test_counters_attach_to_innermost_span(self):
        t = Tracer()
        with t.span("outer") as outer:
            with t.span("inner") as inner:
                t.add_counter("bytes", 10)
                t.add_counter("bytes", 5)
        assert inner.counters["bytes"] == 15.0
        assert "bytes" not in outer.counters
        assert t.counter_total("bytes") == 15.0

    def test_counter_total_sums_without_double_counting(self):
        t = Tracer()
        with t.span("a"):
            t.charge("x", sim_seconds=0.0, counters={"bytes": 3.0})
        t.charge("y", sim_seconds=0.0, counters={"bytes": 4.0})
        assert t.counter_total("bytes") == 7.0

    def test_add_counter_outside_spans_is_dropped(self):
        t = Tracer()
        t.add_counter("bytes", 99)
        assert t.counter_total("bytes") == 0.0


class TestNullTracer:
    def test_all_methods_noop(self):
        t = NullTracer()
        with t.span("anything", category="x", foo=1) as sp:
            sp.add_counter("bytes", 5)
            sp.attrs["x"] = 1  # silently discarded
            t.add_counter("bytes", 5)
            t.charge("leaf", sim_seconds=9.0, counters={"bytes": 1.0})
        assert t.sim_now == 0.0
        assert t.counter_total("bytes") == 0.0
        assert len(t.spans) == 0
        assert t.find(category="x") == []
        assert not t.enabled and not NULL_TRACER.enabled

    def test_engine_results_bit_identical_with_and_without_tracing(self):
        res, tracer, part, machine, config, root = build_traced_run()
        untraced = DistributedBFS(part, machine=machine, config=config)
        res0 = untraced.run(root)
        assert np.array_equal(res.parent, res0.parent)
        assert res.total_seconds == res0.total_seconds
        assert res.ledger.total_bytes == res0.ledger.total_bytes


class TestEngineIntegration:
    def test_byte_counters_equal_ledger_totals(self):
        res, tracer, *_ = build_traced_run()
        assert tracer.counter_total("bytes") == res.ledger.total_bytes

    def test_one_component_span_per_executed_subiteration(self):
        res, tracer, *_ = build_traced_run()
        executed = sum(
            1 for rec in res.iterations for d in rec.directions.values() if d != "-"
        )
        assert len(tracer.find(category="component")) == executed

    def test_component_spans_annotated_with_direction(self):
        res, tracer, *_ = build_traced_run()
        for sp in tracer.find(category="component"):
            assert sp.attrs["direction"] in ("push", "pull")
            rec = res.iterations[sp.attrs["iteration"]]
            assert rec.directions[sp.name] == sp.attrs["direction"]

    def test_iteration_spans_carry_frontier_sizes(self):
        res, tracer, *_ = build_traced_run()
        iters = tracer.find(category="iteration")
        assert len(iters) == len(res.iterations)
        for sp, rec in zip(iters, res.iterations):
            assert sp.attrs["index"] == rec.index
            assert sp.attrs["frontier"] == rec.frontier_size

    def test_trace_phase_totals_match_ledger(self):
        res, tracer, *_ = build_traced_run()
        from_trace = phase_seconds_from_trace(tracer)
        from_ledger = res.ledger.seconds_by_phase()
        assert set(from_trace) == set(from_ledger)
        for phase, seconds in from_ledger.items():
            assert from_trace[phase] == pytest.approx(seconds, rel=1e-12)

    def test_trace_category_totals_match_ledger(self):
        res, tracer, *_ = build_traced_run()
        from_trace = category_seconds_from_trace(tracer)
        from_ledger = res.time_by_category()
        assert set(from_trace) == set(from_ledger)
        for cat, seconds in from_ledger.items():
            assert from_trace[cat] == pytest.approx(seconds, rel=1e-9, abs=1e-18)

    def test_iteration_seconds_sum_to_run_total(self):
        res, tracer, *_ = build_traced_run()
        rows = iteration_component_seconds_from_trace(tracer)
        assert len(rows) == len(res.iterations)
        total = sum(sum(r.values()) for r in rows)
        assert total == pytest.approx(res.ledger.total_seconds, rel=1e-12)


class TestDriverIntegration:
    def test_graph500_flow_spans(self):
        from repro.graph500.driver import run_graph500

        tracer = Tracer()
        report = run_graph500(
            10, 2, 2, num_roots=2, validate=True, tracer=tracer
        )
        assert report.validated
        names = {sp.name for sp in tracer.spans}
        assert {"generate", "construction", "root", "validate",
                "harvest", "bfs"} <= names
        assert len(tracer.find(category="bfs_root")) == report.roots.size
        # kernel-1 charge pushes the simulated clock past construction.
        first_bfs = tracer.find(category="bfs")[0]
        assert first_bfs.sim_start >= report.construction_seconds

    def test_ocs_spans(self):
        from repro.sort.ocs import OCSConfig, simulate_ocs_rma

        rng = np.random.default_rng(0)
        values = rng.integers(0, 1 << 40, size=4096)
        tracer = Tracer()
        result = simulate_ocs_rma(
            values, values & 0xFF, 256,
            config=OCSConfig(num_cgs=6), tracer=tracer,
        )
        ocs = tracer.find(category="ocs")
        assert len(ocs) == 1
        assert ocs[0].sim_seconds == pytest.approx(result.modeled_seconds)
        leaf_names = {sp.name for sp in tracer.children_of(ocs[0])}
        assert {"dma_stream", "produce", "consume"} <= leaf_names
        assert tracer.counter_total("dma_bytes") == result.dma_bytes


class TestExporters:
    def test_chrome_trace_round_trips_through_json(self, tmp_path):
        res, tracer, *_ = build_traced_run()
        path = tmp_path / "trace.json"
        count = write_chrome_trace(tracer, path)
        doc = json.loads(path.read_text())
        assert count == len(tracer.spans)
        assert doc["otherData"]["clock"] == "sim"
        events = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
        assert len(events) == len(tracer.spans)
        for ev in events:
            assert ev["ts"] >= 0 and ev["dur"] >= 0
            assert isinstance(ev["args"], dict)

    def test_chrome_trace_wall_clock(self):
        res, tracer, *_ = build_traced_run()
        doc = to_chrome_trace(tracer, clock="wall")
        assert doc["otherData"]["clock"] == "wall"
        assert all(
            ev["ts"] >= 0 for ev in doc["traceEvents"] if ev["ph"] == "X"
        )

    def test_chrome_trace_rejects_unknown_clock(self):
        with pytest.raises(ValueError, match="clock"):
            to_chrome_trace(Tracer(), clock="cpu")

    def test_flame_summary_lists_components(self):
        res, tracer, *_ = build_traced_run()
        text = render_flame(tracer)
        assert "bfs" in text and "iteration" in text and "EH2EH" in text
        assert "100.0%" in text

    def test_flame_empty_tracer(self):
        assert "no spans" in render_flame(Tracer())

    def test_span_aggregates_fold_repeats(self):
        # Every BFS iteration span shares the path bfs/iteration, so the
        # flame summary folds them into one row counting all of them.
        res, tracer, *_ = build_traced_run()
        rows = [line.split() for line in render_flame(tracer).splitlines()]
        [iteration] = [r for r in rows if r[0] == "iteration"]
        assert int(iteration[1]) == len(res.iterations)

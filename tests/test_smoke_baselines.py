"""The smoke runs behind the committed baselines, checked in tier-1.

``repro report --smoke`` and ``repro algo --smoke`` write the reports
CI ``cmp``s against ``benchmarks/results/BENCH_bfs_smoke.json`` and
``BENCH_programs_smoke.json``; a traced Graph500 run is what
``--trace`` exports.  These tests hold what those artifacts must say
beyond byte equality: the report is populated, its sinks agree with
its ledgers, and an exported trace is well-formed on the simulated
clock.
"""

import json
from pathlib import Path

from repro.graph500.driver import run_graph500
from repro.obs import Tracer, write_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import (
    RUN_REPORT_SCHEMA,
    RunReport,
    bfs_smoke_report,
    programs_smoke_report,
)

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"


def test_bfs_smoke_registry_agrees_with_report():
    registry = MetricsRegistry()
    report = bfs_smoke_report(metrics=registry)
    assert report.schema == RUN_REPORT_SCHEMA
    assert report.metrics["mean_gteps"] > 0
    assert report.metrics["total_bytes"] > 0
    # The registry the run fed must agree with the report's ledger sums.
    assert registry.counter_total("comm_bytes") == report.metrics["total_bytes"]


def test_programs_smoke_reports_every_program():
    report = programs_smoke_report(metrics=MetricsRegistry())
    assert report.schema == RUN_REPORT_SCHEMA
    for name in ("bfs", "sssp", "sssp-delta", "pagerank", "cc", "triangles"):
        assert report.metrics[f"program.{name}.total_seconds"] > 0
    assert report.metrics["program.pagerank.delta"] < 1e-8
    assert report.metrics["program.triangles.total_triangles"] > 0
    baseline = RunReport.load(RESULTS / "BENCH_programs_smoke.json")
    assert report.to_dict() == baseline.to_dict()


def test_traced_driver_run_exports_a_nested_trace(tmp_path):
    tracer = Tracer()
    report = run_graph500(10, 2, 2, num_roots=2, tracer=tracer)
    assert report.validated

    path = tmp_path / "trace.json"
    write_chrome_trace(tracer, path)
    doc = json.loads(path.read_text())
    events = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
    assert len(events) == len(tracer.spans)

    # Every span closed, within its parent's simulated window, and
    # charge leaves never run the clock backwards.
    by_sid = {sp.sid: sp for sp in tracer.spans}
    for sp in tracer.spans:
        assert sp.closed and sp.sim_end >= sp.sim_start
        if sp.parent is not None:
            parent = by_sid[sp.parent]
            assert parent.sim_start <= sp.sim_start <= sp.sim_end <= parent.sim_end

    # Traced bytes == ledger bytes over all roots.
    ledger_bytes = sum(r.ledger.total_bytes for r in report.results)
    assert tracer.counter_total("bytes") == ledger_bytes

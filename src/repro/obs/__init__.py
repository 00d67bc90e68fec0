"""repro.obs — structured tracing and profiling for the simulated system.

The observability layer the paper's evaluation implies but never names:
every per-component timing in Fig. 10 and every per-collective byte count
in Fig. 11 presupposes a way to attribute simulated time and traffic to
the sub-iteration that spent it.  :class:`~repro.obs.tracer.Tracer` is
that attribution: a tree of spans over two clocks (simulated seconds from
the :class:`~repro.runtime.ledger.TrafficLedger`'s charges, wall seconds
from the host), with per-span counters for bytes, messages, and edges.

- :mod:`repro.obs.tracer` — ``Tracer`` / ``Span`` / zero-overhead
  ``NullTracer`` (the default everywhere).
- :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (open in
  ``chrome://tracing`` or Perfetto), flame-style text summary, CSV of
  span aggregates.
- :mod:`repro.obs.metrics` — the aggregate side: a ``MetricsRegistry``
  of labeled counters, gauges, exponential-bucket histograms, and
  per-rank vectors fed automatically from the ledger, communicator, and
  scheduler choke points; Prometheus text and JSON exporters.
- :mod:`repro.obs.report` — the ``RunReport`` artifact (schema-versioned
  JSON with a config fingerprint) and the ``compare_reports``
  perf-regression gate behind ``python -m repro compare``.
- :mod:`repro.obs.sampler` — the live plane's ring-buffer sampler:
  periodic registry snapshots (queue depth, batch occupancy, cache hit
  rate) for mid-run time-series.
- :mod:`repro.obs.slo` — rolling-window burn-rate monitoring of the
  staged serving-latency histograms, with typed alert records.

Produce a trace by passing ``tracer=Tracer()`` to
:class:`~repro.core.engine.DistributedBFS`,
:func:`~repro.graph500.driver.run_graph500`, or
:func:`~repro.sort.ocs.simulate_ocs_rma` — or ``--trace out.json`` on the
CLI's ``bfs`` and ``graph500`` subcommands.  See ``docs/observability.md``
for a worked example.
"""

from repro.obs.export import (
    build_track_table,
    render_flame,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    NULL_METRICS,
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    NullMetricsRegistry,
    registry_to_json,
    to_prometheus_text,
)
from repro.obs.slo import SLOAlert, SLOMonitor, SLOSpec, parse_slo_spec
from repro.obs.sampler import TelemetrySampler
from repro.obs.report import (
    RunReport,
    bfs_smoke_report,
    compare_reports,
    report_from_bfs,
    report_from_graph500,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "to_prometheus_text",
    "registry_to_json",
    "RunReport",
    "report_from_bfs",
    "report_from_graph500",
    "bfs_smoke_report",
    "compare_reports",
    "to_chrome_trace",
    "write_chrome_trace",
    "build_track_table",
    "render_flame",
    "PROMETHEUS_CONTENT_TYPE",
    "TelemetrySampler",
    "SLOSpec",
    "SLOAlert",
    "SLOMonitor",
    "parse_slo_spec",
]

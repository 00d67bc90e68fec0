"""The query-serving subsystem: batched multi-source BFS behind an
admission-controlled request queue.

Layers (each usable on its own):

- :mod:`repro.serve.msbfs` — bit-parallel multi-source batches on
  :class:`~repro.core.engine.DistributedBFS`: up to 64 roots per batch,
  one lane per root, parents bit-identical to single-root runs.
- :mod:`repro.serve.cache` — the (graph fingerprint, root) result cache
  with LRU + TTL eviction and hit/miss/eviction metrics.
- :mod:`repro.serve.core` — what both service planes share: the
  resident-graph type, the batch executor and the metric scope.
- :mod:`repro.serve.service` — the asyncio-fronted
  :class:`~repro.serve.service.TraversalService`: bounded queue,
  batching window, typed ``Overloaded`` shedding, latency histograms,
  crash replay.
- :mod:`repro.serve.workload` — the seeded query streams and the one
  load driver (open and closed loop, latency from each query's due
  time) the CI smokes and benchmarks drive both planes with.
- :mod:`repro.serve.telemetry` — the live scrape surface: an asyncio
  HTTP endpoint exposing ``/metrics`` (Prometheus text), ``/healthz``,
  ``/slo``, ``/timeline``, and per-request ``/trace/<id>``.
"""

from repro.serve.cache import ResultCache, fingerprint_graph
from repro.serve.msbfs import (
    MAX_BATCH_ROOTS,
    MSBFSResult,
    run_batch_with_recovery,
)
from repro.serve.service import (
    LatencyReservoir,
    Overloaded,
    RequestTimeline,
    TraversalError,
    TraversalService,
)
from repro.serve.telemetry import TelemetryServer

__all__ = [
    "MAX_BATCH_ROOTS",
    "MSBFSResult",
    "run_batch_with_recovery",
    "ResultCache",
    "fingerprint_graph",
    "Overloaded",
    "TraversalError",
    "TraversalService",
    "RequestTimeline",
    "LatencyReservoir",
    "TelemetryServer",
]

"""Serving benchmark core: amortization and throughput sweeps.

Shared by ``python -m repro bench-serve`` and
``benchmarks/bench_serve_throughput.py`` (which commits the
``BENCH_serve.json`` artifact) so both measure the same way.

Two layers, deliberately separate:

- :func:`amortization_sweep` — *deterministic, simulated*: for each
  batch size, runs the same root set through one
  :meth:`~repro.serve.msbfs.MultiSourceBFS.run_batch` and compares the
  amortized simulated cost per query against the single-root sequential
  baseline.  No asyncio, no wall clocks — bit-stable run to run, so it
  can be gated in CI (the batch=64 factor must stay >= 4x).
- :func:`service_sweep` — *end-to-end, wall-clock*: drives the full
  :class:`~repro.serve.service.TraversalService` with the seeded
  closed-loop workload across (batch window x queue depth) points,
  reporting wall QPS, p50/p99 latency, realized batch sizes, shedding,
  and cache hit rates.  Wall numbers vary with the host; correctness
  numbers (wrong parents, drops) do not.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from repro.core.engine import DistributedBFS
from repro.core.setup import build_setup
from repro.serve.msbfs import MultiSourceBFS
from repro.serve.workload import make_workload_roots, run_serving_session

__all__ = [
    "AmortizationPoint",
    "ServicePoint",
    "amortization_sweep",
    "service_sweep",
    "build_serving_pair",
    "serving_pair",
]


def build_serving_pair(
    scale: int,
    rows: int,
    cols: int,
    *,
    seed: int,
    e_threshold: int | None = None,
    h_threshold: int | None = None,
    tracer=None,
    metrics=None,
):
    """Build the (sequential engine, batch engine) pair over one graph,
    on the plain (not weak-scaling-normalised) machine model — see
    :mod:`repro.core.setup` for why serving uses that one."""
    setup = build_setup(
        scale, rows, cols, seed=seed, weak_scaled=False,
        e_threshold=e_threshold, h_threshold=h_threshold,
    )
    return serving_pair(setup, tracer=tracer, metrics=metrics)


def serving_pair(setup, *, tracer=None, metrics=None):
    """The (sequential engine, batch engine) pair over ``setup``.

    Both share the partition, machine model, and config, so any cost
    difference between them is the batching itself.
    ``tracer``/``metrics`` (optional) attach to the batched engine —
    the serving side — so scheduler spans land in the caller's sinks.
    """
    part, config = setup.partition(), setup.config()
    sequential = DistributedBFS(part, machine=setup.machine, config=config)
    batched = MultiSourceBFS(
        part, machine=setup.machine, config=config, tracer=tracer,
        metrics=metrics,
    )
    return sequential, batched


@dataclass
class AmortizationPoint:
    """Deterministic simulated cost of one batch size."""

    batch_size: int
    #: Simulated seconds for the whole batch (one traversal).
    batch_seconds: float
    #: ``batch_seconds / batch_size`` — the per-query share.
    amortized_seconds: float
    #: Sum of the same roots run sequentially.
    sequential_seconds: float
    #: ``sequential / batch`` — how much cheaper a batched query is.
    amortization_factor: float
    #: Ledger bytes: batch vs the sequential sum.
    batch_bytes: float
    sequential_bytes: float
    waves: int

    def to_dict(self) -> dict:
        return asdict(self)


def amortization_sweep(
    sequential,
    batched,
    roots: np.ndarray,
    *,
    batch_sizes=(1, 4, 16, 64),
) -> list[AmortizationPoint]:
    """Amortized simulated cost per query, batch size by batch size.

    Each point batches the first ``b`` roots and compares against the
    same roots run sequentially.  Everything is simulated time from the
    shared :class:`~repro.runtime.ledger.TrafficLedger`, so the sweep is
    bit-stable and CI-gateable.
    """
    roots = np.asarray(roots, dtype=np.int64)
    seq = {int(r): sequential.run(int(r)) for r in np.unique(roots)}
    points = []
    for b in batch_sizes:
        if b > roots.size:
            continue
        chunk = roots[:b]
        batch = batched.run_batch(chunk)
        seq_seconds = sum(seq[int(r)].total_seconds for r in chunk)
        seq_bytes = sum(seq[int(r)].ledger.total_bytes for r in chunk)
        points.append(
            AmortizationPoint(
                batch_size=int(b),
                batch_seconds=float(batch.total_seconds),
                amortized_seconds=float(batch.amortized_seconds),
                sequential_seconds=float(seq_seconds),
                amortization_factor=float(
                    seq_seconds / batch.total_seconds
                ),
                batch_bytes=float(batch.ledger.total_bytes),
                sequential_bytes=float(seq_bytes),
                waves=int(batch.num_waves),
            )
        )
    return points


@dataclass
class ServicePoint:
    """One end-to-end service configuration's measured behavior."""

    batch_size: int
    queue_depth: int
    batch_window: float
    num_queries: int
    clients: int
    served: int
    failed: int
    wrong_parents: int
    shed_retries: int
    cache_hit_rate: float
    mean_batch_size: float
    #: Amortized *simulated* seconds per engine-served query.
    sim_seconds_per_query: float
    #: Wall-clock throughput and latency of the closed loop.
    wall_seconds: float
    qps: float
    p50_seconds: float
    p99_seconds: float

    def to_dict(self) -> dict:
        return asdict(self)


def service_sweep(
    batched,
    degrees,
    *,
    num_queries: int = 256,
    seed: int = 1,
    hot_fraction: float = 0.5,
    hot_set_size: int = 16,
    batch_sizes=(64,),
    queue_depths=(64, 256),
    batch_windows=(0.005,),
    clients: int | None = None,
    expected: dict | None = None,
) -> list[ServicePoint]:
    """Run the closed-loop workload across service configurations.

    ``expected`` (root -> parent array) turns on bit-exact response
    validation; ``clients`` defaults to twice the batch size so batches
    can actually fill.
    """
    points = []
    for b in batch_sizes:
        for depth in queue_depths:
            for window in batch_windows:
                roots = make_workload_roots(
                    degrees, num_queries, seed=seed,
                    hot_fraction=hot_fraction, hot_set_size=hot_set_size,
                )
                n_clients = clients if clients is not None else 2 * b
                n_clients = max(1, min(n_clients, num_queries))
                t0 = time.monotonic()
                report, service = run_serving_session(
                    batched, roots,
                    clients=n_clients, expected=expected,
                    batch_size=b, queue_depth=depth, batch_window=window,
                )
                wall = time.monotonic() - t0
                stats = service.stats
                points.append(
                    ServicePoint(
                        batch_size=int(b),
                        queue_depth=int(depth),
                        batch_window=float(window),
                        num_queries=int(num_queries),
                        clients=int(n_clients),
                        served=int(report.served),
                        failed=int(report.failed),
                        wrong_parents=int(report.wrong_parents),
                        shed_retries=int(report.shed_retries),
                        cache_hit_rate=float(report.cache_hit_rate),
                        mean_batch_size=float(stats.mean_batch_size),
                        sim_seconds_per_query=float(
                            stats.sim_seconds_per_query
                        ),
                        wall_seconds=float(wall),
                        qps=float(report.served / wall) if wall else 0.0,
                        p50_seconds=float(stats.p50_seconds),
                        p99_seconds=float(stats.p99_seconds),
                    )
                )
    return points

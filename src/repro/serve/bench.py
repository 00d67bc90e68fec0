"""Serving benchmark core: the amortization sweep.

Shared by ``python -m repro bench-serve`` and
``benchmarks/bench_serve_throughput.py`` (which commits the
``BENCH_serve.json`` artifact) so both measure the same way.

:func:`amortization_sweep` is *deterministic, simulated*: for each batch
size, it runs the same root set through one
:meth:`~repro.serve.msbfs.MultiSourceBFS.run_batch` and compares the
amortized simulated cost per query against the single-root sequential
baseline.  No asyncio, no wall clocks — bit-stable run to run, so CI
gates it (the batch=64 factor must stay >= 4x) and drift-gates the
artifact.  Wall-clock serving is measured by the layer bench's
``serve_open`` / ``cluster_diurnal`` workloads
(``benchmarks/layers/``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.core.engine import DistributedBFS
from repro.core.setup import build_setup
from repro.serve.msbfs import MultiSourceBFS

__all__ = [
    "AmortizationPoint",
    "amortization_sweep",
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


"""Serving benchmark core: the amortization sweep.

Shared by ``python -m repro bench-serve`` (:func:`run_amortization_bench`)
and ``benchmarks/bench_serve_throughput.py`` (which commits the
``BENCH_serve.json`` artifact) so both measure the same way.

:func:`amortization_sweep` is *deterministic, simulated*: for each batch
size, it runs the same root set through one
:meth:`~repro.core.engine.DistributedBFS.run_batch` and compares the
amortized simulated cost per query against the same engine's
single-root runs.  No asyncio, no wall clocks — bit-stable run to run,
so CI gates it (the batch=64 factor must stay >= 4x) and drift-gates the
artifact.  Wall-clock serving is measured by the layer bench's
``serve_open`` / ``cluster_diurnal`` workloads
(``benchmarks/layers/``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.core.engine import DistributedBFS
from repro.core.setup import build_setup

__all__ = [
    "AmortizationPoint",
    "amortization_sweep",
    "build_serving_engine",
    "run_amortization_bench",
    "serving_engine",
]


def build_serving_engine(
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
    """Build the serving engine over one graph, on the plain (not
    weak-scaling-normalised) machine model — see :mod:`repro.core.setup`
    for why serving uses that one."""
    setup = build_setup(
        scale, rows, cols, seed=seed, weak_scaled=False,
        e_threshold=e_threshold, h_threshold=h_threshold,
    )
    return serving_engine(setup, tracer=tracer, metrics=metrics)


def serving_engine(setup, *, tracer=None, metrics=None) -> DistributedBFS:
    """The one engine that serves ``setup``'s graph: batches, programs
    and single roots all run on it.  ``tracer``/``metrics`` (optional)
    attach to it, so scheduler spans land in the caller's sinks."""
    return DistributedBFS(
        setup.partition(), machine=setup.machine, config=setup.config(),
        tracer=tracer, metrics=metrics,
    )


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
    engine,
    roots: np.ndarray,
    *,
    batch_sizes=(1, 4, 16, 64),
) -> list[AmortizationPoint]:
    """Amortized simulated cost per query, batch size by batch size.

    Each point batches the first ``b`` roots and compares against the
    same roots run one at a time on the same ``engine``.  Everything is
    simulated time from the shared
    :class:`~repro.runtime.ledger.TrafficLedger`, so the sweep is
    bit-stable and CI-gateable.
    """
    roots = np.asarray(roots, dtype=np.int64)
    seq = {int(r): engine.run(int(r)) for r in np.unique(roots)}
    points = []
    for b in batch_sizes:
        if b > roots.size:
            continue
        chunk = roots[:b]
        batch = engine.run_batch(chunk)
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


def run_amortization_bench(
    *, scale: int, rows: int, cols: int, seed: int, e_threshold=None,
    h_threshold=None, batch_sizes=(1, 4, 16, 64), out=None,
) -> tuple[list[AmortizationPoint], str]:
    """``python -m repro bench-serve``: :func:`amortization_sweep` over
    ``max(batch_sizes)`` seeded Graph500 roots of one generated graph.

    ``out`` writes the sweep as a ``repro.bench_serve/2`` JSON artifact.
    Returns the points and the text the CLI prints.
    """
    from repro.analysis.reporting import ascii_table
    from repro.graph500.driver import sample_roots
    from repro.obs.export import write_json

    engine = build_serving_engine(
        scale, rows, cols, seed=seed, e_threshold=e_threshold,
        h_threshold=h_threshold,
    )
    roots = sample_roots(
        engine.part.degrees, max(batch_sizes),
        rng=np.random.default_rng(seed),
    )
    points = amortization_sweep(engine, roots, batch_sizes=batch_sizes)
    lines = [ascii_table(
        ["batch", "sim s/query", "sequential s", "amortization",
         "bytes ratio", "waves"],
        [
            [p.batch_size, f"{p.amortized_seconds:.3e}",
             f"{p.sequential_seconds:.3e}",
             f"{p.amortization_factor:.1f}x",
             f"{p.batch_bytes / p.sequential_bytes:.2f}", p.waves]
            for p in points
        ],
        title=f"amortized simulated cost per query "
              f"(SCALE {scale}, {rows}x{cols}):",
    )]
    if out:
        path = write_json(out, {
            "schema": "repro.bench_serve/2",
            "config": dict(scale=scale, rows=rows, cols=cols, seed=seed),
            "amortization": [p.to_dict() for p in points],
        })
        lines.append(f"json: {path}")
    return points, "\n".join(lines)

"""Serving amortization benchmark — batched vs sequential cost per query.

One table, one artifact (``results/BENCH_serve.json``): the same 64
roots run as one multi-source batch vs 64 sequential traversals, at
batch sizes 1, 4, 16 and 64.  Every number is simulated, so the file is
bit-stable run to run: CI gates the batch=64 amortized cost per query at
least 4x below the single-root baseline and fails on any drift of the
committed artifact.  Wall-clock serving is measured by the layer
bench's ``serve_open`` / ``cluster_diurnal`` workloads
(``benchmarks/layers/``).

Refresh after an intentional model change::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve_throughput.py -q
"""

import json

import numpy as np
from conftest import emit

from repro.graph500.driver import sample_roots
from repro.serve.bench import amortization_sweep, build_serving_engine

ARTIFACT_NAME = "BENCH_serve.json"
SCALE, ROWS, COLS, SEED = 10, 2, 2, 7
E_THRESHOLD, H_THRESHOLD = 128, 16
MIN_AMORTIZATION_AT_64 = 4.0


def render(amortization) -> str:
    lines = [
        f"serving benchmark: SCALE-{SCALE}, {ROWS}x{COLS} mesh, seed {SEED}",
        "",
        "amortization (simulated, deterministic)",
        f"{'batch':>6} {'s/query':>12} {'seq s/query':>12} "
        f"{'factor':>8} {'bytes ratio':>12} {'waves':>6}",
    ]
    for p in amortization:
        lines.append(
            f"{p.batch_size:>6} {p.amortized_seconds:>12.3e} "
            f"{p.sequential_seconds / p.batch_size:>12.3e} "
            f"{p.amortization_factor:>8.2f} "
            f"{p.batch_bytes / p.sequential_bytes:>12.3f} {p.waves:>6}"
        )
    return "\n".join(lines)


def test_serve_throughput(benchmark, results_dir):
    engine = build_serving_engine(
        SCALE, ROWS, COLS, seed=SEED,
        e_threshold=E_THRESHOLD, h_threshold=H_THRESHOLD,
    )
    roots = sample_roots(
        engine.part.degrees, 64, rng=np.random.default_rng(SEED)
    )

    amortization = benchmark.pedantic(
        lambda: amortization_sweep(engine, roots, batch_sizes=(1, 4, 16, 64)),
        rounds=1, iterations=1,
    )

    # The tentpole gate: batched queries amortize the traversal.
    at64 = next(p for p in amortization if p.batch_size == 64)
    assert at64.amortization_factor >= MIN_AMORTIZATION_AT_64, (
        f"batch=64 amortization {at64.amortization_factor:.2f}x fell "
        f"below the {MIN_AMORTIZATION_AT_64}x floor"
    )
    # Batching must also move strictly fewer ledger bytes.
    assert at64.batch_bytes < at64.sequential_bytes

    artifact = {
        "schema": "repro.bench_serve/2",
        "config": dict(
            scale=SCALE, rows=ROWS, cols=COLS, seed=SEED,
            e_threshold=E_THRESHOLD, h_threshold=H_THRESHOLD,
        ),
        "amortization": [p.to_dict() for p in amortization],
    }
    path = results_dir / ARTIFACT_NAME
    path.write_text(json.dumps(artifact, indent=2) + "\n")
    emit(results_dir, "serve_throughput", render(amortization))

    benchmark.extra_info["amortization_x64"] = round(
        at64.amortization_factor, 2
    )
    benchmark.extra_info["artifact"] = str(path)

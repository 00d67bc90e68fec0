"""Shared pieces of the layer bench: the contract, sizes, statistics,
the host fingerprint and the graph builders every workload starts from.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.config import BFSConfig
from repro.core.partition import partition_graph
from repro.graph500.rmat import generate_edges
from repro.graph500.validate import ValidationError, validate_bfs_result
from repro.graphs.csr import build_csr, symmetrize_edges
from repro.machine.network import MachineSpec
from repro.runtime.mesh import ProcessMesh

from spans import maybe_span

HERE = Path(__file__).resolve().parent
CONTRACT_PATH = HERE.parent.parent / "BENCHMARK.json"
OUT_DIR = HERE / "out"

#: Class thresholds that populate all six components on R-MAT
#: (E≈2.5k / H≈12k / L≈51k vertices at scale 16).
E_THRESHOLD = 128
H_THRESHOLD = 16
CONFIG = BFSConfig(e_threshold=E_THRESHOLD, h_threshold=H_THRESHOLD)

#: The graphs are the datasets: one fixed instance per size, whatever
#: ``--seed`` is.  The seed draws what is asked of them — roots, arrival
#: times, update batches.  (Graph instances of one scale differ in
#: traversal time, which would sit on top of the host's noise in every
#: spread.)
GRAPH_SEED = 20220402

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

COMPONENTS = ("EH2EH", "E2L", "L2E", "H2L", "L2H", "L2L")


@dataclass(frozen=True)
class Sizes:
    """Graph sizes; ``--tiny`` shrinks them for the smoke test."""

    bfs_scale: int = 16
    ring_log2: int = 16
    serve_scale: int = 14
    tenant_scale: int = 13
    ingest_scale: int = 15
    mesh: tuple = (4, 4)
    roots_per_pass: int = 64
    open_rate: float = 20.0
    cluster_rate: float = 20.0
    closed_clients: int = 64


TINY = Sizes(
    bfs_scale=10, ring_log2=10, serve_scale=10, tenant_scale=9,
    ingest_scale=10, mesh=(2, 2), roots_per_pass=16,
)


def load_contract() -> dict:
    with open(CONTRACT_PATH) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def percentile(samples, q: float) -> float:
    """``q``-th percentile, 0.0 of no samples (a tenant nobody asked)."""
    values = np.asarray(samples, dtype=np.float64)
    return float(np.percentile(values, q)) if values.size else 0.0


def summarize(samples) -> dict:
    """Sample count, median and quartiles of one timing."""
    values = [float(v) for v in samples]
    if not values:
        return {"n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "n": len(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
    }


def spread(values) -> float:
    """Interquartile distance as a share of the median (the driver's
    steadiness measure)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# host
# ----------------------------------------------------------------------

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def host_fingerprint() -> dict:
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        model = platform.processor()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loadavg_1m": os.getloadavg()[0],
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "argv": sys.argv[1:],
    }


def host_is_quiet(fingerprint: dict) -> bool:
    """Gating needs an idle host: more runnable tasks than CPUs means
    the timings measure the neighbours."""
    return fingerprint["loadavg_1m"] <= fingerprint["nproc"]


# ----------------------------------------------------------------------
# graph builders
# ----------------------------------------------------------------------


def make_mesh(shape):
    rows, cols = shape
    machine = MachineSpec(num_nodes=rows * cols, nodes_per_supernode=cols)
    return machine, ProcessMesh(rows, cols, machine=machine)


def rmat_edges(scale: int, rec=None, instance: int = 0):
    """The R-MAT graph of one scale (``instance`` tells tenants apart)."""
    with maybe_span(rec, "graph500.generate"):
        return generate_edges(scale, seed=GRAPH_SEED + instance)


def build_partition(src, dst, num_vertices: int, mesh, rec=None):
    with maybe_span(rec, "partition.partition"):
        part = partition_graph(
            src, dst, num_vertices, mesh,
            e_threshold=E_THRESHOLD, h_threshold=H_THRESHOLD,
        )
    if rec is not None:
        rec.counts["partition.arcs"] += part.total_arcs
    return part


def graph500_failures(src, dst, num_vertices, parents: dict, rec=None) -> int:
    """Run ``{root: parent}`` through the Graph500 validator; returns
    how many parent arrays it rejects."""
    with maybe_span(rec, "graph500.validate"):
        graph = build_csr(*symmetrize_edges(src, dst), num_vertices)
        failures = 0
        for root, parent in parents.items():
            try:
                validate_bfs_result(
                    graph, root, parent, edge_src=src, edge_dst=dst
                )
            except ValidationError as exc:
                print(f"validation failed for root {root}: {exc}", file=sys.stderr)
                failures += 1
    return failures

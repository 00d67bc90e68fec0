"""repro — reproduction of "Scaling Graph Traversal to 281 Trillion Edges
with 40 Million Cores" (Cao et al., PPoPP 2022).

The package implements the paper's full system on a simulated New Sunway
machine:

- :mod:`repro.graph500` — spec-conforming R-MAT generation, reference BFS,
  and result validation.
- :mod:`repro.graphs` — CSR storage and degree statistics.
- :mod:`repro.machine` — SW26010-Pro chip and fat-tree interconnect models.
- :mod:`repro.runtime` — simulated SPMD runtime (process mesh, communicator,
  traffic ledger).
- :mod:`repro.sort` — OCS-RMA on-chip sorting and the MPE bucketing
  baseline.
- :mod:`repro.core` — the paper's contribution: 3-level degree-aware 1.5D
  partitioning (one packed-key sort per component, priced as kernel 1 by
  :func:`~repro.core.preprocessing.construction_ledger`), sub-iteration
  direction optimization, CG-aware segmenting, and the distributed BFS
  engine.
- :mod:`repro.baselines` — 1D, 1D+heavy-delegates, and 2D BFS engines.
- :mod:`repro.analysis` — breakdown collection and report rendering.
- :mod:`repro.obs` — span-based tracing/profiling with Chrome-trace,
  flame-text, and CSV exporters.

Quickstart::

    from repro.core import DistributedBFS
    from repro.core.setup import build_setup

    setup = build_setup(scale=16, rows=4, cols=4, seed=1)
    engine = DistributedBFS(
        setup.partition(), machine=setup.machine, config=setup.config()
    )
    result = engine.run(setup.root)
    print(result.simulated_gteps())

:func:`repro.core.setup.build_setup` is the one path from an edge list
to an engine (thresholds, R-MAT generation, machine, mesh, partition);
every command, bench and tenant starts from it.
"""

from repro.graph500 import (
    Graph500Problem,
    direction_optimizing_bfs,
    generate_edges,
    serial_bfs,
    validate_bfs_result,
)
from repro.graphs import CSRGraph, build_csr, symmetrize_edges
from repro.obs import NullTracer, Tracer

__version__ = "1.0.0"

__all__ = [
    "Graph500Problem",
    "generate_edges",
    "serial_bfs",
    "direction_optimizing_bfs",
    "validate_bfs_result",
    "CSRGraph",
    "build_csr",
    "symmetrize_edges",
    "Tracer",
    "NullTracer",
    "__version__",
]

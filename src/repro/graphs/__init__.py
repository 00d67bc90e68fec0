"""Graph storage and statistics substrate.

This subpackage provides the in-memory graph representations shared by the
Graph500 reference implementations, the baseline engines, and the 1.5D
partitioned engine:

- :mod:`repro.graphs.csr` — compressed sparse row adjacency built from raw
  edge arrays with vectorized counting sort.
- :mod:`repro.graphs.stats` — degree statistics and the log-binned degree
  histogram used for Figure 2 and for threshold selection.
"""

from repro.graphs.csr import CSRGraph, build_csr, symmetrize_edges
from repro.graphs.generators import (
    erdos_renyi_edges,
    power_law_edges,
    ring_lattice_edges,
    star_forest_edges,
)
from repro.graphs.stats import (
    degree_histogram,
    degree_peaks,
    degrees_from_edges,
    gini_coefficient,
)

__all__ = [
    "CSRGraph",
    "build_csr",
    "symmetrize_edges",
    "degrees_from_edges",
    "degree_histogram",
    "degree_peaks",
    "gini_coefficient",
    "erdos_renyi_edges",
    "power_law_edges",
    "star_forest_edges",
    "ring_lattice_edges",
]

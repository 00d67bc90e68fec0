"""Graph500 specification constants and problem descriptor.

The benchmark (Murphy et al., "Introducing the Graph 500") generates a
Kronecker graph with ``2**SCALE`` vertices and ``edgefactor * 2**SCALE``
undirected edges using the R-MAT recursive quadrant model with the
probabilities below, then measures traversed edges per second for BFS from
64 random roots.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "RMAT_A",
    "RMAT_B",
    "RMAT_C",
    "RMAT_D",
    "DEFAULT_EDGE_FACTOR",
    "NUM_BFS_ROOTS",
    "Graph500Problem",
]

#: R-MAT quadrant probabilities fixed by the Graph500 specification.
RMAT_A = 0.57
RMAT_B = 0.19
RMAT_C = 0.19
RMAT_D = 1.0 - (RMAT_A + RMAT_B + RMAT_C)  # = 0.05

#: Undirected edges per vertex fixed by the specification.
DEFAULT_EDGE_FACTOR = 16

#: Number of random BFS roots a conforming run averages over.
NUM_BFS_ROOTS = 64


@dataclass(frozen=True)
class Graph500Problem:
    """A Graph500 problem instance descriptor.

    The paper's headline run is ``Graph500Problem(scale=44)``: 2^44 ≈ 17.6
    trillion vertices and 16 * 2^44 ≈ 281 trillion undirected edges.  The
    reproduction runs laptop-feasible scales (16-24) and relies on R-MAT's
    self-similarity for shape fidelity (see DESIGN.md §2).
    """

    scale: int

    def __post_init__(self) -> None:
        if self.scale < 1:
            raise ValueError(f"scale must be >= 1, got {self.scale}")

    @property
    def num_vertices(self) -> int:
        """Vertex count 2**scale."""
        return 1 << self.scale

    @property
    def num_edges(self) -> int:
        """Undirected edge count edgefactor * 2**scale (before dedup)."""
        return DEFAULT_EDGE_FACTOR << self.scale

    def gteps(self, seconds: float) -> float:
        """Giga-traversed-edges-per-second for a BFS time on this problem.

        Graph500 counts the number of *input* edges (edgefactor * 2^scale)
        regardless of duplicates or self loops.
        """
        if seconds <= 0:
            raise ValueError("seconds must be positive")
        return self.num_edges / seconds / 1e9

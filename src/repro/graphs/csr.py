"""Compressed sparse row (CSR) adjacency structures.

The whole reproduction works on flat ``int64`` numpy arrays; a graph is a pair
of arc arrays ``(src, dst)`` until it is frozen into a :class:`CSRGraph` for
traversal.  Construction uses a vectorized counting sort (``np.bincount`` +
prefix sums) rather than ``argsort`` — this is O(m) and is the same
construction the paper performs with its in-place global sort during
preprocessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["CSRGraph", "build_csr", "symmetrize_edges"]


def symmetrize_edges(
    src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Turn an undirected edge list into a directed arc list.

    Every undirected edge ``{u, v}`` contributes the two arcs ``(u, v)`` and
    ``(v, u)``.  Graph500 permits self loops and duplicate edges in the input;
    self loops carry no information for BFS (a vertex cannot be its own
    parent unless it is the root) so they are dropped, matching what every
    published Graph500 implementation does during construction.

    Returns the concatenated ``(src, dst)`` arc arrays.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError(f"src/dst shape mismatch: {src.shape} vs {dst.shape}")
    keep = src != dst
    src, dst = src[keep], dst[keep]
    return np.concatenate([src, dst]), np.concatenate([dst, src])


def build_csr(src: np.ndarray, dst: np.ndarray, num_vertices: int) -> "CSRGraph":
    """Build a :class:`CSRGraph` from directed arc arrays.

    Parameters
    ----------
    src, dst:
        Arc endpoint arrays of equal length.  For an undirected traversal
        graph pass the output of :func:`symmetrize_edges`.
    num_vertices:
        Number of vertices ``n``; all arc endpoints must lie in ``[0, n)``.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError(f"src/dst shape mismatch: {src.shape} vs {dst.shape}")
    if src.size:
        lo = min(src.min(), dst.min())
        hi = max(src.max(), dst.max())
        if lo < 0 or hi >= num_vertices:
            raise ValueError(
                f"arc endpoints [{lo}, {hi}] out of range for n={num_vertices}"
            )

    counts = np.bincount(src, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])

    # A stable sort groups arcs by source, keeping input order within a row.
    indices = dst[np.argsort(src, kind="stable")]

    return CSRGraph(num_vertices=num_vertices, indptr=indptr, indices=indices)


@dataclass(frozen=True)
class CSRGraph:
    """A frozen CSR adjacency structure.

    Attributes
    ----------
    num_vertices:
        Vertex count ``n``; vertex IDs are ``0..n-1``.
    indptr:
        ``int64[n + 1]`` row pointer; the neighbors of ``v`` are
        ``indices[indptr[v]:indptr[v + 1]]``.
    indices:
        ``int64[m]`` flattened adjacency.
    """

    num_vertices: int
    indptr: np.ndarray
    indices: np.ndarray
    _degrees: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.indptr.shape != (self.num_vertices + 1,):
            raise ValueError("indptr must have length num_vertices + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr endpoints inconsistent with indices")

    @property
    def num_arcs(self) -> int:
        """Number of directed arcs stored (2x the undirected edge count)."""
        return int(self.indices.size)

    @property
    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex (``int64[n]``)."""
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """Adjacency list of ``v`` as a view into ``indices``."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """Reconstruct the flat ``(src, dst)`` arc arrays."""
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.degrees)
        return src, self.indices.copy()

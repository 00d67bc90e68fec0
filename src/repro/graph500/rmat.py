"""R-MAT / Kronecker edge generation (Graph500 specification).

R-MAT (Chakrabarti et al., 2004) places each edge by recursively descending
``scale`` levels of the adjacency matrix, choosing one of four quadrants per
level with probabilities ``(A, B, C, D)``.  The Graph500 configuration is
``A=0.57, B=0.19, C=0.19, D=0.05`` with edge factor 16, producing an
extremely skewed, multi-peak degree distribution (paper Fig. 2).

The generator below is fully vectorized: one boolean draw per (edge, level)
for each of the two endpoint bits, i.e. O(m * scale) work with no Python
loops over edges.  Vertex labels are scrambled with a seeded random
permutation as required by the specification (without scrambling, low vertex
IDs would correlate with high degree, which would make block vertex
distribution pathologically imbalanced).
"""

from __future__ import annotations

import numpy as np

from repro.graph500.spec import DEFAULT_EDGE_FACTOR, RMAT_A, RMAT_B, RMAT_C

__all__ = ["RMAT_CHUNK_EDGES", "rmat_edges", "scramble_vertices", "generate_edges"]

#: Edges one vectorized draw generates; bounds its scratch at roughly
#: ``2 * RMAT_CHUNK_EDGES * 8`` bytes per level.
RMAT_CHUNK_EDGES = 1 << 22


def rmat_edges(
    scale: int,
    num_edges: int,
    *,
    a: float = RMAT_A,
    b: float = RMAT_B,
    c: float = RMAT_C,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate ``num_edges`` R-MAT edges over ``2**scale`` vertices.

    Parameters
    ----------
    scale:
        log2 of the vertex count.
    num_edges:
        Number of undirected edges to emit (duplicates and self loops may
        occur, as the specification allows).
    a, b, c:
        Quadrant probabilities; ``d = 1 - a - b - c`` must be nonnegative.
    rng, seed:
        Randomness; pass exactly one (or neither for a fresh default rng).

    Edges are drawn :data:`RMAT_CHUNK_EDGES` at a time, which bounds the
    scratch memory of one vectorized chunk.

    Returns
    -------
    ``(src, dst)`` int64 arrays of length ``num_edges``.
    """
    if rng is not None and seed is not None:
        raise ValueError("pass either rng or seed, not both")
    if rng is None:
        rng = np.random.default_rng(seed)
    d = 1.0 - (a + b + c)
    if min(a, b, c, d) < 0 or max(a, b, c) > 1:
        raise ValueError(f"invalid quadrant probabilities a={a} b={b} c={c} d={d}")
    if scale < 1:
        raise ValueError("scale must be >= 1")
    if num_edges < 0:
        raise ValueError("num_edges must be >= 0")

    src = np.empty(num_edges, dtype=np.int64)
    dst = np.empty(num_edges, dtype=np.int64)
    for start in range(0, num_edges, RMAT_CHUNK_EDGES):
        stop = min(start + RMAT_CHUNK_EDGES, num_edges)
        s, t = _rmat_chunk(scale, stop - start, a, b, c, rng)
        src[start:stop] = s
        dst[start:stop] = t
    return src, dst


def _rmat_chunk(
    scale: int, m: int, a: float, b: float, c: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized quadrant descent for one chunk of ``m`` edges."""
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    # Per level: draw u in [0,1); src bit set iff u >= a + b (lower half),
    # dst bit set iff u lands in quadrant B or D.  Equivalent to the nested
    # conditional probabilities of classic R-MAT.
    ab = a + b
    for _level in range(scale):
        u = rng.random(m)
        src_bit = u >= ab
        # Within the top half, P(dst bit) = b / (a + b); within the bottom
        # half, P(dst bit) = d / (c + d).  Draw a second variate for the
        # column choice, conditioned on the row choice.
        v = rng.random(m)
        thresh = np.where(src_bit, c / (1.0 - ab) if ab < 1.0 else 0.0, a / ab if ab > 0 else 0.0)
        dst_bit = v >= thresh
        src = (src << 1) | src_bit
        dst = (dst << 1) | dst_bit
    return src, dst


def scramble_vertices(
    src: np.ndarray,
    dst: np.ndarray,
    num_vertices: int,
    *,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply a random vertex-label permutation to an edge list.

    Graph500 requires vertex labels to be scrambled so that the benchmark
    cannot exploit the correlation between R-MAT vertex index and degree.
    The permutation is drawn from ``rng``/``seed``.
    """
    if rng is not None and seed is not None:
        raise ValueError("pass either rng or seed, not both")
    if rng is None:
        rng = np.random.default_rng(seed)
    perm = rng.permutation(num_vertices).astype(np.int64)
    return perm[np.asarray(src, dtype=np.int64)], perm[np.asarray(dst, dtype=np.int64)]


def generate_edges(
    scale: int,
    *,
    edge_factor: int = DEFAULT_EDGE_FACTOR,
    seed: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate a Graph500-conforming edge list for ``scale``.

    Convenience wrapper producing ``edge_factor * 2**scale`` R-MAT edges
    with the Graph500 initiator, scrambled, from a single deterministic
    seed.  This is the entry point the benchmark harness and examples use.
    """
    rng = np.random.default_rng(seed)
    n = 1 << scale
    src, dst = rmat_edges(scale, edge_factor * n, rng=rng)
    return scramble_vertices(src, dst, n, rng=rng)

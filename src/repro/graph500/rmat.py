"""R-MAT / Kronecker edge generation (Graph500 specification).

R-MAT (Chakrabarti et al., 2004) places each edge by recursively descending
``scale`` levels of the adjacency matrix, choosing one of four quadrants per
level with probabilities ``(A, B, C, D)``.  The Graph500 configuration is
``A=0.57, B=0.19, C=0.19, D=0.05`` with edge factor 16, producing an
extremely skewed, multi-peak degree distribution (paper Fig. 2).

The generator below is fully vectorized: two uniform float draws per
(edge, level), one for the row bit and one for the column bit, i.e.
O(m * scale) work with no Python loops over edges.  Each level draws into
one reused buffer and shifts its bits into in-place accumulators, so the
RNG stream is most of the cost.  Vertex labels are scrambled with a
seeded random permutation as required by the specification (without
scrambling, low vertex IDs would correlate with high degree, which would
make block vertex distribution pathologically imbalanced).
"""

from __future__ import annotations

import numpy as np

from repro.graph500.spec import DEFAULT_EDGE_FACTOR, RMAT_A, RMAT_B, RMAT_C

__all__ = ["RMAT_CHUNK_EDGES", "rmat_edges", "scramble_vertices", "generate_edges"]

#: Edges one vectorized draw generates; bounds its scratch, reused by
#: every level and chunk, at one float64 draw buffer, two boolean bit
#: buffers and two accumulators of at most 8 bytes per edge — at most
#: ``RMAT_CHUNK_EDGES * 26`` bytes.
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
    scratch memory of the vectorized loop.

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
    chunk = min(RMAT_CHUNK_EDGES, num_edges)
    draw = np.empty(chunk)
    row_bit = np.empty(chunk, dtype=bool)
    col_bit = np.empty(chunk, dtype=bool)
    acc_type = np.min_scalar_type((1 << scale) - 1)
    s_acc = np.empty(chunk, dtype=acc_type)
    d_acc = np.empty(chunk, dtype=acc_type)
    # Per level: draw u in [0,1); the row (src) bit is set iff u >= a + b.
    # A second draw v sets the column (dst) bit iff v >= the row's
    # threshold: P(dst bit) is b / (a + b) in the top half and d / (c + d)
    # in the bottom half.  Equivalent to the nested conditional
    # probabilities of classic R-MAT.
    ab = a + b
    thresh = (a / ab if ab > 0 else 0.0, c / (1.0 - ab) if ab < 1.0 else 0.0)
    # v >= the higher threshold sets the bit on either row; between the
    # two, only on the row whose threshold is the lower one.
    low_row = int(thresh[1] < thresh[0])
    low, high = thresh[low_row], thresh[1 - low_row]
    for start in range(0, num_edges, RMAT_CHUNK_EDGES):
        m = min(RMAT_CHUNK_EDGES, num_edges - start)
        u, row, col = draw[:m], row_bit[:m], col_bit[:m]
        s, t = s_acc[:m], d_acc[:m]
        s.fill(0)
        t.fill(0)
        for _level in range(scale):
            rng.random(out=u)
            np.greater_equal(u, ab, out=row)
            s <<= 1
            s |= row
            rng.random(out=u)
            np.greater_equal(u, high, out=col)
            t <<= 1
            t |= col
            np.greater_equal(u, low, out=col)
            if low_row:
                col &= row
            else:
                np.greater(col, row, out=col)  # col & ~row
            t |= col
        src[start : start + m] = s
        dst[start : start + m] = t
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

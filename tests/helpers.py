"""Shared test utilities: small random graphs and reference comparisons."""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph, build_csr, symmetrize_edges


def random_edge_list(
    n: int, m: int, seed: int = 0, *, allow_self_loops: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform random undirected edge list on n vertices (may duplicate)."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m, dtype=np.int64)
    dst = rng.integers(0, n, size=m, dtype=np.int64)
    if not allow_self_loops:
        loops = src == dst
        dst[loops] = (dst[loops] + 1) % n
    return src, dst


def random_graph(n: int, m: int, seed: int = 0) -> CSRGraph:
    """Symmetrized CSR of a uniform random edge list."""
    src, dst = random_edge_list(n, m, seed)
    a_src, a_dst = symmetrize_edges(src, dst)
    return build_csr(a_src, a_dst, n)


def path_graph(n: int) -> CSRGraph:
    """0 - 1 - 2 - ... - (n-1)."""
    src = np.arange(n - 1, dtype=np.int64)
    dst = src + 1
    a_src, a_dst = symmetrize_edges(src, dst)
    return build_csr(a_src, a_dst, n)


def star_graph(n: int) -> CSRGraph:
    """Hub 0 connected to 1..n-1."""
    src = np.zeros(n - 1, dtype=np.int64)
    dst = np.arange(1, n, dtype=np.int64)
    a_src, a_dst = symmetrize_edges(src, dst)
    return build_csr(a_src, a_dst, n)


def levels_agree(level_a: np.ndarray, level_b: np.ndarray) -> bool:
    """BFS trees are non-unique, but levels are; compare via levels."""
    return bool(np.array_equal(level_a, level_b))


def lane_population(bits: np.ndarray, num_lanes: int = 64) -> np.ndarray:
    """Per-lane set-bit counts of a lane-word array — the definition the
    running counts of :class:`repro.core.lanes.LaneState` are tested
    against: explode each ``uint64`` into its 64 bits (little-endian, so
    column ``l`` is lane ``l``) and sum columns."""
    if bits.size == 0:
        return np.zeros(num_lanes, dtype=np.int64)
    as_bytes = np.ascontiguousarray(bits).view(np.uint8).reshape(bits.size, 8)
    if not np.little_endian:  # pragma: no cover - big-endian hosts
        as_bytes = as_bytes[:, ::-1]
    cols = np.unpackbits(as_bytes, axis=1, bitorder="little")
    return cols.sum(axis=0, dtype=np.int64)[:num_lanes]

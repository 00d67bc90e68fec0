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


def lane_updates(acts) -> list[tuple[int, list[int], list[int]]]:
    """A :class:`repro.core.lanes.LaneActivations` as per-lane
    ``(lane, dsts ascending, parents)`` lists, lanes ascending — the
    shape the lane-by-lane commits produced — after checking that its
    per-vertex words are the OR of its triples' lane bits."""
    out = {}
    for lane, dst, parent in zip(
        acts.lane.tolist(), acts.dst.tolist(), acts.parent.tolist()
    ):
        out.setdefault(lane, []).append((dst, parent))
    words = {}
    for lane, pairs in out.items():
        for dst, _ in pairs:
            words[dst] = words.get(dst, 0) | (1 << lane)
    assert acts.vertices.tolist() == sorted(words)
    assert acts.words.dtype == np.uint64
    assert [int(w) for w in acts.words] == [words[v] for v in sorted(words)]
    return [
        (lane, [d for d, _ in sorted(pairs)], [p for _, p in sorted(pairs)])
        for lane, pairs in sorted(out.items())
    ]


def per_lane_claims(keys, words):
    """:func:`repro.core.lanes.claim_lanes`'s result, one lane at a time:
    per lane, a stable sort of the entries carrying it and the first of
    each key's run — the loop the batched commits ran before the claim
    was word-parallel.  A drop-in replacement for ``claim_lanes``."""
    from repro.core.lanes import iter_lanes, lane_bit

    won = np.zeros(keys.size, dtype=np.uint64)
    for lane in iter_lanes(np.bitwise_or.reduce(words, initial=np.uint64(0))):
        bit = lane_bit(lane)
        hits = np.flatnonzero(words & bit)
        order = np.argsort(keys[hits], kind="stable")
        first = np.ones(hits.size, dtype=bool)
        first[1:] = keys[hits][order][1:] != keys[hits][order][:-1]
        won[hits[order][first]] |= bit
    win = np.flatnonzero(won)
    win = win[np.lexsort((win, keys[win]))]
    if keys.size == 0:
        return win, won[win], keys[:0], words[:0]
    order = np.argsort(keys, kind="stable")
    head = np.flatnonzero(np.diff(keys[order], prepend=-1))
    key_words = np.bitwise_or.reduceat(words[order], head)
    return win, won[win], keys[order][head], key_words

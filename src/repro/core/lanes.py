"""Bit-packed lane state for multi-source (batched) traversal.

A *lane* is one BFS rooted at one vertex.  Up to 64 lanes share a single
level-synchronous wave: per vertex, one ``uint64`` word holds the lane
membership bits of the frontier (``active``) and of the visited set
(``visited``), so a batched sub-iteration touches each arc once for all
lanes instead of once per root (Buluç & Madduri's amortization argument;
"MS-BFS" bit-parallelism).

The representation is deliberately *exact* with respect to the
sequential engine: lane ``l``'s view of ``active``/``visited`` — bit
``l`` of each word — evolves exactly as the boolean masks of a
single-root run from ``roots[l]`` would, because the batched kernels
select the same arcs in the same deterministic order per lane.  That is
what lets the serving layer promise parent trees bit-identical to
per-root runs.

Everything here is engine-agnostic: plain bit plumbing, plus running
per-lane population counts by vertex class — kept at commit time, the
way the bitmask frontiers of Pan–Pearce–Owens and Bisson et al. are —
so that the §4.2 direction heuristics, the frontier sizes and the
activation records read ``num_lanes`` integers instead of re-counting
``n`` lane words before every sub-iteration.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MAX_LANES",
    "LaneState",
    "lane_bit",
    "iter_lanes",
    "all_lanes_mask",
]

#: Width of the lane word: one bit per concurrent root.
MAX_LANES = 64

#: Vertex classes the running counts are kept by: the L, H, E codes of
#: :class:`~repro.core.partition.VertexClass`.
NUM_CLASSES = 3

_ONE = np.uint64(1)


def lane_bit(lane: int) -> np.uint64:
    """The single-bit mask of lane ``lane``."""
    return _ONE << np.uint64(lane)


def all_lanes_mask(num_lanes: int) -> np.uint64:
    """Mask with the low ``num_lanes`` bits set."""
    if not 1 <= num_lanes <= MAX_LANES:
        raise ValueError(f"num_lanes must be in [1, {MAX_LANES}]")
    if num_lanes == MAX_LANES:
        return np.uint64(0xFFFFFFFFFFFFFFFF)
    return np.uint64((1 << num_lanes) - 1)


def iter_lanes(mask) -> list[int]:
    """Lane indices whose bit is set in ``mask`` (ascending)."""
    m = int(mask)
    lanes = []
    while m:
        low = m & -m
        lanes.append(low.bit_length() - 1)
        m ^= low
    return lanes


class LaneState:
    """Frontier/visited/parent state of up to 64 concurrent BFS lanes.

    ``vclass`` is the per-vertex class code
    (:attr:`~repro.core.partition.PartitionedGraph.vclass`).  Beside the
    lane words the state keeps ``[lane, class]`` population counts of
    the frontier, the visited set and this level's activations; they are
    the integers a popcount of lane ``l``'s bit over each class would
    give, maintained by :meth:`commit` and :meth:`advance`.
    """

    def __init__(self, num_vertices: int, roots, vclass: np.ndarray) -> None:
        roots = np.asarray(roots, dtype=np.int64)
        if roots.ndim != 1 or not 1 <= roots.size <= MAX_LANES:
            raise ValueError(
                f"batch must hold 1..{MAX_LANES} roots, got shape {roots.shape}"
            )
        if np.unique(roots).size != roots.size:
            raise ValueError("batch roots must be distinct")
        if roots.min() < 0 or roots.max() >= num_vertices:
            raise ValueError(f"root out of range for n={num_vertices}")
        if vclass.shape != (num_vertices,):
            raise ValueError(f"vclass must hold one code per vertex, n={num_vertices}")
        self.num_vertices = int(num_vertices)
        self.num_lanes = int(roots.size)
        self.roots = roots
        self.vclass = vclass
        self.lane_mask = all_lanes_mask(self.num_lanes)
        #: Lane membership bits of the current frontier, per vertex.
        self.active = np.zeros(num_vertices, dtype=np.uint64)
        #: Lane membership bits of the visited set, per vertex.
        self.visited = np.zeros(num_vertices, dtype=np.uint64)
        #: Lane membership bits activated so far in this level.
        self.newly = np.zeros(num_vertices, dtype=np.uint64)
        #: Per-lane parent trees, ``parent[lane, vertex]``.
        self.parent = np.full((self.num_lanes, num_vertices), -1, dtype=np.int64)
        lane_ids = np.arange(self.num_lanes)
        bits = _ONE << lane_ids.astype(np.uint64)
        self.active[roots] = bits
        self.visited[roots] = bits
        self.parent[lane_ids, roots] = roots
        #: ``[lane, class]`` populations of ``active`` / ``visited`` / ``newly``.
        self.active_counts = np.zeros((self.num_lanes, NUM_CLASSES), dtype=np.int64)
        self.active_counts[lane_ids, vclass[roots]] = 1
        self.visited_counts = self.active_counts.copy()
        self.newly_counts = np.zeros_like(self.active_counts)

    @property
    def active_lane_mask(self) -> np.uint64:
        """Bits of lanes whose frontier is non-empty."""
        live = np.flatnonzero(self.active_counts.any(axis=1))
        return np.bitwise_or.reduce(_ONE << live.astype(np.uint64))

    def frontier_sizes(self) -> np.ndarray:
        """Per-lane frontier vertex counts."""
        return self.active_counts.sum(axis=1)

    def commit(self, updates) -> int:
        """Apply a sub-iteration's per-lane activations.

        ``updates`` is a list of ``(lane, dsts, parents)`` triples; the
        destinations of each lane must be distinct and fresh (unvisited
        in that lane).  Their bits go into ``visited`` at once, so the
        next sub-iteration of the same wave sees them (§4.2 freshness),
        and into this level's ``newly``; only the words of activated
        vertices are touched.  Returns the number of (vertex, lane)
        pairs activated.
        """
        activated = 0
        for lane, dsts, parents in updates:
            if dsts.size == 0:
                continue
            bit = lane_bit(lane)
            self.parent[lane, dsts] = parents
            self.visited[dsts] |= bit
            self.newly[dsts] |= bit
            counts = np.bincount(self.vclass[dsts], minlength=NUM_CLASSES)
            self.visited_counts[lane] += counts
            self.newly_counts[lane] += counts
            activated += int(dsts.size)
        return activated

    def advance(self) -> None:
        """End of a level: this level's activations become the frontier."""
        self.active = self.newly
        self.newly = np.zeros(self.num_vertices, dtype=np.uint64)
        self.active_counts = self.newly_counts
        self.newly_counts = np.zeros_like(self.active_counts)

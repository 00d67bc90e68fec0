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

**The commit contract.**  Winners are chosen for all lanes at once:
:func:`claim_lanes` hands every lane of a key to the first entry of that
key carrying it — by a sort and a prefix-OR over the key runs, in chunks
of the key range when the entries outnumber it, each chunk first
dropping the lanes earlier chunks won — and
:func:`first_writer_lanes` wraps it as the first-writer-per-destination
rule of the push commits (a group of one lane takes the single-source
:func:`~repro.core.vertexset.first_writers` instead).  A kernel returns
one :class:`LaneActivations`: each activated vertex once with its word of
lanes, plus one flat ``(lane, vertex, parent)`` triple per activated
pair.  :meth:`LaneState.commit` writes the parents in one fancy write,
ORs one word per activated *vertex* into ``visited`` and ``newly``, takes
the ``[lane, class]`` counts from one ``bincount`` and grows the next
level's union frontier (:attr:`LaneState.frontier`, the vertices active
in any lane), which the delegate sync and the push selection read
instead of ``n`` lane words.

**A batch of one** shares no work, so it pays for no words:
the wave gives it a :class:`OneLaneState`, which keeps the lane's sets
the way its single-source run keeps them, and runs its lane's
single-source sub-iterations on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.vertexset import NUM_CLASSES, VertexSet, first_writers, writer_scratch

__all__ = [
    "MAX_LANES",
    "NUM_CLASSES",
    "LaneActivations",
    "EMPTY_LANE_ACTIVATIONS",
    "LaneState",
    "OneLaneState",
    "lane_bit",
    "lanes_word",
    "iter_lanes",
    "all_lanes_mask",
    "one_lane",
    "first_of_run",
    "distinct",
    "key_order",
    "claim_lanes",
    "first_writer_lanes",
]

#: Width of the lane word: one bit per concurrent root.
MAX_LANES = 64

_ONE = np.uint64(1)
_EMPTY = np.array([], dtype=np.int64)


def lane_bit(lane: int) -> np.uint64:
    """The single-bit mask of lane ``lane``."""
    return _ONE << np.uint64(lane)


def lanes_word(lanes) -> np.uint64:
    """The word with the bits of the lane indices ``lanes`` set."""
    return np.bitwise_or.reduce(_ONE << np.asarray(lanes, dtype=np.uint64))


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


def one_lane(mask) -> bool:
    """Whether ``mask`` holds exactly one lane."""
    m = int(mask)
    return m != 0 and m & (m - 1) == 0


def first_of_run(keys: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal adjacent keys."""
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def distinct(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``keys``: ``np.unique(keys)``, by one
    value sort and a first-of-run mask (numpy 2's ``unique`` hashes
    integer keys, 50–60× slower than sorting them)."""
    keys = np.sort(keys)
    return keys[first_of_run(keys)]


def key_order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(sorted_keys, order)`` of non-negative ``int64`` ``keys``, where
    ``order`` is their stable argsort and ``sorted_keys`` is
    ``keys[order]``.

    Where ``key << b | index`` fits in 63 bits it is one sort of those
    packed words, decoded into both arrays (a stable argsort of ``int64``
    runs timsort, an order of magnitude slower); wider keys fall back to
    that argsort.
    """
    if keys.size == 0:
        return keys.astype(np.int64), _EMPTY
    shift = max(int(keys.size - 1).bit_length(), 1)
    if int(keys.max()) >> (62 - shift):
        order = np.argsort(keys, kind="stable")
        return keys[order], order
    packed = (keys << shift) | np.arange(keys.size, dtype=np.int64)
    packed.sort()
    sorted_keys = packed >> shift
    packed &= (1 << shift) - 1
    return sorted_keys, packed


def claim_lanes(keys: np.ndarray, words: np.ndarray):
    """Every lane's first writer per key, for all lanes in one pass.

    Entry ``i`` offers the lanes of ``words[i]`` (non-zero) to key
    ``keys[i]`` (non-negative); each lane of a key goes to the first
    entry (lowest index) of that key that carries it — per lane, the
    first writer among the entries carrying that lane's bit.  Returns
    ``(win, won, uniq, key_words)``: the winning entries, ascending by
    key and then index, with the lanes each won; and the distinct keys
    ascending with the OR of each one's words, i.e. the lanes claimed
    there.

    A call with more entries than its key range claims them in chunks of
    that range, in entry order.  The lanes earlier chunks claimed are
    kept in one dense word per key (a table no larger than the input),
    and a chunk's entries drop those lanes before it is sorted — an entry
    left with none is dropped whole.  That is exact: a claimed lane's
    first carrier is an earlier entry, and an entry whose lanes are all
    covered changes no later entry's prefix-OR.
    """
    span = int(keys.max(initial=-1)) + 1
    if keys.size <= span:
        return _claim_sorted(keys, words)
    claimed = np.zeros(span, dtype=np.uint64)
    wins, wons = [], []
    for lo in range(0, keys.size, span):
        k = keys[lo : lo + span]
        w = words[lo : lo + span] & ~claimed[k]
        keep = np.flatnonzero(w)
        win, won, uniq, key_words = _claim_sorted(k[keep], w[keep])
        claimed[uniq] |= key_words
        wins.append(lo + keep[win])
        wons.append(won)
    win = np.concatenate(wins)
    _, order = key_order(keys[win])  # stable: chunks are in entry order
    uniq = np.flatnonzero(claimed)
    return win[order], np.concatenate(wons)[order], uniq, claimed[uniq]


def _claim_sorted(keys, words):
    """:func:`claim_lanes` in one sort.

    The entries are sorted by key; within each key's run an exclusive
    prefix-OR by doubling (each step one masked pass over the entries at
    least that deep into their run) gives what earlier entries carried,
    and an entry wins the rest of its word.
    """
    if keys.size == 0:
        return _EMPTY, words[:0], _EMPTY, words[:0]
    k, order = key_order(keys)
    w = words[order]
    head = np.flatnonzero(first_of_run(k))
    run_len = np.diff(head, append=k.size)
    depth = np.arange(k.size) - np.repeat(head, run_len)
    seen = w.copy()  # becomes the inclusive prefix-OR of each run
    step, longest = 1, int(run_len.max())
    while step < longest:
        deep = depth[step:] >= step
        np.bitwise_or(seen[step:], seen[:-step], out=seen[step:], where=deep)
        step *= 2
    before = np.roll(seen, 1)
    before[head] = 0
    won = w & ~before
    win = np.flatnonzero(won)
    return order[win], won[win], k[head], seen[head + run_len - 1]


def _lane_pairs(words: np.ndarray):
    """``(entry, lane)`` of every set bit of ``words``, one round per
    lowest set bit peeled off the words that still have one."""
    entries, lanes = [_EMPTY], [_EMPTY]
    idx, w = np.arange(words.size), words
    while idx.size:
        low = w & (~w + _ONE)
        entries.append(idx)
        lanes.append(np.bitwise_count(low - _ONE).astype(np.int64))
        w = w ^ low
        keep = np.flatnonzero(w)
        idx, w = idx[keep], w[keep]
    return np.concatenate(entries), np.concatenate(lanes)


@dataclass(frozen=True)
class LaneActivations:
    """One lane group's activations of a sub-iteration.

    ``vertices`` (distinct, ascending) were activated in the lanes of
    ``words``; ``lane``/``dst``/``parent`` hold one triple per activated
    (vertex, lane) pair, and lane ``l``'s triples are exactly the
    ``(dsts, parents)`` of its sequential commit.  ``len`` is the number
    of pairs.
    """

    vertices: np.ndarray
    words: np.ndarray
    lane: np.ndarray
    dst: np.ndarray
    parent: np.ndarray

    def __len__(self) -> int:
        return int(self.lane.size)

    @classmethod
    def of_one_lane(cls, group, dsts, parents) -> "LaneActivations":
        """The single lane of ``group`` activates ``dsts`` (distinct,
        ascending) from ``parents``."""
        lane = int(group).bit_length() - 1
        return cls(
            dsts,
            np.full(dsts.size, group, dtype=np.uint64),
            np.full(dsts.size, lane, dtype=np.int64),
            dsts,
            parents,
        )

    @classmethod
    def of_winners(cls, uniq, key_words, dst, parent, won) -> "LaneActivations":
        """From a :func:`claim_lanes` result: winner ``i`` activates
        ``dst[i]`` from ``parent[i]`` in the lanes of ``won[i]``; only
        the winners are expanded into triples."""
        entry, lane = _lane_pairs(won)
        return cls(uniq, key_words, lane, dst[entry], parent[entry])


EMPTY_LANE_ACTIVATIONS = LaneActivations(
    _EMPTY, np.array([], dtype=np.uint64), _EMPTY, _EMPTY, _EMPTY
)


def first_writer_lanes(keys, parents, words, group, scratch) -> LaneActivations:
    """First writer per key in every lane of ``group``.

    Entry ``i`` activates ``keys[i]`` from ``parents[i]`` in the lanes of
    ``words[i]`` (zero: in none).  Per lane, the winner of a key is its
    first entry carrying the lane — the sequential commit's first writer
    per destination in selection order.  A group of one lane takes the
    sort-free :func:`~repro.core.vertexset.first_writers` over
    ``scratch`` (a :func:`~repro.core.vertexset.writer_scratch`).
    """
    hit = np.flatnonzero(words)
    if hit.size == 0:
        return EMPTY_LANE_ACTIVATIONS
    if one_lane(group):
        uniq, first = first_writers(keys[hit], scratch)
        return LaneActivations.of_one_lane(group, uniq, parents[hit[first]])
    win, won, uniq, key_words = claim_lanes(keys[hit], words[hit])
    win = hit[win]
    return LaneActivations.of_winners(uniq, key_words, keys[win], parents[win], won)


class LaneState:
    """Frontier/visited/parent state of up to 64 concurrent BFS lanes.

    ``vclass`` is the per-vertex class code
    (:attr:`~repro.core.partition.PartitionedGraph.vclass`).  Beside the
    lane words the state keeps ``[lane, class]`` population counts of
    the frontier, the visited set and this level's activations; they are
    the integers a popcount of lane ``l``'s bit over each class would
    give, maintained by :meth:`commit` and :meth:`advance`.  It also
    keeps the union frontier — the vertices active in any lane — as a
    :class:`~repro.core.vertexset.VertexSet` (ids and class counts).
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
        #: Per-lane parent trees, ``parent[lane, vertex]``.
        self.parent = np.full((self.num_lanes, num_vertices), -1, dtype=np.int64)
        self.parent[np.arange(self.num_lanes), roots] = roots
        #: Vertices active in any lane (``active != 0``), and this level's
        #: activations in any lane (``newly != 0``).
        self.frontier = VertexSet(num_vertices, vclass)
        self.frontier.add(np.sort(roots))
        self.reached = VertexSet(num_vertices, vclass)
        self._scratch = None
        self._seed_visited()

    def _seed_visited(self) -> None:
        """The roots' lane words and ``[lane, class]`` counts (a
        :class:`OneLaneState` seeds a visited set instead)."""
        n, roots, lane_ids = self.num_vertices, self.roots, np.arange(self.num_lanes)
        #: Lane membership bits of the current frontier, per vertex.
        self.active = np.zeros(n, dtype=np.uint64)
        #: Lane membership bits of the visited set, per vertex.
        self.visited = np.zeros(n, dtype=np.uint64)
        #: Lane membership bits activated so far in this level.
        self.newly = np.zeros(n, dtype=np.uint64)
        bits = _ONE << lane_ids.astype(np.uint64)
        self.active[roots] = bits
        self.visited[roots] = bits
        #: ``[lane, class]`` populations of ``active`` / ``visited`` / ``newly``.
        self.active_counts = np.zeros((self.num_lanes, NUM_CLASSES), dtype=np.int64)
        self.active_counts[lane_ids, self.vclass[roots]] = 1
        self.visited_counts = self.active_counts.copy()
        self.newly_counts = np.zeros_like(self.active_counts)

    @property
    def scratch(self) -> np.ndarray:
        """The :func:`first_writer_lanes` scratch of one-lane groups,
        allocated on first use."""
        if self._scratch is None:
            self._scratch = writer_scratch(self.num_vertices)
        return self._scratch

    @property
    def active_lane_mask(self) -> np.uint64:
        """Bits of lanes whose frontier is non-empty."""
        return lanes_word(np.flatnonzero(self.active_counts.any(axis=1)))

    def frontier_sizes(self) -> np.ndarray:
        """Per-lane frontier vertex counts."""
        return self.active_counts.sum(axis=1)

    def commit(self, acts: LaneActivations) -> int:
        """Apply one lane group's activations.

        The pairs must be fresh (unvisited in their lane).  Their bits go
        into ``visited`` at once, so the next sub-iteration of the same
        wave sees them (§4.2 freshness), and into this level's ``newly``;
        one word of each is written per activated vertex.  Returns the
        number of (vertex, lane) pairs activated.
        """
        vertices, words = acts.vertices, acts.words
        self.parent[acts.lane, acts.dst] = acts.parent
        self.visited[vertices] |= words
        before = self.newly[vertices]
        self.newly[vertices] = before | words
        self.reached.add(vertices[before == 0])
        counts = np.bincount(
            acts.lane * NUM_CLASSES + self.vclass[acts.dst],
            minlength=self.num_lanes * NUM_CLASSES,
        ).reshape(self.num_lanes, NUM_CLASSES)
        self.visited_counts += counts
        self.newly_counts += counts
        return len(acts)

    def advance(self) -> None:
        """End of a level: this level's activations become the frontier."""
        self.active = self.newly
        self.newly = np.zeros(self.num_vertices, dtype=np.uint64)
        self.active_counts = self.newly_counts
        self.newly_counts = np.zeros_like(self.active_counts)
        self.frontier = self.reached
        self.reached = VertexSet(self.num_vertices, self.vclass)


class OneLaneState(LaneState):
    """A batch of one, kept as its single-source run keeps it.

    The lane's frontier, visited set and this level's activations are
    the :class:`~repro.core.vertexset.VertexSet` objects ``frontier``,
    ``seen`` and ``reached``, so a wave's sub-iteration is the lane's
    single-source one (:meth:`add` is its commit) and costs its frontier,
    not ``n`` lane words.  The :class:`LaneState` views stay readable:
    lane 0's bit is 1, so a word array is a membership mask as
    ``uint64`` (built on read), and a ``[lane, class]`` count array is
    the set's ``[class]`` counts as one row.
    """

    def _seed_visited(self) -> None:
        self.seen = VertexSet(self.num_vertices, self.vclass)
        self.seen.add(self.roots)

    active = property(lambda self: self.frontier.mask.astype(np.uint64))
    visited = property(lambda self: self.seen.mask.astype(np.uint64))
    newly = property(lambda self: self.reached.mask.astype(np.uint64))
    active_counts = property(lambda self: self.frontier.counts[None])
    visited_counts = property(lambda self: self.seen.counts[None])
    newly_counts = property(lambda self: self.reached.counts[None])

    def add(self, dsts: np.ndarray, parents: np.ndarray) -> int:
        """The single-source commit: ``dsts`` (distinct, ascending,
        unvisited) are reached from ``parents``.  Returns their count."""
        if dsts.size:
            self.parent[0][dsts] = parents
            self.reached.add(dsts, self.seen.add(dsts))
        return int(dsts.size)

    def advance(self) -> None:
        self.frontier = self.reached
        self.reached = VertexSet(self.num_vertices, self.vclass)

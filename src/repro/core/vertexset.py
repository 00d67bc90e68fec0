"""One vertex set in the three forms the single-source level loop reads.

A frontier is consulted three ways inside a level: bottom-up scans test
*membership* (a dense boolean ``mask``), top-down expansion walks the
*members* (ascending ``ids``), and the §4.2 direction rule, the delegate
sync and the activation record read *populations* per degree class
(running ``counts``).  :class:`VertexSet` keeps the three together and
in step, the single-source analogue of
:class:`~repro.core.lanes.LaneState`'s lane words and ``[lane, class]``
counts: the only mutation is :meth:`VertexSet.add`, which costs its
argument, so a level's bookkeeping is O(frontier) however many vertices
the graph holds.  The simulated clock prices the same choice —
``FifteenDContext.sync_bytes`` charges a frontier exchange as packed
bitmap or sparse ids, whichever is smaller.

:func:`first_writers` is the sort-free first-writer-per-destination
primitive of the single-source commits, and :func:`least_values` picks
each destination's lowest-rank winner of a one-lane pull scan on the
same scratch.  The scratch lives on the run's visited set (or a wave's
lane state), so nothing per-run is ever written on an engine.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NUM_CLASSES", "VertexSet", "first_writers", "least_values", "member_ids",
    "writer_scratch",
]

#: Vertex classes the running counts are kept by: the L, H, E codes of
#: :class:`~repro.core.partition.VertexClass`.
NUM_CLASSES = 3

_UNCLAIMED = np.iinfo(np.int64).max


def writer_scratch(num_vertices: int) -> np.ndarray:
    """A fresh :func:`first_writers` scratch for keys below
    ``num_vertices``."""
    return np.full(num_vertices, _UNCLAIMED, dtype=np.int64)


def first_writers(keys: np.ndarray, scratch: np.ndarray):
    """Distinct ``keys`` ascending and the index of each one's first
    occurrence — ``np.unique(keys, return_index=True)`` without sorting
    the duplicates.

    ``scratch`` is an ``int64`` array indexable by every key, all
    :data:`_UNCLAIMED` on entry and again on return
    (:attr:`VertexSet.scratch`).  Each key's slot takes the minimum
    position that wrote it; only the winners are sorted.
    """
    pos = np.arange(keys.size, dtype=np.int64)
    np.minimum.at(scratch, keys, pos)
    first = np.flatnonzero(scratch[keys] == pos)
    uniq = keys[first]
    scratch[uniq] = _UNCLAIMED
    order = np.argsort(uniq)
    return uniq[order], first[order]


def least_values(keys: np.ndarray, values: np.ndarray, scratch: np.ndarray):
    """Distinct ``keys`` ascending and the least of the ``values`` each
    one comes with — a scatter-min into ``scratch`` and one pass over
    it, so nothing is sorted.

    ``values`` are ``int64`` below :data:`_UNCLAIMED`; ``scratch`` is as
    :func:`first_writers` takes it.  The pass is O(``scratch.size``), for
    callers that already pay as much (a pull reads every group).
    """
    np.minimum.at(scratch, keys, values)
    uniq = np.flatnonzero(scratch != _UNCLAIMED)
    least = scratch[uniq]
    scratch[uniq] = _UNCLAIMED
    return uniq, least


def member_ids(members) -> np.ndarray:
    """Ascending ids of ``members``: a :class:`VertexSet`, a boolean mask
    over all vertices (one ``flatnonzero``), or ascending ``int64`` ids
    already — the one place that asks which it was handed."""
    if isinstance(members, VertexSet):
        return members.ids
    members = np.asarray(members)
    return np.flatnonzero(members) if members.dtype == bool else members


class VertexSet:
    """A set of vertices as mask + ascending ids + per-class counts.

    ``vclass`` is the per-vertex class code
    (:attr:`~repro.core.partition.PartitionedGraph.vclass`) that
    ``counts`` is indexed by — read a named class with
    :func:`~repro.core.partition.class_count`.  ``None`` means the host
    has no degree classes: every vertex counts under code 0 (L).
    """

    __slots__ = ("mask", "counts", "size", "vclass", "_parts", "_scratch")

    def __init__(self, num_vertices: int, vclass=None) -> None:
        #: Dense membership, ``bool[n]``.
        self.mask = np.zeros(num_vertices, dtype=bool)
        #: Members per :class:`~repro.core.partition.VertexClass` code.
        self.counts = np.zeros(NUM_CLASSES, dtype=np.int64)
        self.size = 0
        self.vclass = vclass
        # Disjoint ascending runs of members; merged on demand by ``ids``.
        self._parts: list[np.ndarray] = []
        self._scratch = None

    @classmethod
    def from_mask(cls, mask: np.ndarray, vclass=None) -> "VertexSet":
        """The set a boolean mask denotes (the mask is kept, not copied)."""
        out = cls(0, vclass)
        out.mask = mask
        out._grow(np.flatnonzero(mask))
        return out

    def add(self, ids: np.ndarray, counts=None):
        """Insert ``ids``: distinct, ascending, none a member yet (what a
        sub-iteration's ``newly`` is).  Costs O(len(ids)).

        Returns the ids' ``[class]`` counts; a second set over the same
        classes takes them as ``counts`` and skips its own count."""
        self.mask[ids] = True
        return self._grow(ids, counts)

    def _grow(self, ids: np.ndarray, counts=None):
        if counts is not None:
            self.counts += counts
        elif self.vclass is None:
            self.counts[0] += ids.size
        else:
            counts = np.bincount(self.vclass[ids], minlength=NUM_CLASSES)
            self.counts += counts
        self.size += int(ids.size)
        self._parts.append(ids)
        return counts

    @property
    def ids(self) -> np.ndarray:
        """Members ascending (``int64``)."""
        parts = self._parts
        if len(parts) != 1:
            merged = np.concatenate(parts) if parts else np.array([], dtype=np.int64)
            merged.sort()
            self._parts = parts = [merged]
        return parts[0]

    def __len__(self) -> int:
        return self.size

    @property
    def scratch(self) -> np.ndarray:
        """The :func:`first_writers` / :func:`least_values` scratch of
        the run this set belongs to, allocated on first use."""
        if self._scratch is None:
            self._scratch = writer_scratch(self.mask.size)
        return self._scratch

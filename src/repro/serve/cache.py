"""Result cache for served traversals.

Keyed by ``(graph fingerprint, root)`` so an entry is only ever served
for the graph it was computed on: a repaired or reloaded graph has a
new fingerprint, and entries of the old one stop matching.  Eviction is
LRU within :data:`CACHE_CAPACITY` entries, with every outcome counted in the shared
metric families:

==========================  ============================================
family                      meaning
==========================  ============================================
``serve_cache_hits``        reads answered from cache
``serve_cache_misses``      reads that fell through to the engine
``serve_cache_evictions``   entries dropped, labeled ``reason=``
                            ``lru`` / ``invalidation``
``serve_cache_size``        current resident entries (gauge)
==========================  ============================================

Dynamic graphs don't need to drop the whole generation: every entry
carries a **touched-vertex digest** — a 1024-bit Bloom-style signature
of the vertices its parent tree reaches (set at :meth:`ResultCache.put`
from the parent array, or from an explicit ``touched`` set).  When an
update batch lands, :meth:`ResultCache.apply_delta` intersects each
entry's digest with the digest of the delta's touched vertices: entries
that intersect are evicted, entries that provably cannot have changed
(no touched vertex is reachable from their root, so neither an inserted
nor a deleted edge can alter the tree) are *re-keyed* to the repaired
graph's fingerprint and keep serving.  False positives in the digest
only evict more than necessary — never less.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from functools import lru_cache

import numpy as np

from repro.core.partition import mix64
from repro.obs.metrics import NULL_METRICS

__all__ = [
    "CACHE_CAPACITY",
    "ResultCache",
    "fingerprint_graph",
    "touched_digest",
]

#: Parent trees a :class:`ResultCache` holds before it evicts the LRU one.
CACHE_CAPACITY = 1024

#: Words in a touched-vertex digest (16 x 64 = 1024 bits).
_DIGEST_WORDS = 16
_DIGEST_BITS = _DIGEST_WORDS * 64


def touched_digest(vertices) -> np.ndarray:
    """1024-bit Bloom-style signature of a vertex set.

    One hashed bit per vertex (splitmix64 of the id, mod 1024), packed
    into 16 ``uint64`` words.  Two sets with a common vertex always have
    intersecting digests; disjoint sets intersect only by hash collision
    — which makes digest intersection a *conservative* staleness test.
    """
    v = np.asarray(vertices, dtype=np.int64)
    mask = np.zeros(_DIGEST_BITS, dtype=bool)
    mask[mix64(v) % np.uint64(_DIGEST_BITS)] = True
    # Bit ``b`` of word ``w`` is mask entry ``64 w + b``.
    return np.packbits(mask, bitorder="little").view("<u8")


@lru_cache(maxsize=8)
def _digest_bit_of(num_vertices: int) -> np.ndarray:
    """The digest bit of every vertex id below ``num_vertices`` (what
    :func:`touched_digest` hashes each id to), built once per graph size
    so a parent tree's digest is one gather."""
    bits = (
        mix64(np.arange(num_vertices, dtype=np.int64)) % np.uint64(_DIGEST_BITS)
    ).astype(np.uint16)
    bits.setflags(write=False)
    return bits


def _tree_digest(parent: np.ndarray) -> np.ndarray:
    """:func:`touched_digest` of the vertices ``parent`` reaches (every
    vertex with a parent)."""
    bits = _digest_bit_of(parent.size)[parent >= 0]
    mask = np.bincount(bits, minlength=_DIGEST_BITS) > 0
    return np.packbits(mask, bitorder="little").view("<u8")


def _digests_intersect(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.any(a & b))


def fingerprint_graph(part) -> str:
    """sha256 identity of a partitioned graph.

    Hashes what determines traversal results: the vertex count, the
    degree vector, the mesh shape, and the class thresholds' effect
    (the per-class counts).  Cheap relative to a partition build, and
    any graph reload that could change a parent tree changes it.
    """
    h = hashlib.sha256()
    h.update(
        np.array(
            [
                part.num_vertices,
                part.total_arcs,
                part.mesh.rows,
                part.mesh.cols,
                part.num_e,
                part.num_h,
            ],
            dtype=np.int64,
        ).tobytes()
    )
    h.update(np.ascontiguousarray(part.degrees, dtype=np.int64).tobytes())
    return h.hexdigest()


class ResultCache:
    """Bounded LRU cache of parent trees, keyed by
    ``(graph fingerprint, root)``; each entry is ``(parent, digest)``."""

    def __init__(self, *, metrics=NULL_METRICS) -> None:
        self._metrics = metrics
        self._entries: OrderedDict[
            tuple[str, int], tuple[np.ndarray, np.ndarray]
        ] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------

    def get(self, fingerprint: str, root: int) -> np.ndarray | None:
        """The cached parent tree, or ``None`` on a miss."""
        key = (fingerprint, int(root))
        entry = self._entries.get(key)
        if entry is None:
            self._metrics.counter("serve_cache_misses").inc()
            return None
        self._entries.move_to_end(key)
        self._metrics.counter("serve_cache_hits").inc()
        return entry[0]

    def put(
        self,
        fingerprint: str,
        root: int,
        parent: np.ndarray,
        touched=None,
    ) -> None:
        """Insert (or refresh) one result; evicts LRU past capacity.

        The entry is a read-only array that owns its data: a view (say
        one lane's row of a batch's parent matrix) is copied, so the
        cache never pins the array it was cut from.

        ``touched`` is the vertex set feeding the entry's staleness
        digest; by default it is the parent tree itself (every vertex
        with a parent, i.e. everything reachable from ``root``), which
        is exactly the set an edge update must intersect to be able to
        change this result.
        """
        key = (fingerprint, int(root))
        stored = np.ascontiguousarray(parent)
        if not stored.flags.owndata:
            stored = stored.copy()
        stored.setflags(write=False)
        digest = _tree_digest(stored) if touched is None else touched_digest(touched)
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = (stored, digest)
        while len(self._entries) > CACHE_CAPACITY:
            self._entries.popitem(last=False)
            self._metrics.counter("serve_cache_evictions", reason="lru").inc()
        self._sync_size()

    def apply_delta(
        self, old_fingerprint: str, new_fingerprint: str, touched
    ) -> tuple[int, int]:
        """Carry a graph generation across an edge-update delta.

        ``touched`` is the delta's touched-vertex set (endpoints of
        inserted, deleted and migrated arcs plus re-classified
        vertices).  Old-generation entries whose digest intersects the
        delta's are evicted — the update may reach their tree.  The
        rest provably cannot have changed (no touched vertex is
        reachable from their root) and are re-keyed to
        ``new_fingerprint``, preserving LRU order.  Returns
        ``(evicted, rekeyed)``.
        """
        delta_digest = touched_digest(touched)
        entries: OrderedDict = OrderedDict()
        evicted = rekeyed = 0
        for (fp, root), entry in self._entries.items():
            if fp != old_fingerprint:
                entries[(fp, root)] = entry
            elif _digests_intersect(entry[1], delta_digest):
                evicted += 1
            else:
                entries[(new_fingerprint, root)] = entry
                rekeyed += 1
        self._entries = entries
        if evicted:
            self._metrics.counter(
                "serve_cache_evictions", reason="invalidation"
            ).inc(evicted)
        self._sync_size()
        return evicted, rekeyed

    def _sync_size(self) -> None:
        self._metrics.gauge("serve_cache_size").set(len(self._entries))

"""The six 1.5D subgraph components and their traversal primitives.

Each directed arc of the symmetrized graph lands in exactly one of the six
components by the degree classes of its endpoints (§4.1):

========  ===========  ===========  =============================================
name      source       destination  stored at (mesh placement)
========  ===========  ===========  =============================================
EH2EH     E or H       E or H       rank (row(owner(dst)), col(owner(src))) — 2D
E2L       E            L            owner(dst) — with L, like heavy 1D delegation
L2E       L            E            owner(src)
H2L       H            L            rank (row(owner(dst)), col(owner(src))) —
                                    H's column, messaging stays intra-row
L2H       L            H            owner(src) — reverse of H2L
L2L       L            L            owner(src) — plain 1D
========  ===========  ===========  =============================================

:class:`SubgraphComponent` stores one component with two access paths:

- a compact by-source CSR for *push* (top-down): selecting the frontier's
  arcs costs O(frontier vertices + selected arcs);
- a (rank, destination)-grouped ordering for *pull* (bottom-up): each
  group is one destination's arc run on one rank, scanned with early exit.

Both paths also carry the owning rank per arc so every sub-iteration can
report exact per-rank work to the ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.lanes import (
    EMPTY_LANE_ACTIVATIONS,
    LaneActivations,
    claim_lanes,
    first_of_run,
    key_order,
    one_lane,
)
from repro.core.vertexset import least_values, member_ids

__all__ = [
    "SubgraphComponent",
    "PushSelection",
    "PullScan",
    "PullSelection",
    "LanePullScan",
    "COMPONENT_ORDER",
    "arc_keys",
    "check_edge_ids",
    "check_key_width",
    "member",
    "merge_arc_delta",
]

#: Execution order within an iteration: densest (highest-degree endpoints)
#: first, so later sub-iterations see the freshest visited state (§4.2).
COMPONENT_ORDER = ("EH2EH", "E2L", "L2E", "H2L", "L2H", "L2L")


@dataclass(frozen=True)
class PushSelection:
    """Arcs selected by a top-down sub-iteration (sources in frontier)."""

    src: np.ndarray
    dst: np.ndarray
    rank: np.ndarray
    #: Arc run length of each selected source, in selection order (what
    #: the §5 vertex-cut balance prefix-sums).
    lens: np.ndarray

    @property
    def num_arcs(self) -> int:
        return int(self.src.size)

    def per_rank(self, num_ranks: int) -> np.ndarray:
        """Arcs handled by each rank (exact load vector)."""
        return np.bincount(self.rank, minlength=num_ranks)


@dataclass(frozen=True)
class PullScan:
    """Result of a bottom-up sub-iteration with early exit."""

    #: Destinations that found a parent, their parent, and the rank that
    #: found it (first hit in deterministic (rank, dst) group order).
    hit_dst: np.ndarray
    hit_src: np.ndarray
    hit_rank: np.ndarray
    #: Arcs scanned by each rank, counting early exit.
    scanned_per_rank: np.ndarray

    @classmethod
    def empty(cls, num_ranks: int) -> "PullScan":
        """The scan of no candidate group: no hit, nothing scanned."""
        empty = np.array([], dtype=np.int64)
        return cls(empty, empty, empty, np.zeros(num_ranks, dtype=np.int64))

    @property
    def num_hits(self) -> int:
        return int(self.hit_dst.size)

    @property
    def scanned_arcs(self) -> int:
        return int(self.scanned_per_rank.sum())


@dataclass(frozen=True)
class PullSelection:
    """Arcs selected by a bottom-up sub-iteration *without* early exit.

    Vertex programs with value combines (min-label, sum-of-contrib) must
    see **every** active in-neighbour of a candidate destination, so the
    BFS early exit does not apply: each candidate group is scanned to the
    end and all arcs with an active source are returned.
    """

    src: np.ndarray
    dst: np.ndarray
    rank: np.ndarray
    #: Arcs scanned by each rank — the *full* runs of every candidate
    #: group, not just the selected arcs.
    scanned_per_rank: np.ndarray

    @property
    def num_arcs(self) -> int:
        return int(self.src.size)

    @property
    def scanned_arcs(self) -> int:
        return int(self.scanned_per_rank.sum())


@dataclass(frozen=True)
class LanePullScan:
    """Result of a bottom-up sub-iteration shared by up to 64 lanes."""

    #: Every lane's hits as one
    #: :class:`~repro.core.lanes.LaneActivations`, each lane's winners
    #: chosen by exactly the sequential :class:`PullScan` rule.
    updates: LaneActivations
    #: Arcs scanned by each rank; a group's scan depth is the deepest
    #: early exit any participating lane needed.
    scanned_per_rank: np.ndarray
    #: Unique (dst, rank) hit messages across all lanes — one wire
    #: message carries a destination plus its 64-bit lane word.
    msg_dst: np.ndarray
    msg_rank: np.ndarray

    @property
    def num_messages(self) -> int:
        return int(self.msg_dst.size)

    @property
    def scanned_arcs(self) -> int:
        return int(self.scanned_per_rank.sum())


# ----------------------------------------------------------------------
# Helpers of the traversal bodies (the :class:`SubgraphComponent` methods
# below): run expansion and the two first-hit walks, one per lane width.
# The one-lane scan picks each destination's cross-rank winner on the
# run's :func:`~repro.core.vertexset.first_writers` scratch
# (:func:`~repro.core.vertexset.least_values`), the lane scan by a claim.
# ----------------------------------------------------------------------


#: Single-position rounds the first-hit scan runs before it scans what is
#: left in windows, the first of this width.  Pull is only chosen when the
#: source class is dense, so most groups hit at position 0 or 1; at R-MAT
#: scale 16 the body time is flat from four rounds on.
_ROUNDS = 4


def _expand_runs(starts, lens):
    """Indices of the runs ``[starts[i], starts[i] + lens[i])``, run after
    run."""
    ends = np.cumsum(lens)
    idx = np.repeat(starts - (ends - lens), lens)
    idx += np.arange(idx.size, dtype=np.int64)
    return idx


def _first_hits(starts, lens, pull_src, active):
    """One lane: the arc of each group's first source in ``active`` (a
    boolean mask over vertices).

    The groups still looking walk by cursor — ``cur`` the next arc each
    reads, ``left`` the arcs from it to the end of its run — so a round
    gathers nothing through the groups' ``starts`` and ``lens``.  The
    first ``_ROUNDS`` positions are read one per round; what is left in
    windows that double in width from ``_ROUNDS``, of which a group
    keeps its first hit.  A group leaves at its hit or the end of its
    run.

    Returns ``(grp, at)``: the groups that hit and the index in
    ``pull_src`` of each one's hit, by round or window and then
    ascending group.  A group missing from ``grp`` ran dry.
    """
    pend = np.arange(starts.size, dtype=np.int64)
    cur, left = starts, lens
    rec_grp, rec_at = [pend[:0]], [pend[:0]]
    pos = 0
    while pend.size:
        if pos < _ROUNDS:
            hit = active[pull_src[cur]]
            at = np.flatnonzero(hit)
            rec_grp.append(pend[at])
            rec_at.append(cur[at])
            keep = np.flatnonzero(~hit & (left > 1))
            width = 1
        else:
            width = pos
            rest = np.minimum(left, width)
            idx = _expand_runs(cur, rest)
            run = np.repeat(np.arange(pend.size, dtype=np.int64), rest)
            at = np.flatnonzero(active[pull_src[idx]])
            at = at[first_of_run(run[at])]
            won = run[at]
            rec_grp.append(pend[won])
            rec_at.append(idx[at])
            more = left > width
            more[won] = False
            keep = np.flatnonzero(more)
        pend, cur, left = pend[keep], cur[keep] + width, left[keep] - width
        pos += width
    return np.concatenate(rec_grp), np.concatenate(rec_at)


def _first_hit_records(starts, lens, pull_src, active, need):
    """Scan each group's arc run in order until every needed lane has hit.

    ``need[i]`` holds the lanes group ``i`` is looking for and ``active``
    the lanes each vertex offers, both ``uint64`` lane words (one lane
    walks :func:`_first_hits`).  The first ``_ROUNDS`` positions are
    read one per round over the groups still looking (work ∝ pending
    groups, and a group leaves as soon as its last lane hits).  What is
    left is read in position windows that double in width from
    ``_ROUNDS`` (positions 4–7, 8–15, 16–31, …): a window keeps each
    group's first hit of each lane it still needs (the sorted claim),
    and those lanes leave its ``need`` before the next window, so a
    group whose lanes have all hit reads no further window.

    Returns ``(grp, pos, bits, dry)``: one record per first hit — the
    arc at ``pos`` of group ``grp`` and the lanes ``bits`` that hit
    there first — by window and then ascending ``(grp, pos)``, and the
    mask of groups with a lane that never hit.
    """
    empty = np.array([], dtype=np.int64)
    rec_grp, rec_pos, rec_bits = [empty], [empty], [need[:0]]
    dry = np.zeros(starts.size, dtype=bool)
    pend = np.arange(starts.size, dtype=np.int64)
    lo, hi = 0, 1
    while pend.size:
        if hi <= _ROUNDS:
            # One position: a group's hit is its first.
            hit = active[pull_src[starts[pend] + lo]] & need
            at = np.flatnonzero(hit)
            grp, pos, bits = pend[at], np.full(at.size, lo, dtype=np.int64), hit[at]
            need = need ^ hit
        else:
            rest = np.minimum(lens[pend], hi) - lo
            idx = _expand_runs(starts[pend] + lo, rest)
            run = np.repeat(np.arange(pend.size, dtype=np.int64), rest)
            hit = active[pull_src[idx]] & need[run]
            at = np.flatnonzero(hit)
            win, bits, uniq, got = claim_lanes(run[at], hit[at])
            at = at[win]
            need[uniq] ^= got
            grp = pend[run[at]]
            pos = idx[at] - starts[grp]
        rec_grp.append(grp)
        rec_pos.append(pos)
        rec_bits.append(bits)
        # Whoever is still looking at the end of its run ran dry.
        looking = need != 0
        more = lens[pend] > hi
        dry[pend[looking & ~more]] = True
        keep = np.flatnonzero(looking & more)
        pend, need = pend[keep], need[keep]
        lo, hi = hi, hi + 1 if hi < _ROUNDS else 2 * hi
    return (
        np.concatenate(rec_grp),
        np.concatenate(rec_pos),
        np.concatenate(rec_bits),
        dry,
    )


def _runs(*keys):
    """``(starts, ptr)`` of the runs of equal adjacent rows of the sorted
    ``keys`` columns: each run's first index, and those starts closed by
    the total length (a CSR index pointer)."""
    first = first_of_run(keys[0])
    for k in keys[1:]:
        first |= first_of_run(k)
    starts = np.flatnonzero(first)
    return starts, np.append(starts, first.size)


class SubgraphComponent:
    """One of the six arc components, frozen for traversal."""

    def __init__(
        self,
        name: str,
        src: np.ndarray,
        dst: np.ndarray,
        rank: np.ndarray,
        num_ranks: int,
        num_vertices: int,
    ) -> None:
        self.name = name
        self.num_ranks = int(num_ranks)
        check_key_width(self.num_ranks, num_vertices)
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        rank = np.asarray(rank, dtype=np.int64)
        if not (src.shape == dst.shape == rank.shape):
            raise ValueError("src/dst/rank arrays must have equal shape")
        if rank.size and (rank.min() < 0 or rank.max() >= num_ranks):
            raise ValueError("arc rank out of range")
        self.num_arcs = int(src.size)

        n = np.int64(num_vertices)

        # --- by-source CSR (push path) --------------------------------
        # Equal (src, dst) pairs may sit on different ranks; the stable
        # order keeps them in input order.  Arcs that arrive in that order
        # (partition_graph sorts every component in one pass) are kept as
        # given; others are sorted by key value and decoded.
        keys = arc_keys(src, dst, num_vertices)
        if bool((keys[1:] < keys[:-1]).any()):
            keys, order = key_order(keys)
            src, dst, rank = keys // n, keys % n, rank[order]
        self._push_dst = dst
        self._push_rank = rank
        starts, self.src_indptr = _runs(src)
        self.src_ids = src[starts]
        # vertex -> source slot (-1: not a source here), so a frontier
        # finds its slots by gathering its own ids.
        self._slot_of = np.full(num_vertices, -1, dtype=np.int64)
        self._slot_of[self.src_ids] = np.arange(self.src_ids.size)

        # --- (rank, dst) groups (pull path) ----------------------------
        # Equal keys are indistinguishable arcs, so a plain value sort.
        keys = rank * n
        keys += dst
        keys *= n
        keys += src
        keys.sort()
        rank_dst = keys // n
        keys -= rank_dst * n
        self._pull_src = keys
        starts, self.grp_ptr = _runs(rank_dst)
        self.grp_dst = rank_dst[starts] % n
        self.grp_rank = rank_dst[starts] // n

        #: Exact arcs stored per rank (Fig. 13's load-balance data); the
        #: groups run rank by rank.
        self.arcs_per_rank = np.diff(
            self.grp_ptr[np.searchsorted(self.grp_rank, np.arange(num_ranks + 1))]
        )

    # ------------------------------------------------------------------

    @property
    def num_groups(self) -> int:
        return int(self.grp_dst.size)

    def arcs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All arcs as ``(src, dst, rank)`` (push order)."""
        src = np.repeat(self.src_ids, np.diff(self.src_indptr))
        return src, self._push_dst.copy(), self._push_rank.copy()

    # ------------------------------------------------------------------
    # push
    # ------------------------------------------------------------------

    def push_select(self, active) -> PushSelection:
        """Arcs whose source is in the frontier, in source-slot order.

        ``active`` is a :class:`~repro.core.vertexset.VertexSet`,
        ascending ``int64`` ids, or a boolean mask over all vertices
        (which costs one extra ``flatnonzero`` of it).  Given a set or
        ids the cost is O(frontier vertices + selected arcs): ids ascend
        and so do source slots, so gathering the frontier's slots yields
        them in slot order.
        """
        slots = self._slot_of[member_ids(active)]
        sel_srcs = slots[slots >= 0]
        if sel_srcs.size == 0:
            empty = np.array([], dtype=np.int64)
            return PushSelection(empty, empty, empty, empty)
        starts = self.src_indptr[sel_srcs]
        lens = self.src_indptr[sel_srcs + 1] - starts
        idx = _expand_runs(starts, lens)
        return PushSelection(
            np.repeat(self.src_ids[sel_srcs], lens),
            self._push_dst[idx],
            self._push_rank[idx],
            lens,
        )

    # ------------------------------------------------------------------
    # pull
    # ------------------------------------------------------------------

    def pull_scan(
        self, candidate_dst: np.ndarray, active_src: np.ndarray, scratch: np.ndarray
    ) -> PullScan:
        """Bottom-up scan with early exit.

        For every (rank, dst) group whose destination satisfies
        ``candidate_dst`` (a boolean mask — typically "unvisited"), scan the
        group's arcs in order until the first source satisfying
        ``active_src``; count exactly the scanned arcs (paper §2.1.2 early
        exit, available because these arcs are rank-local).

        When several ranks hit the same destination, the winner is the
        lowest (rank, position) — deterministic.  It is picked on
        ``scratch``, the run's
        :func:`~repro.core.vertexset.writer_scratch`, which comes back
        as it went in.
        """
        cand_groups = np.flatnonzero(candidate_dst[self.grp_dst])
        if cand_groups.size == 0:
            return PullScan.empty(self.num_ranks)
        pull_src = self._pull_src
        starts = self.grp_ptr[cand_groups]
        lens = self.grp_ptr[cand_groups + 1] - starts
        grp, at = _first_hits(starts, lens, pull_src, active_src)
        # Arcs each group scanned: to its hit, or its whole run.
        scanned = lens
        scanned[grp] = at - starts[grp] + 1
        # Candidate groups are rank-major: rank r's are the candidates
        # cut[r]:cut[r + 1].
        cut = np.searchsorted(
            cand_groups,
            np.searchsorted(self.grp_rank, np.arange(self.num_ranks + 1)),
        )
        total = np.zeros(scanned.size + 1, dtype=np.int64)
        np.cumsum(scanned, out=total[1:])
        # Candidates ascend in (rank, dst) order, so a destination's
        # least candidate index among its hits is its lowest-rank hit.
        hit_dst, win = least_values(self.grp_dst[cand_groups[grp]], grp, scratch)
        return PullScan(
            hit_dst,
            pull_src[starts[win] + scanned[win] - 1],
            self.grp_rank[cand_groups[win]],
            np.diff(total[cut]),
        )

    def pull_select(
        self, candidate_dst: np.ndarray, active_src: np.ndarray
    ) -> PullSelection:
        """Bottom-up arc selection without early exit (vertex programs).

        Every (rank, dst) group whose destination satisfies
        ``candidate_dst`` is scanned end to end; arcs whose source
        satisfies ``active_src`` are returned in group order.  With
        ``candidate_dst`` all-true the selected arc *set* equals
        ``push_select(active_src)`` (ordering differs: pull order is
        grouped by (rank, dst)), which is what makes direction choice
        value-neutral for commutative combines.
        """
        empty = np.array([], dtype=np.int64)
        cand_groups = np.flatnonzero(candidate_dst[self.grp_dst])
        if cand_groups.size == 0:
            no_scan = np.zeros(self.num_ranks, dtype=np.int64)
            return PullSelection(empty, empty, empty, no_scan)
        starts = self.grp_ptr[cand_groups]
        lens = self.grp_ptr[cand_groups + 1] - starts
        srcs = self._pull_src[_expand_runs(starts, lens)]
        scanned_per_rank = np.bincount(
            self.grp_rank[cand_groups], weights=lens, minlength=self.num_ranks
        ).astype(np.int64)
        keep = active_src[srcs]
        if not np.any(keep):
            return PullSelection(empty, empty, empty, scanned_per_rank)
        dst_of_arc = np.repeat(self.grp_dst[cand_groups], lens)
        rank_of_arc = np.repeat(self.grp_rank[cand_groups], lens)
        return PullSelection(
            srcs[keep], dst_of_arc[keep], rank_of_arc[keep], scanned_per_rank
        )

    def pull_scan_lanes(
        self, candidate_bits: np.ndarray, active_bits: np.ndarray, group_lanes, scratch
    ) -> LanePullScan:
        """Bottom-up scan shared by the lanes of ``group_lanes``.

        ``candidate_bits``/``active_bits`` are per-vertex lane words
        already restricted to the group's lanes.  Per lane the hits and
        the early-exit depths are exactly what :meth:`pull_scan` would
        produce for that lane's boolean masks; a group's *charged* scan
        depth is the max over its participating lanes (the batched
        kernel scans once and every lane reads the shared stream).  A
        group of one lane is that :meth:`pull_scan`, on ``scratch``.
        """
        if one_lane(group_lanes):
            # Kept: a two-root batch (scale 14, 4×4) ran ≈ 3 % slower in
            # 10 of 12 in-process pairs with its one-lane groups on the
            # word scan below.
            scan = self.pull_scan(candidate_bits != 0, active_bits != 0, scratch)
            return LanePullScan(
                LaneActivations.of_one_lane(group_lanes, scan.hit_dst, scan.hit_src),
                scan.scanned_per_rank,
                scan.hit_dst,
                scan.hit_rank,
            )
        grp_cand_bits = candidate_bits[self.grp_dst]
        cand_groups = np.flatnonzero(grp_cand_bits)
        if cand_groups.size == 0:
            empty = np.array([], dtype=np.int64)
            no_scan = np.zeros(self.num_ranks, dtype=np.int64)
            return LanePullScan(EMPTY_LANE_ACTIVATIONS, no_scan, empty, empty)
        starts = self.grp_ptr[cand_groups]
        lens = self.grp_ptr[cand_groups + 1] - starts
        cand_dst = self.grp_dst[cand_groups]
        cand_rank = self.grp_rank[cand_groups]
        # An arc hits for lane l iff its source is active in l AND the
        # group's destination is still a candidate in l.
        grp, pos, bits, dry = _first_hit_records(
            starts, lens, self._pull_src, active_bits, grp_cand_bits[cand_groups]
        )
        # The records are first hits; a stable sort by group puts them in
        # (group, position) order.
        grp, order = key_order(grp)
        pos, won = pos[order], bits[order]
        # Early exit per lane: its first hit + 1.  The shared scan stops at
        # the deepest of them (the group's last winner), or runs the full
        # group when a lane scanned it dry.
        last = np.ones(grp.size, dtype=bool)
        np.not_equal(grp[1:], grp[:-1], out=last[:-1])
        depth = np.zeros(cand_groups.size, dtype=np.int64)
        depth[grp[last]] = pos[last] + 1
        scanned_per_rank = np.bincount(
            cand_rank, weights=np.where(dry, lens, depth), minlength=self.num_ranks
        ).astype(np.int64)
        # Cross-rank winner per (destination, lane): groups ascend by rank
        # within a destination, so the first claim is the lowest rank.
        win, won, uniq, dst_words = claim_lanes(cand_dst[grp], won)
        grp, pos = grp[win], pos[win]
        # One wire message per (dst, rank) that won a lane — the lane word
        # rides along, so overlapping lanes share the message.
        msgs = grp[first_of_run(grp)]
        updates = LaneActivations.of_winners(
            uniq, dst_words, cand_dst[grp], self._pull_src[starts[grp] + pos], won
        )
        return LanePullScan(updates, scanned_per_rank, cand_dst[msgs], cand_rank[msgs])


# ----------------------------------------------------------------------
# incremental repair primitives (repro.dynamic)
# ----------------------------------------------------------------------


def check_key_width(num_ranks: int, num_vertices: int) -> None:
    """Raise :class:`ValueError` unless the packed ``(rank, dst, src)``
    key, below ``num_ranks * n**2``, fits in 63 bits."""
    if num_ranks * num_vertices * num_vertices >= 2**63:
        raise ValueError(
            f"packed arc keys would overflow int64 for {num_ranks} ranks "
            f"and {num_vertices} vertices"
        )


def check_edge_ids(src, dst, num_vertices: int) -> None:
    """Raise :class:`ValueError` naming the first pair with an id outside
    ``0 <= id < num_vertices`` (its arc key would decode into a different
    edge)."""
    src, dst = np.asarray(src), np.asarray(dst)
    if src.size == 0 or (
        min(src.min(), dst.min()) >= 0 and max(src.max(), dst.max()) < num_vertices
    ):
        return
    i = np.flatnonzero(
        (src < 0) | (src >= num_vertices) | (dst < 0) | (dst >= num_vertices)
    )[0]
    raise ValueError(
        f"edge ({src[i]}, {dst[i]}) is out of range: expected "
        f"0 <= src, dst < {num_vertices}"
    )


def arc_keys(src: np.ndarray, dst: np.ndarray, num_vertices: int) -> np.ndarray:
    """Directed-arc identity key ``src * n + dst`` (``int64``).

    The key space is injective while ``n**2`` fits in int64 (n < ~3e9,
    far beyond anything the simulator holds in memory), so set algebra
    on arcs — the overlay diffs below — is plain sorted-array work.
    """
    n = np.int64(num_vertices)
    return src.astype(np.int64, copy=False) * n + dst.astype(np.int64, copy=False)


def member(keys: np.ndarray, sorted_set: np.ndarray) -> np.ndarray:
    """Boolean membership of ``keys`` in a sorted key array."""
    if sorted_set.size == 0 or keys.size == 0:
        return np.zeros(keys.size, dtype=bool)
    pos = np.searchsorted(sorted_set, keys)
    pos[pos == sorted_set.size] = sorted_set.size - 1
    return sorted_set[pos] == keys


def merge_arc_delta(
    component: SubgraphComponent,
    *,
    add_src: np.ndarray,
    add_dst: np.ndarray,
    add_rank: np.ndarray,
    drop_src: np.ndarray,
    drop_dst: np.ndarray,
    num_vertices: int,
) -> SubgraphComponent:
    """Merge a pending overlay into a frozen component (compaction).

    Drops every base arc whose directed ``(src, dst)`` pair appears in
    the drop set, appends the added arcs, and re-freezes.  Because the
    component's packed orders are value sorts of the arc content (push:
    ``(src, dst)``; pull: ``(rank, dst, src)``), merging a delta and
    rebuilding from scratch produce bit-identical arrays whenever the
    surviving arc *sets* match — the property the incremental-vs-rebuild
    equivalence gate checks.  The in-simulator merge re-sorts for
    simplicity; the honest cost (a linear merge of two sorted runs plus
    an alltoallv of only the delta arcs) is what
    :class:`repro.dynamic.repair.IncrementalGraph` charges its ledger.

    Arcs must be unique per directed pair within the component (true for
    any deduplicated undirected edge set, which is what the dynamic
    layer maintains).
    """
    base_src, base_dst, base_rank = component.arcs()
    if drop_src.size:
        keep = ~member(
            arc_keys(base_src, base_dst, num_vertices),
            np.sort(arc_keys(drop_src, drop_dst, num_vertices)),
        )
        base_src, base_dst, base_rank = (
            base_src[keep], base_dst[keep], base_rank[keep],
        )
    src = np.concatenate([base_src, add_src.astype(np.int64)])
    dst = np.concatenate([base_dst, add_dst.astype(np.int64)])
    rank = np.concatenate([base_rank, add_rank.astype(np.int64)])
    return SubgraphComponent(
        component.name, src, dst, rank, component.num_ranks, num_vertices
    )

"""Tests for SubgraphComponent push/pull primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import PLACEMENT_MODES, partition_graph
from repro.core.subgraphs import _ROUNDS, SubgraphComponent, _expand_runs
from repro.core.vertexset import VertexSet, first_writers
from repro.runtime.mesh import ProcessMesh

from helpers import lane_updates, pull_scan, pull_scan_lanes


def make_component(arcs, num_ranks=4, name="test", num_vertices=2048):
    src = np.array([a[0] for a in arcs], dtype=np.int64)
    dst = np.array([a[1] for a in arcs], dtype=np.int64)
    rank = np.array([a[2] for a in arcs], dtype=np.int64)
    return SubgraphComponent(name, src, dst, rank, num_ranks, num_vertices)


class TestConstruction:
    def test_empty(self):
        comp = make_component([])
        assert comp.num_arcs == 0
        assert comp.num_groups == 0
        assert comp.arcs_per_rank.tolist() == [0, 0, 0, 0]

    def test_arcs_roundtrip(self):
        arcs = [(0, 1, 0), (0, 2, 1), (3, 1, 2), (3, 1, 2)]
        comp = make_component(arcs)
        s, d, r = comp.arcs()
        assert sorted(zip(s.tolist(), d.tolist(), r.tolist())) == sorted(arcs)

    def test_arcs_per_rank(self):
        comp = make_component([(0, 1, 0), (1, 2, 0), (2, 3, 3)])
        assert comp.arcs_per_rank.tolist() == [2, 0, 0, 1]

    def test_groups_by_rank_and_dst(self):
        # same dst on two ranks -> two groups
        comp = make_component([(0, 5, 0), (1, 5, 1), (2, 5, 1)])
        assert comp.num_groups == 2

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal shape"):
            SubgraphComponent(
                "x", np.array([0]), np.array([1, 2]), np.array([0]), 4, 8
            )

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError, match="rank out of range"):
            make_component([(0, 1, 9)])


def lexsort_kernel1(src, dst, rank, num_ranks, n):
    """Every array :class:`SubgraphComponent` builds, from two lexsorts:
    push by ``(src, dst)`` with ties in input order, pull by
    ``(rank, dst, src)``."""
    def runs(*cols):
        first = np.zeros(cols[0].size, dtype=bool)
        first[:1] = True
        for c in cols:
            first[1:] |= c[1:] != c[:-1]
        starts = np.flatnonzero(first)
        return starts, np.append(starts, first.size)

    push = np.lexsort((dst, src))
    starts, src_indptr = runs(src[push])
    src_ids = src[push][starts]
    slot_of = np.full(n, -1, dtype=np.int64)
    slot_of[src_ids] = np.arange(src_ids.size)
    pull = np.lexsort((src, dst, rank))
    starts, grp_ptr = runs(rank[pull], dst[pull])
    return {
        "src_ids": src_ids,
        "src_indptr": src_indptr,
        "_slot_of": slot_of,
        "_push_dst": dst[push],
        "_push_rank": rank[push],
        "_pull_src": src[pull],
        "grp_ptr": grp_ptr,
        "grp_dst": dst[pull][starts],
        "grp_rank": rank[pull][starts],
        "arcs_per_rank": np.bincount(rank, minlength=num_ranks),
    }


@st.composite
def duplicate_arcs(draw):
    """Arc lists drawn from a few ``(src, dst)`` pairs, so equal pairs
    recur on different ranks (the push tie-break) and on the same rank
    (indistinguishable pull keys)."""
    n = draw(st.integers(1, 12))
    ranks = draw(st.integers(1, 4))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=1, max_size=6,
        )
    )
    arcs = draw(
        st.lists(
            st.tuples(st.sampled_from(pairs), st.integers(0, ranks - 1)),
            max_size=60,
        )
    )
    src = np.array([p[0] for p, _ in arcs], dtype=np.int64)
    dst = np.array([p[1] for p, _ in arcs], dtype=np.int64)
    rank = np.array([r for _, r in arcs], dtype=np.int64)
    return src, dst, rank, ranks, n


@given(case=duplicate_arcs())
@settings(max_examples=200, deadline=None)
def test_property_construction_matches_lexsort_oracle(case):
    src, dst, rank, ranks, n = case
    comp = SubgraphComponent("t", src, dst, rank, ranks, n)
    for name, want in lexsort_kernel1(src, dst, rank, ranks, n).items():
        got = getattr(comp, name)
        assert got.dtype == np.int64, name
        assert got.tolist() == want.tolist(), name


class TestPush:
    def test_selects_frontier_arcs_only(self):
        comp = make_component([(0, 1, 0), (0, 2, 1), (5, 3, 2)], num_ranks=4)
        active = np.zeros(8, dtype=bool)
        active[0] = True
        sel = comp.push_select(active)
        assert sel.num_arcs == 2
        assert set(sel.dst.tolist()) == {1, 2}

    def test_empty_frontier(self):
        comp = make_component([(0, 1, 0)])
        sel = comp.push_select(np.zeros(4, dtype=bool))
        assert sel.num_arcs == 0

    def test_per_rank_counts(self):
        comp = make_component([(0, 1, 0), (0, 2, 1), (0, 3, 1)])
        active = np.zeros(4, dtype=bool)
        active[0] = True
        sel = comp.push_select(active)
        assert sel.per_rank(4).tolist() == [1, 2, 0, 0]

    def test_duplicate_arcs_selected_twice(self):
        comp = make_component([(0, 1, 0), (0, 1, 0)])
        active = np.zeros(4, dtype=bool)
        active[0] = True
        assert comp.push_select(active).num_arcs == 2


class TestPull:
    def test_basic_hit(self):
        comp = make_component([(1, 5, 0), (2, 6, 0)], num_ranks=2)
        candidate = np.ones(8, dtype=bool)
        active = np.zeros(8, dtype=bool)
        active[1] = True
        scan = pull_scan(comp, candidate, active)
        assert scan.hit_dst.tolist() == [5]
        assert scan.hit_src.tolist() == [1]

    def test_candidate_filter(self):
        comp = make_component([(1, 5, 0)], num_ranks=2)
        candidate = np.zeros(8, dtype=bool)  # 5 not a candidate
        active = np.ones(8, dtype=bool)
        scan = pull_scan(comp, candidate, active)
        assert scan.num_hits == 0
        assert scan.scanned_arcs == 0

    def test_early_exit_counts(self):
        # dst 5 has 4 incoming arcs on rank 0; the 2nd source is active.
        comp = make_component(
            [(1, 5, 0), (2, 5, 0), (3, 5, 0), (4, 5, 0)], num_ranks=1
        )
        candidate = np.ones(8, dtype=bool)
        active = np.zeros(8, dtype=bool)
        active[2] = True
        scan = pull_scan(comp, candidate, active)
        # arcs are scanned in (dst-group) order: sources sorted 1,2,3,4 -> 2 scanned
        assert scan.scanned_arcs == 2
        assert scan.hit_src.tolist() == [2]

    def test_no_hit_scans_whole_group(self):
        comp = make_component([(1, 5, 0), (2, 5, 0)], num_ranks=1)
        scan = pull_scan(comp, np.ones(8, bool), np.zeros(8, bool))
        assert scan.num_hits == 0
        assert scan.scanned_arcs == 2

    def test_cross_rank_winner_is_lowest_rank(self):
        comp = make_component([(1, 5, 1), (2, 5, 0)], num_ranks=2)
        active = np.zeros(8, dtype=bool)
        active[1] = active[2] = True
        scan = pull_scan(comp, np.ones(8, bool), active)
        assert scan.num_hits == 1
        assert scan.hit_src.tolist() == [2]  # rank 0's hit wins
        assert scan.hit_rank.tolist() == [0]

    def test_scanned_per_rank(self):
        comp = make_component(
            [(1, 5, 0), (2, 5, 0), (1, 6, 1), (2, 6, 1), (3, 6, 1)], num_ranks=2
        )
        active = np.zeros(8, dtype=bool)
        active[2] = True
        scan = pull_scan(comp, np.ones(8, bool), active)
        assert scan.scanned_per_rank.tolist() == [2, 2]

    def test_empty_component(self):
        comp = make_component([])
        scan = pull_scan(comp, np.ones(4, bool), np.ones(4, bool))
        assert scan.num_hits == 0


@given(
    seed=st.integers(0, 500),
    n=st.integers(2, 30),
    m=st.integers(0, 100),
    ranks=st.integers(1, 4),
)
@settings(max_examples=50, deadline=None)
def test_property_push_pull_equivalence(seed, n, m, ranks):
    """Push from frontier and pull into unvisited discover the same set."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    rank = rng.integers(0, ranks, size=m)
    comp = SubgraphComponent("t", src, dst, rank, ranks, n)
    active = rng.random(n) < 0.3
    visited = active.copy()  # frontier is visited

    sel = comp.push_select(active)
    push_found = set(sel.dst[~visited[sel.dst]].tolist())
    scan = pull_scan(comp, ~visited, active)
    pull_found = set(scan.hit_dst.tolist())
    assert push_found == pull_found
    # pull parents are always active sources with a real arc
    for d, s in zip(scan.hit_dst.tolist(), scan.hit_src.tolist()):
        assert active[s]
        assert any((a == s and b == d) for a, b in zip(src.tolist(), dst.tolist()))


# ----------------------------------------------------------------------
# the replaced push paths keep their old definitions as oracles
# ----------------------------------------------------------------------


def mask_gather_push_select(comp, active):
    """``push_select`` as it was when the frontier was only a mask: gather
    the mask over every source of the component, then expand."""
    sel_srcs = np.flatnonzero(active[comp.src_ids])
    starts = comp.src_indptr[sel_srcs]
    lens = comp.src_indptr[sel_srcs + 1] - starts
    idx = _expand_runs(starts, lens)
    return (
        np.repeat(comp.src_ids[sel_srcs], lens),
        comp._push_dst[idx],
        comp._push_rank[idx],
        lens,
    )


@given(
    seed=st.integers(0, 500),
    n=st.sampled_from([1, 2, 7, 30, 33, 100]),
    m=st.integers(0, 150),
    ranks=st.integers(1, 4),
    active_p=st.sampled_from([0.0, 0.05, 0.4, 1.0]),
)
@settings(max_examples=150, deadline=None)
def test_property_push_select_over_ids_matches_mask_gather(
    seed, n, m, ranks, active_p
):
    """Empty components, frontier vertices that are not sources (sources
    come from the lower half of the ids only), n not a power of two, an
    all-true frontier — as a set and as a raw mask."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, max(n // 2, 1), size=m)
    dst = rng.integers(0, n, size=m)
    rank = rng.integers(0, ranks, size=m)
    comp = SubgraphComponent("t", src, dst, rank, ranks, n)
    active = rng.random(n) < active_p
    vclass = rng.integers(0, 3, size=n)
    expected = mask_gather_push_select(comp, active)
    for frontier in (active, VertexSet.from_mask(active, vclass)):
        sel = comp.push_select(frontier)
        got = (sel.src, sel.dst, sel.rank, sel.lens)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert sel.num_arcs == int(sel.lens.sum())
    grown = VertexSet(n, vclass)
    for chunk in np.array_split(rng.permutation(np.flatnonzero(active)), 3):
        grown.add(np.sort(chunk))
    assert np.array_equal(grown.ids, np.flatnonzero(active))
    assert np.array_equal(grown.counts, np.bincount(vclass[active], minlength=3))
    assert np.array_equal(comp.push_select(grown).dst, expected[1])


@given(
    seed=st.integers(0, 500),
    n=st.integers(1, 40),
    sizes=st.lists(st.integers(0, 120), min_size=1, max_size=4),
    distinct=st.integers(1, 40),
)
@settings(max_examples=150, deadline=None)
def test_property_first_writers_matches_np_unique(seed, n, sizes, distinct):
    """m = 0, all-equal keys (``distinct`` = 1) and one scratch reused
    across calls, which must come back all-sentinel every time."""
    rng = np.random.default_rng(seed)
    scratch = VertexSet(n).scratch
    sentinel = scratch.copy()
    for m in sizes:
        keys = rng.integers(0, min(distinct, n), size=m)
        uniq, first = first_writers(keys, scratch)
        expected = np.unique(keys, return_index=True)
        assert np.array_equal(uniq, expected[0])
        assert np.array_equal(first, expected[1])
        assert uniq.dtype == expected[0].dtype and first.dtype == expected[1].dtype
        assert np.array_equal(scratch, sentinel)


# ----------------------------------------------------------------------
# the first-hit scans against a per-group Python loop
# ----------------------------------------------------------------------


def oracle_pull_scan(comp, candidate, active):
    """The per-group hits ``pull_scan`` finds (before the cross-rank
    dedup) and what it charges, as the plain loop it vectorises."""
    g_dst, g_src, g_rank = [], [], []
    scanned = [0] * comp.num_ranks
    for g in range(comp.num_groups):
        dst, rank = int(comp.grp_dst[g]), int(comp.grp_rank[g])
        if not candidate[dst]:
            continue
        run = comp._pull_src[comp.grp_ptr[g] : comp.grp_ptr[g + 1]].tolist()
        depth = len(run)
        for pos, src in enumerate(run):
            if active[src]:
                g_dst.append(dst)
                g_src.append(src)
                g_rank.append(rank)
                depth = pos + 1
                break
        scanned[rank] += depth
    return g_dst, g_src, g_rank, scanned


def oracle_pull_scan_lanes(comp, cand_bits, act_bits, lanes):
    """``pull_scan_lanes``' per-group hits lane by lane; a group is
    charged the deepest scan any of its candidate lanes needed."""
    hits = {lane: ([], [], []) for lane in lanes}
    scanned = [0] * comp.num_ranks
    for g in range(comp.num_groups):
        dst, rank = int(comp.grp_dst[g]), int(comp.grp_rank[g])
        run = comp._pull_src[comp.grp_ptr[g] : comp.grp_ptr[g + 1]].tolist()
        depth = 0
        for lane in lanes:
            if not (int(cand_bits[dst]) >> lane) & 1:
                continue
            lane_depth = len(run)
            for pos, src in enumerate(run):
                if (int(act_bits[src]) >> lane) & 1:
                    hits[lane][0].append(dst)
                    hits[lane][1].append(src)
                    hits[lane][2].append(rank)
                    lane_depth = pos + 1
                    break
            depth = max(depth, lane_depth)
        scanned[rank] += depth
    lane_hits = [(lane, *hits[lane]) for lane in lanes if hits[lane][0]]
    return lane_hits, scanned


def oracle_dedup(g_dst, g_src, g_rank):
    """Lowest-rank hit per destination, by destination."""
    best = {}
    for dst, src, rank in zip(g_dst, g_src, g_rank):
        if dst not in best or rank < best[dst][1]:
            best[dst] = (src, rank)
    dsts = sorted(best)
    return dsts, [best[d][0] for d in dsts], [best[d][1] for d in dsts]


def assert_scan_matches(comp, candidate, active):
    scan = pull_scan(comp, candidate, active)
    g_dst, g_src, g_rank, want_scanned = oracle_pull_scan(comp, candidate, active)
    got = (scan.hit_dst, scan.hit_src, scan.hit_rank)
    for g, w in zip(got, oracle_dedup(g_dst, g_src, g_rank)):
        assert g.dtype == np.int64
        assert g.tolist() == w
    assert scan.scanned_per_rank.dtype == np.int64
    assert scan.scanned_per_rank.tolist() == want_scanned
    return scan


def assert_lane_scan_matches(comp, cand_bits, act_bits, lanes):
    mask = sum(1 << lane for lane in lanes)
    scan = pull_scan_lanes(comp, cand_bits, act_bits, np.uint64(mask))
    want_hits, want_scanned = oracle_pull_scan_lanes(
        comp, cand_bits, act_bits, lanes
    )
    assert scan.scanned_per_rank.tolist() == want_scanned
    want_updates, messages = [], set()
    for lane, g_dst, g_src, g_rank in want_hits:
        dsts, srcs, win_ranks = oracle_dedup(g_dst, g_src, g_rank)
        want_updates.append((lane, dsts, srcs))
        messages |= set(zip(dsts, win_ranks))
    assert lane_updates(scan.updates) == want_updates
    assert list(zip(scan.msg_dst.tolist(), scan.msg_rank.tolist())) == sorted(
        messages
    )
    return scan


def one_group(length, dst=100):
    """A single pull group whose sources, in scan order, are 0..length-1."""
    return make_component([(s, dst, 0) for s in range(length)], num_ranks=1)


GROUP_LENGTHS = sorted({1, 2, _ROUNDS - 1, _ROUNDS, _ROUNDS + 1, _ROUNDS + 3})


@pytest.mark.parametrize("length", GROUP_LENGTHS)
def test_first_hit_at_every_position(length):
    """Groups shorter than, equal to and longer than the round count, the
    hit at every position — the last round and the first residual
    position among them — and no hit at all."""
    comp = one_group(length)
    candidate = np.ones(101, dtype=bool)
    for pos in list(range(length)) + [None]:
        active = np.zeros(101, dtype=bool)
        if pos is not None:
            active[pos:length:2] = True  # later hits must not matter
        scan = assert_scan_matches(comp, candidate, active)
        assert scan.scanned_arcs == (length if pos is None else pos + 1)
        assert scan.hit_src.tolist() == ([] if pos is None else [pos])


@pytest.mark.parametrize("length", GROUP_LENGTHS)
def test_lanes_charge_the_deeper_first_hit(length):
    """Two lanes hitting at different depths of one group; a third lane
    is candidate nowhere and must not appear."""
    comp = one_group(length)
    cand_bits = np.zeros(101, dtype=np.uint64)
    cand_bits[100] = 0b011
    for pos_a in range(length):
        for pos_b in list(range(length)) + [None]:
            act_bits = np.zeros(101, dtype=np.uint64)
            act_bits[pos_a] |= np.uint64(0b101)
            if pos_b is not None:
                act_bits[pos_b] |= np.uint64(0b110)
            scan = assert_lane_scan_matches(comp, cand_bits, act_bits, [0, 1, 2])
            deeper = length if pos_b is None else max(pos_a, pos_b) + 1
            assert scan.scanned_arcs == deeper
            assert [lane for lane, _, _ in lane_updates(scan.updates)] == (
                [0] if pos_b is None else [0, 1]
            )


@st.composite
def scan_cases(draw):
    """A small component with runs on both sides of the round count, and
    masks from empty through sparse to full."""
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(2, 24))
    ranks = draw(st.integers(1, 3))
    m = draw(st.integers(0, 160))
    # Few distinct destinations -> long groups; many -> groups of length 1.
    num_dsts = draw(st.integers(1, n))
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, num_dsts, size=m)
    rank = rng.integers(0, ranks, size=m)
    comp = SubgraphComponent("t", src, dst, rank, ranks, n)
    active_p = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    cand_p = draw(st.sampled_from([0.0, 0.5, 1.0]))
    return comp, rng, n, active_p, cand_p


@given(case=scan_cases())
@settings(max_examples=150, deadline=None)
def test_property_pull_scan_matches_oracle(case):
    comp, rng, n, active_p, cand_p = case
    active = rng.random(n) < active_p
    candidate = rng.random(n) < cand_p
    assert_scan_matches(comp, candidate, active)


@given(case=scan_cases(), num_lanes=st.sampled_from([1, 2, 5, 64]))
@settings(max_examples=150, deadline=None)
def test_property_pull_scan_lanes_matches_oracle(case, num_lanes):
    comp, rng, n, active_p, cand_p = case
    lanes = list(range(num_lanes))

    def lane_words(p):
        bits = rng.random((n, num_lanes)) < p
        words = np.zeros(n, dtype=np.uint64)
        for lane in lanes:
            words[bits[:, lane]] |= np.uint64(1 << lane)
        return words

    act_bits = lane_words(active_p)
    cand_bits = lane_words(cand_p)
    if num_lanes > 1:
        cand_bits &= ~np.uint64(2)  # lane 1 is candidate nowhere
    assert_lane_scan_matches(comp, cand_bits, act_bits, lanes)


@given(
    seed=st.integers(0, 10_000),
    placement=st.sampled_from(PLACEMENT_MODES),
    active_p=st.sampled_from([0.05, 0.3, 1.0]),
    cand_p=st.sampled_from([0.5, 1.0]),
)
@settings(max_examples=40, deadline=None)
def test_property_pull_scan_on_2x3_meshes(seed, placement, active_p, cand_p):
    """Partitions of a 2×3 mesh, where the 2D-placed components keep a
    destination's arcs on several ranks: the winner is the lowest-rank
    hit, and the scratch comes back unclaimed (``helpers.pull_scan``),
    also for the scan of no candidate and the scan that runs dry."""
    rng = np.random.default_rng(seed)
    n = 48
    src = rng.integers(0, n, size=320)
    dst = rng.integers(0, n, size=320)
    part = partition_graph(
        src, dst, n, ProcessMesh(2, 3), e_threshold=16, h_threshold=8,
        placement=placement,
    )
    eh = part.components["EH2EH"]
    spread = np.bincount(eh.grp_dst, minlength=n)
    assert spread.max() >= 2  # some destination has groups on two ranks
    active = rng.random(n) < active_p
    candidate = rng.random(n) < cand_p
    everything, nothing = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
    for comp in part.components.values():
        assert_scan_matches(comp, candidate, active)
        assert_scan_matches(comp, nothing, active)
        dry = assert_scan_matches(comp, everything, nothing)
        assert dry.num_hits == 0
        assert dry.scanned_per_rank.tolist() == comp.arcs_per_rank.tolist()


# ----------------------------------------------------------------------
# the early exit is real: count what the scan reads, not how long it takes
# ----------------------------------------------------------------------


class CountingArray(np.ndarray):
    """``pull_src`` that counts the elements gathered out of it."""

    def __getitem__(self, key):
        out = np.asarray(super().__getitem__(key))
        self.gathered[0] += out.size
        return out


def count_gathers(comp):
    """Swap ``comp``'s pull sources for the counting view; returns the
    one-element running count (reset it between scans)."""
    comp._pull_src = comp._pull_src.view(CountingArray)
    comp._pull_src.gathered = [0]
    return comp._pull_src.gathered


@pytest.fixture
def long_groups():
    """300 groups of 41 arcs; vertex 0 is the first source of each."""
    groups, length = 300, 41
    arcs = [
        (s, 1000 + g, g % 4) for g in range(groups) for s in range(length)
    ]
    return make_component(arcs, num_ranks=4), groups


def test_scan_reads_only_what_it_charges(long_groups):
    comp, groups = long_groups
    n = 1000 + groups
    active = np.zeros(n, dtype=bool)
    active[0] = True
    gathered = count_gathers(comp)
    scan = pull_scan(comp, np.ones(n, dtype=bool), active)
    assert scan.num_hits == groups and not scan.hit_src.any()
    assert scan.scanned_arcs == groups
    assert gathered[0] <= groups * (_ROUNDS + 1) < comp.num_arcs

    act_bits = np.zeros(n, dtype=np.uint64)
    act_bits[0] = 0b11
    gathered[0] = 0
    scan = pull_scan_lanes(
        comp, np.full(n, 0b11, dtype=np.uint64), act_bits, np.uint64(0b11)
    )
    assert [len(dst) for _, dst, _ in lane_updates(scan.updates)] == [
        groups, groups,
    ]
    assert scan.scanned_arcs == groups
    assert gathered[0] <= groups * (_ROUNDS + 1) < comp.num_arcs


def test_dry_scan_reads_every_arc_once(long_groups):
    comp, groups = long_groups
    n = 1000 + groups
    gathered = count_gathers(comp)
    scan = pull_scan(comp, np.ones(n, dtype=bool), np.zeros(n, dtype=bool))
    assert scan.num_hits == 0
    assert gathered[0] == comp.num_arcs
    assert scan.scanned_per_rank.tolist() == comp.arcs_per_rank.tolist()

    gathered[0] = 0
    scan = pull_scan_lanes(
        comp, np.full(n, 0b11, dtype=np.uint64), np.zeros(n, dtype=np.uint64),
        np.uint64(0b11),
    )
    assert len(scan.updates) == 0
    assert gathered[0] == comp.num_arcs
    assert scan.scanned_per_rank.tolist() == comp.arcs_per_rank.tolist()

"""The two early drops of the lane commits against brute-force oracles.

:func:`repro.core.lanes.claim_lanes` claims a call with more entries than
its key range in chunks of that range, each chunk first dropping the
lanes earlier chunks claimed; ``helpers.per_lane_claims`` (one stable
sort per lane) is the oracle.  ``_first_hit_records`` (lane words) and
``_first_hits`` (one lane, by cursor) scan what their single-position
rounds leave in position windows doubling in width from ``_ROUNDS``, and
return each lane's first hit per group only; the oracle walks every
group lane by lane.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.lanes import MAX_LANES, all_lanes_mask, claim_lanes, iter_lanes
from repro.core.subgraphs import (
    _ROUNDS,
    SubgraphComponent,
    _first_hit_records,
    _first_hits,
)

from helpers import per_lane_claims, pull_scan, pull_scan_lanes

ALL = int(all_lanes_mask(MAX_LANES))
TOP = 1 << 63  # lane 63: the uint64 sign bit


def as_lists(result):
    return [np.asarray(x).tolist() for x in result]


def assert_claim_matches(keys, words):
    keys = np.array(keys, dtype=np.int64)
    words = np.array(words, dtype=np.uint64)
    got = claim_lanes(keys, words)
    assert [x.dtype for x in got] == [np.int64, np.uint64, np.int64, np.uint64]
    assert as_lists(got) == as_lists(per_lane_claims(keys, words))


# ----------------------------------------------------------------------
# claim_lanes in chunks
# ----------------------------------------------------------------------


@st.composite
def chunked_claims(draw):
    """Entries outnumbering their key range 2–8 times over (so several
    chunks, the last one short), words from one lane to all 64."""
    span = draw(st.integers(1, 9))
    size = draw(st.integers(2 * span + 1, 8 * span + 3))
    keys = draw(st.lists(st.integers(0, span - 1), min_size=size, max_size=size))
    keys[draw(st.integers(0, size - 1))] = span - 1  # the range is span
    group = draw(st.sampled_from([1, 0b11, TOP, TOP | 1, ALL]))
    words = draw(
        st.lists(
            st.one_of(
                st.sampled_from([1, TOP, ALL, group]), st.integers(1, ALL)
            ).filter(lambda w: w & group),
            min_size=size, max_size=size,
        )
    )
    return keys, [w & group for w in words]


@given(case=chunked_claims())
@settings(max_examples=300, deadline=None)
@example(case=([0, 0, 0, 1], [1, 2, 1, 3]))  # the boundary splits key 0's run
@example(case=([1, 1, 1, 1, 0, 1], [TOP, TOP | 1, 1, 2, ALL, ALL]))
@example(case=([0] * 5 + [1], [ALL] * 6))  # all 64 lanes won by the first entry
def test_chunked_claim_matches_per_lane_loops(case):
    assert_claim_matches(*case)


def test_chunks_split_a_keys_run_in_every_lane():
    """64 entries over two keys: each chunk of two adds one new lane of
    each key, so every chunk wins something only the filter can tell."""
    keys = [0, 1] * 64
    words = [((1 << (i // 2 + 1)) - 1) for i in range(128)]
    words = [w & ALL for w in words]
    assert_claim_matches(keys, words)
    win, won, uniq, key_words = claim_lanes(
        np.array(keys, dtype=np.int64), np.array(words, dtype=np.uint64)
    )
    assert win.tolist() == list(range(0, 128, 2)) + list(range(1, 128, 2))
    assert uniq.tolist() == [0, 1] and key_words.tolist() == [ALL, ALL]


def test_covered_entries_win_nothing():
    """Once a chunk has claimed every lane of a key, no later entry of it
    is among the winners, whatever it carries."""
    keys = np.array([0, 1, 2] + [2, 1, 0] * 10, dtype=np.int64)
    words = np.full(keys.size, ALL, dtype=np.uint64)
    win, won, uniq, key_words = claim_lanes(keys, words)
    assert win.tolist() == [0, 1, 2]
    assert won.tolist() == [ALL] * 3
    assert uniq.tolist() == [0, 1, 2] and key_words.tolist() == [ALL] * 3


# ----------------------------------------------------------------------
# _first_hit_records and _first_hits in doubling windows
# ----------------------------------------------------------------------


def oracle_first_hits(starts, lens, pull_src, active, need):
    """``({(grp, pos): bits}, dry)`` lane by lane: each needed lane's first
    position in its group's run, and the groups where one never hit."""
    lanes = need.dtype != bool
    records, dry = {}, []
    for g, (start, length) in enumerate(zip(starts.tolist(), lens.tolist())):
        wanted = iter_lanes(need[g]) if lanes else ([0] if need[g] else [])
        missed = False
        for lane in wanted:
            for pos in range(length):
                offer = active[pull_src[start + pos]]
                if (int(offer) >> lane) & 1 if lanes else offer:
                    key = (g, pos)
                    records[key] = records.get(key, 0) | (1 << lane if lanes else 1)
                    break
            else:
                missed = True
        dry.append(missed)
    return records, dry


def assert_first_hits_match(starts, lens, pull_src, active, need):
    """Booleans (``need`` all true: one lane, every group looking) take
    the one-lane walk, lane words ``_first_hit_records``."""
    if need.dtype == bool:
        grp, at = _first_hits(starts, lens, pull_src, active)
        pos = at - starts[grp]
        bits = np.ones(grp.size, dtype=bool)
        dry = np.ones(starts.size, dtype=bool)
        dry[grp] = False
    else:
        grp, pos, bits, dry = _first_hit_records(
            starts, lens, pull_src, active, need.copy()
        )
    want, want_dry = oracle_first_hits(starts, lens, pull_src, active, need)
    got = {}
    for g, p, b in zip(grp.tolist(), pos.tolist(), bits.tolist()):
        assert (g, p) not in got  # one record per hit position
        got[(g, p)] = int(b)
    assert got == want
    assert dry.tolist() == want_dry
    # The records of a group come in position order (the stable sort by
    # group in pull_scan_lanes relies on it).
    order = np.argsort(grp, kind="stable")
    for g in np.unique(grp):
        at = pos[order][grp[order] == g]
        assert np.all(np.diff(at) > 0)
    return grp, pos


@st.composite
def window_cases(draw):
    """Groups as long as 70 arcs — the rounds and three or more windows —
    over sparse sources, with lane words (to all 64) or booleans (one
    lane)."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    num_groups = draw(st.integers(1, 30))
    lens = rng.integers(1, draw(st.sampled_from([9, 20, 71])), size=num_groups)
    n = draw(st.integers(8, 200))
    pull_src = rng.integers(0, n, size=int(lens.sum()))
    starts = np.cumsum(lens) - lens
    p = draw(st.sampled_from([0.0, 0.01, 0.05, 0.3]))
    num_lanes = draw(st.sampled_from([0, 2, 7, 64]))  # 0: booleans
    if num_lanes == 0:
        active = rng.random(n) < p
        need = np.ones(num_groups, dtype=bool)
    else:
        bits = rng.random((n, num_lanes)) < p
        active = (bits.astype(np.uint64) << np.arange(num_lanes, dtype=np.uint64)).sum(
            axis=1, dtype=np.uint64
        )
        want = rng.random((num_groups, num_lanes)) < 0.7
        need = (want.astype(np.uint64) << np.arange(num_lanes, dtype=np.uint64)).sum(
            axis=1, dtype=np.uint64
        )
        need[need == 0] = 1
    return starts.astype(np.int64), lens.astype(np.int64), pull_src, active, need


@given(case=window_cases())
@settings(max_examples=300, deadline=None)
def test_first_hit_records_match_oracle(case):
    assert_first_hits_match(*case)


@pytest.mark.parametrize("booleans", [True, False])
def test_hits_in_later_windows_and_dry_groups(booleans):
    """Five groups of 70 arcs: first hits in a round, in the first window,
    in the third and at the last arc, each hit again after it, and a
    group that runs dry."""
    length = 70
    hit_at = {0: 2, 1: _ROUNDS + 1, 2: 4 * _ROUNDS + 3, 3: length - 1}
    num_groups = len(hit_at) + 1  # the last group never hits
    lens = np.full(num_groups, length, dtype=np.int64)
    starts = np.arange(num_groups, dtype=np.int64) * length
    pull_src = np.zeros(num_groups * length, dtype=np.int64)  # vertex 0: inactive
    for g, pos in hit_at.items():
        pull_src[g * length + pos : (g + 1) * length : 5] = 1 + g  # and again
    if booleans:
        active = np.ones(num_groups + 1, dtype=bool)
        active[0] = False
        need = np.ones(num_groups, dtype=bool)
    else:
        # Vertex 1+g offers lanes {g, 63}; every group needs both.
        active = np.zeros(num_groups + 1, dtype=np.uint64)
        active[1:] = (np.uint64(1) << np.arange(num_groups, dtype=np.uint64)) | np.uint64(
            TOP
        )
        need = active[1:].copy()
    grp, pos = assert_first_hits_match(starts, lens, pull_src, active, need)
    assert dict(zip(grp.tolist(), pos.tolist())) == hit_at


# ----------------------------------------------------------------------
# the scans charge the oracle's depths
# ----------------------------------------------------------------------


def long_component(rng, n, groups, ranks=3):
    """``groups`` destinations (ids ``n - groups ..``) with in-runs up to
    60 arcs long on each of ``ranks`` ranks."""
    src, dst, rank = [], [], []
    for d in range(n - groups, n):
        for r in range(ranks):
            k = int(rng.integers(1, 61))
            src += rng.integers(0, n - groups, size=k).tolist()
            dst += [d] * k
            rank += [r] * k
    return SubgraphComponent("t", np.array(src), np.array(dst), np.array(rank), ranks, n)


def oracle_depths(comp, cand_bits, act_bits):
    """Per-rank scan charge: each candidate group scans to the deepest
    first hit of its candidate lanes, or to its end if one runs dry."""
    scanned = [0] * comp.num_ranks
    for g in range(comp.num_groups):
        dst, rank = int(comp.grp_dst[g]), int(comp.grp_rank[g])
        run = comp._pull_src[comp.grp_ptr[g] : comp.grp_ptr[g + 1]].tolist()
        depth = 0
        for lane in iter_lanes(cand_bits[dst]):
            hits = [p for p, s in enumerate(run) if (int(act_bits[s]) >> lane) & 1]
            depth = max(depth, hits[0] + 1 if hits else len(run))
        scanned[rank] += depth
    return scanned


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("num_lanes", [1, 5, 64])
def test_scan_depths_match_oracle(seed, num_lanes):
    rng = np.random.default_rng(seed)
    n, groups = 400, 40
    comp = long_component(rng, n, groups)
    bits = rng.random((n, num_lanes)) < 0.03
    lanes = np.arange(num_lanes, dtype=np.uint64)
    act_bits = (bits.astype(np.uint64) << lanes).sum(axis=1, dtype=np.uint64)
    cand_bits = np.zeros(n, dtype=np.uint64)
    cand_bits[n - groups :] = int(all_lanes_mask(num_lanes))
    want = oracle_depths(comp, cand_bits, act_bits)
    assert max(comp.grp_ptr[1:] - comp.grp_ptr[:-1]) > 4 * _ROUNDS
    scan = pull_scan_lanes(comp, cand_bits, act_bits, all_lanes_mask(num_lanes))
    assert scan.scanned_per_rank.tolist() == want
    if num_lanes == 1:
        single = pull_scan(comp, cand_bits != 0, act_bits != 0)
        assert single.scanned_per_rank.tolist() == want

"""The word-parallel lane claim against the lane-by-lane loops it replaced.

:func:`repro.core.lanes.claim_lanes` hands every lane of a key to the
first entry of that key carrying it.  The oracles are the per-lane
loops the batched commits used to run — one masked ``np.unique`` per lane
for the push commits (below), one stable sort and first-of-run per lane
for the cross-rank pull dedup (``helpers.per_lane_claims``).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.lanes import (
    EMPTY_LANE_ACTIVATIONS,
    MAX_LANES,
    LaneState,
    all_lanes_mask,
    claim_lanes,
    distinct,
    first_writer_lanes,
    iter_lanes,
    key_order,
    lane_bit,
)
from repro.core.vertexset import writer_scratch

from helpers import lane_updates, per_lane_claims

ALL = int(all_lanes_mask(MAX_LANES))
TOP = 1 << 63  # lane 63: the uint64 sign bit


def oracle_first_writer_per_lane(hit_bits, group, vertices, parents):
    """Per lane with a hit: its distinct vertices ascending and the
    parent of each one's first arc in selection order."""
    updates = []
    for lane in iter_lanes(group):
        mask = (hit_bits & lane_bit(lane)) != 0
        if not mask.any():
            continue
        uniq, first = np.unique(vertices[mask], return_index=True)
        updates.append((lane, uniq.tolist(), parents[mask][first].tolist()))
    return updates


def as_lists(result):
    return tuple(np.asarray(x).tolist() for x in result)


@st.composite
def claims(draw):
    """Entries of one group: duplicate-heavy keys, non-zero words inside
    the group.  Groups cover one lane, lane 63 and all 64 lanes."""
    group = draw(
        st.one_of(
            st.sampled_from([1, TOP, ALL, 0b11, TOP | 1]),
            st.integers(1, ALL),
            st.integers(0, 63).map(lambda lane: 1 << lane),
        )
    )
    size = draw(st.integers(1, 60))
    num_keys = draw(st.integers(1, 12))
    keys = draw(st.lists(st.integers(0, num_keys - 1), min_size=size, max_size=size))
    words = draw(
        st.lists(
            st.integers(1, ALL).filter(lambda w: w & group),
            min_size=size, max_size=size,
        )
    )
    words = np.array(words, dtype=np.uint64) & np.uint64(group)
    return np.array(keys, dtype=np.int64), words, group


@st.composite
def key_arrays(draw):
    """Non-negative ``int64`` keys, empty to 70 long, all equal or not,
    drawn around ``2**(62 - shift)`` — the first key whose packed word
    (key shifted past the index bits) would not fit — so both the packed
    sort and the stable-argsort fallback run."""
    size = draw(st.integers(0, 70))
    shift = max((size - 1).bit_length(), 1)
    edge = 2 ** (62 - shift)
    pool = st.one_of(
        st.integers(0, 5),
        st.integers(edge - 2, edge + 1),
        st.sampled_from([2**62, 2**63 - 1]),
    )
    if draw(st.booleans()):
        return np.full(size, draw(pool), dtype=np.int64)
    return np.array(
        draw(st.lists(pool, min_size=size, max_size=size)), dtype=np.int64
    )


class TestKeyOrder:
    @settings(max_examples=200, deadline=None)
    @given(keys=key_arrays())
    @example(keys=np.array([], dtype=np.int64))
    def test_matches_stable_argsort(self, keys):
        sorted_keys, order = key_order(keys)
        expect = np.argsort(keys, kind="stable")
        assert order.dtype == sorted_keys.dtype == np.int64
        assert order.tolist() == expect.tolist()
        assert sorted_keys.tolist() == keys[expect].tolist()

    @pytest.mark.parametrize("above", [False, True])
    def test_both_sides_of_the_packed_width(self, above):
        # Four keys pack the index in 2 bits: 2**60 is the first key
        # that has to take the fallback.
        top = 2**60 if above else 2**60 - 1
        keys = np.array([top, 3, top, 0], dtype=np.int64)
        sorted_keys, order = key_order(keys)
        assert order.tolist() == [3, 1, 0, 2]
        assert sorted_keys.tolist() == [0, 3, top, top]


class TestDistinct:
    @settings(max_examples=200, deadline=None)
    @given(keys=key_arrays())
    @example(keys=np.array([], dtype=np.int64))
    @example(keys=np.array([2**63 - 1], dtype=np.int64))
    @example(keys=np.full(5, 2**63 - 1, dtype=np.int64))
    def test_matches_np_unique(self, keys):
        before = keys.copy()
        got = distinct(keys)
        expect = np.unique(keys)
        assert got.dtype == expect.dtype
        assert got.tolist() == expect.tolist()
        assert np.array_equal(keys, before)


class TestClaimLanes:
    @settings(max_examples=150, deadline=None)
    @given(case=claims())
    def test_matches_the_per_lane_oracle(self, case):
        keys, words, _ = case
        got = as_lists(claim_lanes(keys, words))
        assert got == as_lists(per_lane_claims(keys, words))

    def test_hub_key_with_lane_63(self):
        # One long run (the doubling's deep case) whose lanes include the
        # sign bit, beside singleton keys.
        keys = np.array([5] * 40 + [1, 9, 5], dtype=np.int64)
        rng = np.random.default_rng(0)
        words = rng.integers(1, 2**63, size=keys.size, dtype=np.uint64)
        words[[3, 17, 41]] |= np.uint64(TOP)
        got = as_lists(claim_lanes(keys, words))
        assert got == as_lists(per_lane_claims(keys, words))
        assert got[3][got[2].index(5)] & TOP

    def test_empty_input(self):
        keys = np.array([], dtype=np.int64)
        words = np.array([], dtype=np.uint64)
        win, won, uniq, key_words = claim_lanes(keys, words)
        assert win.size == won.size == uniq.size == key_words.size == 0
        assert won.dtype == key_words.dtype == np.uint64


class TestFirstWriterLanes:
    @settings(max_examples=150, deadline=None)
    @given(case=claims(), zeros=st.integers(0, 5))
    def test_matches_the_push_commit_oracle(self, case, zeros):
        keys, words, group = case
        # Arcs that are fresh in no lane carry a zero word.
        keys = np.concatenate([keys, np.arange(zeros, dtype=np.int64)])
        words = np.concatenate([words, np.zeros(zeros, dtype=np.uint64)])
        parents = np.arange(keys.size, dtype=np.int64) * 7 + 3
        acts = first_writer_lanes(
            keys, parents, words, np.uint64(group), writer_scratch(16)
        )
        assert lane_updates(acts) == oracle_first_writer_per_lane(
            words, group, keys, parents
        )

    def test_no_fresh_arc_is_empty(self):
        keys = np.array([1, 2], dtype=np.int64)
        words = np.zeros(2, dtype=np.uint64)
        acts = first_writer_lanes(keys, keys, words, np.uint64(3), writer_scratch(4))
        assert acts is EMPTY_LANE_ACTIVATIONS and len(acts) == 0


def test_commit_writes_one_word_per_vertex():
    """``LaneState.commit`` applies flat triples and per-vertex words:
    parents per lane, visited/newly bits, ``[lane, class]`` counts and
    the union of this level's activations."""
    n = 8
    vclass = np.array([0, 1, 2, 0, 1, 2, 0, 1], dtype=np.int8)
    lanes = LaneState(n, np.array([0, 7]), vclass)
    keys = np.array([3, 4, 3, 5], dtype=np.int64)
    words = np.array([0b01, 0b11, 0b10, 0b10], dtype=np.uint64)
    parents = np.array([0, 0, 7, 7], dtype=np.int64)
    acts = first_writer_lanes(keys, parents, words, lanes.lane_mask, lanes.scratch)
    assert lanes.commit(acts) == 5
    assert lanes.parent[0, [3, 4]].tolist() == [0, 0]
    assert lanes.parent[1, [3, 4, 5]].tolist() == [7, 0, 7]
    assert lanes.newly[[3, 4, 5]].tolist() == [0b11, 0b11, 0b10]
    assert lanes.newly_counts.tolist() == [[1, 1, 0], [1, 1, 1]]
    assert (lanes.visited_counts - lanes.active_counts).tolist() == [
        [1, 1, 0], [1, 1, 1],
    ]
    lanes.advance()
    assert lanes.frontier.ids.tolist() == [3, 4, 5]
    assert lanes.frontier.counts.tolist() == [1, 1, 1]
    assert lanes.frontier_sizes().tolist() == [2, 3]

"""Running per-lane class counts against their definition.

``LaneState`` keeps ``[lane, class]`` population counts of the frontier,
the visited set and the level's activations at commit time, and the
batched hooks decide directions, size frontiers and fill activation
records from those integers alone.  The definition stays the popcount of
each lane's bit over the class's lane words (``helpers.lane_population``)
and, per lane, the sequential ``ClassState.measure`` on that lane's
boolean view; a checking host compares the two before every
sub-iteration and at every level boundary.  A second host counts element
reads and writes of the lane words, to show that the saving is real by
count rather than by clock.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BFSConfig, DistributedBFS, partition_graph
from repro.core.direction import choose_component_direction
from repro.core.lanes import LaneState, iter_lanes, lane_bit
from repro.core.partition import VertexClass
from repro.machine.network import MachineSpec
from repro.runtime.mesh import ProcessMesh
from repro.serve.msbfs import MultiSourceBFS

from helpers import lane_population, random_edge_list

CLASS_CODES = {"E": VertexClass.E, "H": VertexClass.H, "L": VertexClass.L}


class CheckingMSBFS(MultiSourceBFS):
    """``MultiSourceBFS`` that holds every count to the mask oracle."""

    checks = 0

    def assert_counts_match_words(self, lanes: LaneState) -> None:
        k = lanes.num_lanes
        for code in CLASS_CODES.values():
            members = self.part.vclass == code
            for words, counts in (
                (lanes.active, lanes.active_counts),
                (lanes.visited, lanes.visited_counts),
                (lanes.newly, lanes.newly_counts),
            ):
                assert np.array_equal(
                    lane_population(words[members], k), counts[:, code]
                )
        assert np.array_equal(
            lanes.frontier_sizes(), lane_population(lanes.active, k)
        )
        assert lanes.active_lane_mask == np.bitwise_or.reduce(lanes.active)
        assert lanes.active_lane_mask.dtype == np.uint64
        # Nothing outside the batch's lanes is ever set.
        assert not np.any((lanes.active | lanes.visited) & ~lanes.lane_mask)
        self.checks += 1

    def begin_batch_iteration(self, ledger, lanes):
        self.lanes = lanes
        self.assert_counts_match_words(lanes)
        super().begin_batch_iteration(ledger, lanes)

    def batch_component_directions(self, name, lanes):
        # Before every sub-iteration: the counts, then each live lane's
        # ratios and decision against the sequential measurement.
        self.assert_counts_match_words(lanes)
        push_mask, pull_mask = super().batch_component_directions(name, lanes)
        assert int(push_mask) & int(pull_mask) == 0
        assert int(push_mask) | int(pull_mask) == int(lanes.active_lane_mask)
        for lane in iter_lanes(lanes.active_lane_mask):
            bit = lane_bit(lane)
            ratios = self.ctx.class_state.measure(
                (lanes.active & bit) != 0, (lanes.visited & bit) != 0
            )
            for cls, (active_ratio, unvisited_ratio) in ratios.items():
                codes = [CLASS_CODES[c] for c in cls]  # "EH" is E plus H
                size = self.ctx.class_state.sizes[cls]
                active = int(lanes.active_counts[lane, codes].sum())
                visited = int(lanes.visited_counts[lane, codes].sum())
                assert active / max(size, 1) == active_ratio
                assert (size - visited) / max(size, 1) == unvisited_ratio
            expected = choose_component_direction(name, ratios, self.config)
            chosen = "pull" if int(pull_mask) & int(bit) else "push"
            assert chosen == expected
        return push_mask, pull_mask

    def record_batch_activation(self, record, newly):
        # End of a level, before the frontier rolls over.
        lanes = self.lanes
        self.assert_counts_match_words(lanes)
        super().record_batch_activation(record, newly)
        for cls, code in CLASS_CODES.items():
            members = self.part.vclass == code
            assert record.newly_activated[cls] == int(
                np.bitwise_count(lanes.newly[members]).sum()
            )

    def end_batch_run(self, ledger, tracer, lanes):
        self.assert_counts_match_words(lanes)
        super().end_batch_run(ledger, tracer, lanes)


def build(n, m, seed, e_thr, h_thr, engine=CheckingMSBFS, **cfg):
    """Engines over ``m`` uniform random edges plus four hubs of 24
    spokes each, so that degree thresholds can separate three classes
    (and, on sparse ``m``, leave isolated vertices)."""
    src, dst = random_edge_list(n, m, seed=seed)
    rng = np.random.default_rng(seed)
    src = np.concatenate([src, np.repeat(np.arange(4), 24)])
    dst = np.concatenate([dst, rng.integers(4, n, size=4 * 24)])
    machine = MachineSpec(num_nodes=4, nodes_per_supernode=2)
    mesh = ProcessMesh(2, 2, machine=machine)
    part = partition_graph(src, dst, n, mesh, e_threshold=e_thr, h_threshold=h_thr)
    config = BFSConfig(e_threshold=e_thr, h_threshold=h_thr, **cfg)
    return (
        part,
        DistributedBFS(part, machine=machine, config=config),
        engine(part, machine=machine, config=config),
    )


def roots_covering_classes(part, num_lanes, rng):
    """``num_lanes`` distinct roots: one of each populated class and one
    isolated vertex (a lane that empties before the others) first, the
    rest drawn at random."""
    picked = []
    for code in CLASS_CODES.values():
        members = np.flatnonzero(part.vclass == code)
        if members.size:
            picked.append(int(rng.choice(members)))
    isolated = np.flatnonzero(part.degrees == 0)
    if isolated.size:
        picked.append(int(isolated[0]))
    picked = list(dict.fromkeys(picked))[:num_lanes]
    rest = np.setdiff1d(np.arange(part.num_vertices), picked)
    extra = rng.choice(rest, size=num_lanes - len(picked), replace=False)
    return np.array(picked + [int(v) for v in extra], dtype=np.int64)


#: (e_threshold, h_threshold): all three classes, no E, no H, only L.
THRESHOLDS = [(16, 3), (10**6, 3), (5, 5), (10**6, 10**6)]


class TestCountsEqualDefinition:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**20),
        num_lanes=st.sampled_from([1, 3, 64]),
        thresholds=st.sampled_from(THRESHOLDS),
        m=st.sampled_from([96, 256, 512]),
    )
    def test_counts_match_mask_oracle_after_every_commit(
        self, seed, num_lanes, thresholds, m
    ):
        part, sequential, batched = build(128, m, seed, *thresholds)
        roots = roots_covering_classes(
            part, num_lanes, np.random.default_rng(seed)
        )
        batch = batched.run_batch(roots)
        assert batched.checks > batch.num_waves
        for lane, root in enumerate(roots):
            assert np.array_equal(
                batch.lane_parent(lane), sequential.run(int(root)).parent
            )
        # The per-wave frontier sizes are the counts the waves ran on.
        depths = [batch.lane_depth(lane) for lane in range(num_lanes)]
        assert batch.num_waves == max(depths)

    @pytest.mark.parametrize("thresholds", THRESHOLDS)
    def test_empty_classes_are_exercised(self, thresholds):
        # The threshold pairs above really do leave E, H or both empty,
        # and a lane rooted at an isolated vertex empties at wave 1.
        part, _, batched = build(128, 96, 5, *thresholds)
        sizes = part.class_sizes()
        e_thr, h_thr = thresholds
        assert (sizes["E"] == 0) == (e_thr == 10**6)
        assert (sizes["H"] == 0) == (e_thr == h_thr)
        roots = roots_covering_classes(part, 3, np.random.default_rng(5))
        batch = batched.run_batch(roots)
        assert batched.checks
        isolated = np.flatnonzero(part.degrees[roots] == 0)
        for lane in isolated:
            assert batch.lane_depth(int(lane)) == 1 < batch.num_waves

    def test_whole_iteration_mode_keeps_counts_too(self):
        part, sequential, batched = build(
            128, 256, 11, 16, 3, sub_iteration_direction=False
        )
        roots = roots_covering_classes(part, 8, np.random.default_rng(11))
        batch = batched.run_batch(roots)
        assert batched.checks > batch.num_waves
        for lane, root in enumerate(roots):
            assert np.array_equal(
                batch.lane_parent(lane), sequential.run(int(root)).parent
            )


# ----------------------------------------------------------------------
# the saving, by count
# ----------------------------------------------------------------------


class CountingWords(np.ndarray):
    """A lane-word array that counts the elements read and written
    through it (indexing and ufuncs; results are plain arrays)."""

    def __new__(cls, words, tally):
        out = np.asarray(words).view(cls)
        out.tally = tally
        return out

    def __array_finalize__(self, obj):
        self.tally = getattr(obj, "tally", None)

    def __getitem__(self, index):
        plain = np.asarray(self)
        self.tally["read"] += plain[index].size
        return plain[index]

    def __setitem__(self, index, value):
        plain = np.asarray(self)
        self.tally["written"] += plain[index].size
        plain[index] = value

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        for arg in inputs:
            if isinstance(arg, CountingWords):
                arg.tally["read"] += arg.size
        plain = [np.asarray(a) if isinstance(a, CountingWords) else a for a in inputs]
        if out is not None:
            for arg in out:
                if isinstance(arg, CountingWords):
                    arg.tally["written"] += arg.size
            kwargs["out"] = tuple(
                np.asarray(a) if isinstance(a, CountingWords) else a for a in out
            )
        result = getattr(ufunc, method)(*plain, **kwargs)
        if out is not None and isinstance(out[0], CountingWords):
            return out[0]
        return result


class CountingMSBFS(MultiSourceBFS):
    """Wraps the run's lane words in :class:`CountingWords` and records
    what each hook and each commit touched."""

    def wrap(self, lanes) -> None:
        for name in ("active", "visited", "newly"):
            words = getattr(lanes, name)
            if not isinstance(words, CountingWords):
                setattr(lanes, name, CountingWords(words, self.tally))

    def touched_by(self, what, call):
        before = dict(self.tally)
        out = call()
        self.log.append(
            (what, {k: self.tally[k] - before[k] for k in before}, out)
        )
        return out

    def begin_batch_iteration(self, ledger, lanes):
        if not hasattr(self, "tally"):
            self.tally = {"read": 0, "written": 0}
            self.log = []
        if not hasattr(lanes, "counted"):
            lanes.counted = True
            plain_commit, plain_sizes = lanes.commit, lanes.frontier_sizes
            lanes.commit = lambda updates: self.touched_by(
                "commit", lambda: plain_commit(updates)
            )
            lanes.frontier_sizes = lambda: self.touched_by(
                "frontier_size", plain_sizes
            )
        # ``advance`` installs fresh plain arrays every level.
        self.wrap(lanes)
        super().begin_batch_iteration(ledger, lanes)

    def batch_component_directions(self, name, lanes):
        return self.touched_by(
            "directions",
            lambda: super(CountingMSBFS, self).batch_component_directions(
                name, lanes
            ),
        )

    def record_batch_activation(self, record, newly):
        return self.touched_by(
            "record",
            lambda: super(CountingMSBFS, self).record_batch_activation(
                record, newly
            ),
        )


class TestSavingByCount:
    @pytest.fixture(scope="class")
    def counted(self):
        part, sequential, batched = build(
            512, 4096, 3, 32, 16, engine=CountingMSBFS
        )
        roots = roots_covering_classes(part, 16, np.random.default_rng(3))
        batch = batched.run_batch(roots)
        for lane, root in enumerate(roots):
            assert np.array_equal(
                batch.lane_parent(lane), sequential.run(int(root)).parent
            )
        return batched, batch

    def test_the_wrapper_counts(self):
        tally = {"read": 0, "written": 0}
        words = CountingWords(np.zeros(10, dtype=np.uint64), tally)
        words[[1, 2, 3]] |= np.uint64(4)
        assert tally == {"read": 3, "written": 3}
        assert type(words & np.uint64(4)) is np.ndarray
        assert tally["read"] == 13
        assert int(np.bitwise_or.reduce(words)) == 4
        assert tally["read"] == 23

    def test_measurement_hooks_read_no_lane_words(self, counted):
        batched, batch = counted
        seen = {what for what, _, _ in batched.log}
        assert seen == {"directions", "frontier_size", "record", "commit"}
        for what, touched, _ in batched.log:
            if what != "commit":
                assert touched == {"read": 0, "written": 0}, what
        # ...while the kernels did read them, through the same wrapper.
        assert batched.tally["read"] > batch.num_waves * batched.num_vertices

    def test_commit_writes_only_what_it_activates(self, counted):
        batched, batch = counted
        commits = [(t, out) for what, t, out in batched.log if what == "commit"]
        assert sum(out for _, out in commits) == sum(
            sum(rec.newly_activated.values()) for rec in batch.records
        )
        assert any(out for _, out in commits)
        for touched, activated in commits:
            # One word of ``visited`` and one of ``newly`` per activation.
            assert 0 < touched["written"] <= 2 * activated

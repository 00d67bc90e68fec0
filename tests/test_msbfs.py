"""Multi-source (batched) BFS: bit-identity and amortization (batch crash
recovery is pinned with the other modes in ``test_level_loop.py``).

The serving contract under test: every lane of a batch is bit-identical
to a sequential :class:`DistributedBFS` run of the same root under the
same config, while the batch as a whole charges strictly less simulated
traffic than the sequential runs combined.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BFSConfig, DistributedBFS, partition_graph
from repro.core import lanes as lanes_module
from repro.core import subgraphs as subgraphs_module
from repro.core.kernels.base import ComponentKernel
from repro.core.lanes import (
    LaneState,
    all_lanes_mask,
    iter_lanes,
    lane_bit,
)
from repro.graph500.driver import run_graph500, sample_roots
from repro.graph500.reference import bfs_levels_from_parents, serial_bfs
from repro.graph500.rmat import generate_edges
from repro.graph500.validate import validate_bfs_result
from repro.graphs.csr import build_csr, symmetrize_edges
from repro.machine.network import MachineSpec
from repro.runtime.mesh import ProcessMesh
from repro.serve.msbfs import MAX_BATCH_ROOTS, MultiSourceBFS

from helpers import lane_population, per_lane_claims, random_edge_list

GOLDEN = dict(scale=10, rows=2, cols=2, seed=7, e_thr=128, h_thr=16)


def build_pair(
    scale=10, rows=2, cols=2, e_thr=128, h_thr=16, seed=7, **cfg_kwargs
):
    src, dst = generate_edges(scale, seed=seed)
    n = 1 << scale
    machine = MachineSpec(num_nodes=rows * cols, nodes_per_supernode=cols)
    mesh = ProcessMesh(rows, cols, machine=machine)
    part = partition_graph(
        src, dst, n, mesh, e_threshold=e_thr, h_threshold=h_thr
    )
    config = BFSConfig(e_threshold=e_thr, h_threshold=h_thr, **cfg_kwargs)
    sequential = DistributedBFS(part, machine=machine, config=config)
    batched = MultiSourceBFS(part, machine=machine, config=config)
    graph = build_csr(*symmetrize_edges(src, dst), n)
    return sequential, batched, graph, src, dst


@pytest.fixture(scope="module")
def golden():
    """One full 64-root batch vs 64 sequential runs on the golden
    config, shared by every bit-identity assertion in this module."""
    sequential, batched, graph, src, dst = build_pair(
        GOLDEN["scale"], GOLDEN["rows"], GOLDEN["cols"],
        GOLDEN["e_thr"], GOLDEN["h_thr"], GOLDEN["seed"],
    )
    roots = sample_roots(
        batched.part.degrees, MAX_BATCH_ROOTS,
        rng=np.random.default_rng(GOLDEN["seed"]),
    )
    seq = [sequential.run(int(r)) for r in roots]
    batch = batched.run_batch(roots)
    return dict(
        batched=batched, sequential=sequential, graph=graph,
        src=src, dst=dst, roots=roots, seq=seq, batch=batch,
    )


class TestLanePrimitives:
    def test_lane_bit_and_mask(self):
        assert lane_bit(0) == np.uint64(1)
        assert lane_bit(63) == np.uint64(1) << np.uint64(63)
        assert all_lanes_mask(64) == np.uint64(0xFFFFFFFFFFFFFFFF)
        assert all_lanes_mask(1) == np.uint64(1)

    def test_iter_lanes(self):
        mask = lane_bit(0) | lane_bit(5) | lane_bit(63)
        assert list(iter_lanes(mask)) == [0, 5, 63]
        assert list(iter_lanes(np.uint64(0))) == []

    def test_lane_population_matches_per_lane_counts(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2**63, size=100, dtype=np.uint64)
        pop = lane_population(bits, 64)
        for lane in range(64):
            expect = int(np.count_nonzero(bits & lane_bit(lane)))
            assert pop[lane] == expect

    def test_lane_state_validates_roots(self):
        def state(n, roots):
            return LaneState(n, roots, np.zeros(n, dtype=np.int8))

        with pytest.raises(ValueError, match="1..64 roots"):
            state(16, np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match="1..64 roots"):
            state(100, np.arange(65))
        with pytest.raises(ValueError, match="1..64 roots"):
            state(16, 3)  # a bare root, not a batch
        with pytest.raises(ValueError, match="distinct"):
            state(16, np.array([1, 1]))
        with pytest.raises(ValueError, match="out of range"):
            state(16, np.array([16]))
        with pytest.raises(ValueError, match="out of range"):
            state(16, np.array([3, -1]))
        with pytest.raises(ValueError, match="one code per vertex"):
            LaneState(16, np.array([3]), np.zeros(15, dtype=np.int8))
        assert state(16, np.arange(16)).num_lanes == 16


class TestBitIdentity:
    def test_all_64_lanes_match_sequential_parents(self, golden):
        batch, seq = golden["batch"], golden["seq"]
        for lane in range(MAX_BATCH_ROOTS):
            assert np.array_equal(
                batch.lane_parent(lane), seq[lane].parent
            ), f"lane {lane} (root {golden['roots'][lane]}) diverged"

    def test_lane_records_match_sequential_iterations(self, golden):
        batch, seq = golden["batch"], golden["seq"]
        for lane in range(MAX_BATCH_ROOTS):
            lane_recs = batch.lane_records(lane)
            seq_recs = seq[lane].iterations
            assert len(lane_recs) == len(seq_recs)
            for got, want in zip(lane_recs, seq_recs):
                assert got.frontier_size == want.frontier_size
                assert got.directions == want.directions

    def test_wave_count_is_max_lane_depth(self, golden):
        batch = golden["batch"]
        depths = [batch.lane_depth(l) for l in range(batch.num_lanes)]
        assert batch.num_waves == max(depths)

    def test_every_lane_passes_graph500_validation(self, golden):
        batch = golden["batch"]
        for lane in (0, 17, 42, 63):
            root = int(golden["roots"][lane])
            validate_bfs_result(
                golden["graph"], root, batch.lane_parent(lane),
                edge_src=golden["src"], edge_dst=golden["dst"],
            )

    def test_lane_levels_match_serial_reference(self, golden):
        graph = golden["graph"]
        batch = golden["batch"]
        for lane in (0, 31, 63):
            root = int(golden["roots"][lane])
            ref = bfs_levels_from_parents(graph, root, serial_bfs(graph, root))
            got = bfs_levels_from_parents(
                graph, root, batch.lane_parent(lane)
            )
            assert np.array_equal(ref, got)

    def test_batch_of_one_matches_sequential(self, golden):
        root = golden["roots"][:1]
        batch = golden["batched"].run_batch(root)
        assert np.array_equal(
            batch.lane_parent(0), golden["seq"][0].parent
        )

    def test_isolated_root_lane(self):
        # A lane whose root has no edges terminates at wave 1 without
        # perturbing the other lanes.
        sequential, batched, graph, *_ = build_pair(scale=9)
        isolated = np.flatnonzero(graph.degrees == 0)
        connected = np.flatnonzero(graph.degrees > 0)
        assert isolated.size, "SCALE-9 R-MAT should have isolated vertices"
        roots = np.array(
            [int(connected[0]), int(isolated[0]), int(connected[1])]
        )
        batch = batched.run_batch(roots)
        lone = batch.lane_parent(1)
        assert lone[isolated[0]] == isolated[0]
        assert np.count_nonzero(lone >= 0) == 1
        # One wave (the root itself), like a sequential isolated run.
        assert batch.lane_depth(1) == 1
        seq_isolated = sequential.run(int(isolated[0]))
        assert np.array_equal(lone, seq_isolated.parent)
        assert batch.lane_depth(1) == seq_isolated.num_iterations
        for lane in (0, 2):
            assert np.array_equal(
                batch.lane_parent(lane),
                sequential.run(int(roots[lane])).parent,
            )

    @pytest.mark.parametrize(
        "cfg",
        [
            dict(sub_iteration_direction=False),
            dict(delayed_reduction=True),
            dict(local_pull_threshold=0.01),
            dict(cross_pull_bias=8.0),
        ],
        ids=["whole-iteration", "delayed-reduction", "pull-happy", "biased"],
    )
    def test_config_sweep_bit_identity(self, cfg):
        sequential, batched, *_ = build_pair(scale=9, **cfg)
        roots = sample_roots(
            batched.part.degrees, 16, rng=np.random.default_rng(3)
        )
        batch = batched.run_batch(roots)
        for lane, root in enumerate(roots):
            assert np.array_equal(
                batch.lane_parent(lane), sequential.run(int(root)).parent
            ), f"lane {lane} diverged under {cfg}"

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**20), n_lanes=st.integers(2, 12))
    def test_property_random_graphs_match_reference(self, seed, n_lanes):
        # Seeded sweep over random graphs: every lane's depths equal the
        # serial reference's and its parents equal the sequential engine's.
        src, dst = random_edge_list(256, 1024, seed=seed)
        machine = MachineSpec(num_nodes=4, nodes_per_supernode=2)
        mesh = ProcessMesh(2, 2, machine=machine)
        part = partition_graph(
            src, dst, 256, mesh, e_threshold=64, h_threshold=8
        )
        config = BFSConfig(e_threshold=64, h_threshold=8)
        sequential = DistributedBFS(part, machine=machine, config=config)
        batched = MultiSourceBFS(part, machine=machine, config=config)
        graph = build_csr(*symmetrize_edges(src, dst), 256)
        rng = np.random.default_rng(seed)
        roots = rng.choice(256, size=n_lanes, replace=False)
        batch = batched.run_batch(roots)
        for lane, root in enumerate(roots):
            root = int(root)
            assert np.array_equal(
                batch.lane_parent(lane), sequential.run(root).parent
            )
            ref_levels = bfs_levels_from_parents(
                graph, root, serial_bfs(graph, root)
            )
            got_levels = bfs_levels_from_parents(
                graph, root, batch.lane_parent(lane)
            )
            assert np.array_equal(ref_levels, got_levels)

    @pytest.mark.parametrize("width", [1, 2, 7, 8, 63, 64])
    def test_width_matches_sequential(self, golden, monkeypatch, width):
        # Every lane of a batch of any width equals its sequential run,
        # and the ledger totals equal those of the same batch with its
        # winners picked one lane at a time.
        roots = golden["roots"][:width]
        totals = set()
        for claim in (lanes_module.claim_lanes, per_lane_claims):
            monkeypatch.setattr(lanes_module, "claim_lanes", claim)
            monkeypatch.setattr(subgraphs_module, "claim_lanes", claim)
            batch = golden["batched"].run_batch(roots)
            for lane in range(width):
                assert np.array_equal(
                    batch.lane_parent(lane), golden["seq"][lane].parent
                ), f"lane {lane} of {width} diverged"
            totals.add((batch.ledger.total_bytes, batch.total_seconds))
        assert len(totals) == 1


class TestAmortization:
    def test_batch_traffic_strictly_less_than_sequential_sum(self, golden):
        batch, seq = golden["batch"], golden["seq"]
        seq_bytes = sum(r.ledger.total_bytes for r in seq)
        seq_seconds = sum(r.total_seconds for r in seq)
        assert batch.ledger.total_bytes < seq_bytes
        assert batch.total_seconds < seq_seconds

    def test_amortized_cost_at_least_4x_below_single_root(self, golden):
        batch, seq = golden["batch"], golden["seq"]
        seq_per_query = sum(r.total_seconds for r in seq) / len(seq)
        assert seq_per_query / batch.amortized_seconds >= 4.0

    def test_per_root_ledger_attached_exactly_once(self, golden):
        batch = golden["batch"]
        views = [
            batch.per_root_result(lane, share_ledger=(lane == 0))
            for lane in range(batch.num_lanes)
        ]
        total = sum(v.ledger.total_bytes for v in views)
        assert total == batch.ledger.total_bytes
        assert views[1].ledger.total_bytes == 0
        # Amortized per-root times sum back to the batch total.
        assert sum(v.total_seconds for v in views) == pytest.approx(
            batch.total_seconds
        )


class TestBatchValidationErrors:
    def test_duplicate_roots_rejected(self, golden):
        roots = golden["roots"]
        with pytest.raises(ValueError):
            golden["batched"].run_batch(np.array([roots[0], roots[0]]))

    def test_oversized_batch_rejected(self, golden):
        with pytest.raises(ValueError):
            golden["batched"].run_batch(np.arange(MAX_BATCH_ROOTS + 1))

    def test_kernel_without_lane_support_detected(self):
        class Plain(ComponentKernel):
            name = "x"

            @property
            def num_arcs(self):
                return 1

            def execute(self, direction, state, ledger, record):
                return []

        class Laned(Plain):
            def execute_lanes(self, direction, group_lanes, lanes, ledger,
                              record):
                return []

        assert not Plain().supports_lanes
        assert Laned().supports_lanes
        with pytest.raises(NotImplementedError):
            Plain().execute_lanes("push", np.uint64(1), None, None, None)


class TestDriverBatchRoots:
    CFG = dict(seed=7, num_roots=6, e_threshold=128, h_threshold=16)

    def test_roots_identical_across_modes(self):
        plain = run_graph500(8, 2, 2, **self.CFG)
        batched = run_graph500(8, 2, 2, batch_roots=True, **self.CFG)
        faulty = run_graph500(
            8, 2, 2, faults="crash:rank=1,iter=2", **self.CFG
        )
        faulty_batched = run_graph500(
            8, 2, 2, faults="crash:rank=1,iter=2", batch_roots=True,
            **self.CFG,
        )
        for other in (batched, faulty, faulty_batched):
            assert np.array_equal(plain.roots, other.roots)
        assert plain.validated and batched.validated
        assert faulty.validated and faulty_batched.validated

    def test_batched_parents_bit_identical_to_sequential(self):
        plain = run_graph500(8, 2, 2, **self.CFG)
        batched = run_graph500(8, 2, 2, batch_roots=True, **self.CFG)
        for a, b in zip(plain.results, batched.results):
            assert np.array_equal(a.parent, b.parent)

    def test_batched_crash_accounting(self):
        rep = run_graph500(
            8, 2, 2, faults="crash:rank=1,iter=2", batch_roots=True,
            **self.CFG,
        )
        assert rep.resilience["crashes"] == 1
        assert rep.resilience["restarts"] == 1
        assert rep.resilience["wasted_seconds"] > 0

    def test_batched_amortized_times_sum_to_batch_total(self):
        batched = run_graph500(8, 2, 2, batch_roots=True, **self.CFG)
        # One batch: every root reports the same amortized share.
        assert np.allclose(batched.bfs_times, batched.bfs_times[0])

    def test_checkpointing_incompatible(self):
        with pytest.raises(ValueError):
            run_graph500(
                8, 2, 2, batch_roots=True, checkpoint_every=1, **self.CFG
            )

    def test_degrade_recovery_incompatible(self):
        with pytest.raises(ValueError):
            run_graph500(
                8, 2, 2, batch_roots=True, recovery_mode="degrade",
                **self.CFG,
            )

    def test_sample_roots_consumes_exactly_one_draw(self):
        # The post-sampling generator state must not depend on the
        # candidate count or the number of roots requested, or fault
        # draws sequenced after sampling would shift between graphs.
        r1, r2 = np.random.default_rng(5), np.random.default_rng(5)
        sample_roots(np.ones(100, dtype=np.int64), 4, rng=r1)
        sample_roots(np.ones(100_000, dtype=np.int64), 64, rng=r2)
        assert r1.integers(0, 2**62) == r2.integers(0, 2**62)

    def test_sample_roots_skips_zero_degree(self):
        degrees = np.array([0, 3, 0, 1, 0, 2, 0, 0], dtype=np.int64)
        roots = sample_roots(degrees, 3, rng=np.random.default_rng(0))
        assert np.all(degrees[roots] > 0)
        assert np.unique(roots).size == roots.size

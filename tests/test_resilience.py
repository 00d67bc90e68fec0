"""Tests for the resilience subsystem: fault specs, checkpoints, recovery."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.experiments import build_setup
from repro.core import BFSConfig, DistributedBFS, partition_graph
from repro.graphs.csr import build_csr, symmetrize_edges
from repro.machine.costmodel import CollectiveKind
from repro.obs.metrics import MetricsRegistry
from repro.resilience import (
    NULL_FAULTS,
    Checkpoint,
    FaultInjector,
    FaultSpecError,
    LevelCheckpointer,
    RecoveryError,
    RecoveryPolicy,
    parse_fault_spec,
    run_with_recovery,
    validate_partial,
)


@pytest.fixture(scope="module")
def setup():
    return build_setup(10, 2, 2, seed=7)


@pytest.fixture(scope="module")
def part(setup):
    return partition_graph(
        setup.src, setup.dst, setup.num_vertices, setup.mesh,
        e_threshold=128, h_threshold=16,
    )


def make_engine(setup, part):
    return DistributedBFS(
        part, machine=setup.machine,
        config=BFSConfig(e_threshold=128, h_threshold=16),
    )


@pytest.fixture(scope="module")
def golden(setup, part):
    """The fault-free reference run every recovery test compares against."""
    return make_engine(setup, part).run(setup.root)


class TestFaultSpec:
    def test_parses_multi_clause(self):
        plan = parse_fault_spec(
            "crash:rank=3,iter=2; drop:phase=L2L,count=2,retries=2"
        )
        assert len(plan) == 2
        crash, drop = plan.faults
        assert (crash.kind, crash.rank, crash.iteration) == ("crash", 3, 2)
        assert (drop.kind, drop.phase, drop.count, drop.retries) == (
            "drop", "L2L", 2, 2,
        )

    def test_iteration_window(self):
        (f,) = parse_fault_spec("straggler:rank=1,factor=2,iter=3-5").faults
        assert f.window() == (3, 5)
        (g,) = parse_fault_spec("straggler:rank=1,factor=2,iter=3").faults
        assert g.window() == (3, 3)

    def test_wildcard_phase(self):
        (f,) = parse_fault_spec("drop:phase=*").faults
        assert f.phase is None

    def test_probability_clause(self):
        (f,) = parse_fault_spec("corrupt:phase=L2L,p=0.25").faults
        assert f.probability == 0.25

    @pytest.mark.parametrize("bad", [
        "",
        ";;",
        "explode:rank=1",
        "crash:rank=1",          # crash needs iter=
        "crash:iter=1",          # crash needs rank=
        "crash:rank=1,iter=x",
        "drop:bogus=1",
        "drop:count",            # missing =value
        "straggler:rank=0,factor=0.5",
        "drop:p=1.5",
        "drop:count=0",
        "drop:retries=0",
        "crash:rank=-1,iter=0",
    ])
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(FaultSpecError):
            parse_fault_spec(bad)

    def test_validate_rejects_out_of_range_rank(self):
        plan = parse_fault_spec("crash:rank=9,iter=0")
        with pytest.raises(FaultSpecError, match="only 4 ranks"):
            plan.validate(4)
        plan.validate(16)  # in range: no raise


class TestFaultInjector:
    def test_crash_fires_once(self):
        from repro.resilience import RankCrashError

        inj = FaultInjector("crash:rank=1,iter=2")
        inj.begin_iteration(0)
        inj.begin_iteration(1)
        with pytest.raises(RankCrashError) as exc:
            inj.begin_iteration(2)
        assert exc.value.rank == 1 and exc.value.iteration == 2
        assert inj.dead_ranks == {1}
        # One-shot: the recovered attempt re-enters iteration 2 safely.
        inj.begin_iteration(2)
        inj.begin_iteration(3)

    def test_crash_catches_up_past_trigger(self):
        """A resume that skips the trigger iteration still crashes."""
        from repro.resilience import RankCrashError

        inj = FaultInjector("crash:rank=0,iter=2")
        with pytest.raises(RankCrashError):
            inj.begin_iteration(5)

    def test_drop_budget_consumed(self):
        inj = FaultInjector("drop:phase=L2L,count=1,retries=3")
        out = inj.collective("L2L", CollectiveKind.ALLTOALLV, 4)
        assert out is not None and out.retries == 3
        assert inj.collective("L2L", CollectiveKind.ALLTOALLV, 4) is None
        assert inj.retries_total == 3

    def test_phase_filter(self):
        inj = FaultInjector("drop:phase=L2L,count=1")
        assert inj.collective("EH2EH", CollectiveKind.ALLTOALLV, 4) is None
        assert inj.collective("L2L", CollectiveKind.ALLTOALLV, 4) is not None

    def test_straggler_scoped_to_group(self):
        inj = FaultInjector("straggler:rank=3,factor=4")
        assert inj.collective(
            "t", CollectiveKind.ALLGATHER, 2, group=np.array([0, 1])
        ) is None
        out = inj.collective(
            "t", CollectiveKind.ALLGATHER, 2, group=np.array([2, 3])
        )
        assert out is not None and out.straggle_factor == 4.0

    def test_straggler_skips_idle_rank_kernels(self):
        inj = FaultInjector("straggler:rank=1,factor=4")
        assert inj.compute_factor("t", per_node_items=[5, 0, 5, 5]) == 1.0
        assert inj.compute_factor("t", per_node_items=[5, 9, 5, 5]) == 4.0

    def test_probabilistic_fault_is_seeded(self):
        counts = []
        for _ in range(2):
            inj = FaultInjector(
                "drop:phase=L2L,p=0.5", rng=np.random.default_rng(42)
            )
            fired = sum(
                inj.collective("L2L", CollectiveKind.ALLTOALLV, 4) is not None
                for _ in range(32)
            )
            counts.append(fired)
        assert counts[0] == counts[1] > 0

    def test_corruption_round_trip_delivers_pristine(self):
        inj = FaultInjector("corrupt:phase=L2L,count=1")
        payload = np.arange(64, dtype=np.int64)
        out = inj.collective("L2L", CollectiveKind.ALLTOALLV, 4)
        assert out is not None and out.corrupted
        delivered = inj.verify_delivery("L2L", payload)
        assert np.array_equal(delivered, np.arange(64))
        assert inj.corruptions_detected == 1
        # No pending corruption: payload passes through untouched.
        assert inj.verify_delivery("L2L", payload) is payload

    def test_metrics_counters(self):
        registry = MetricsRegistry()
        inj = FaultInjector(
            "drop:phase=L2L,count=1,retries=2", metrics=registry
        )
        inj.collective("L2L", CollectiveKind.ALLTOALLV, 4)
        assert registry.counter("faults_injected", kind="drop").value == 1
        assert registry.counter("retries", phase="L2L").value == 2

    def test_null_injector_is_inert(self):
        assert NULL_FAULTS.enabled is False
        assert NULL_FAULTS.collective("t", CollectiveKind.BARRIER, 4) is None
        assert NULL_FAULTS.compute_factor("t") == 1.0
        payload = np.arange(3)
        assert NULL_FAULTS.verify_delivery("t", payload) is payload


class TestCheckpoint:
    """Cadence, eviction and pricing; the snapshot type itself (verify,
    tamper, npz round-trip, charged bytes) is pinned for every traversal
    mode in ``test_level_loop.py``."""

    def test_capture_deep_copies(self):
        parent = np.full(8, -1, dtype=np.int64)
        snap = Checkpoint.capture(
            key=0, iteration=0, active=np.zeros(8, bool),
            state={"parent": parent, "visited": np.zeros(1, np.uint8)},
        )
        parent[3] = 7
        assert snap.state["parent"][3] == -1
        snap.verify()

    def test_cadence(self):
        ck = LevelCheckpointer(every=2)
        assert [ck.due(i) for i in range(6)] == [
            False, True, False, True, False, True,
        ]
        assert not any(LevelCheckpointer(every=0).due(i) for i in range(6))

    def test_keep_evicts_oldest(self, setup, part):
        engine = make_engine(setup, part)
        ck = LevelCheckpointer(every=1, mesh=setup.mesh, keep=2)
        engine.run(setup.root, checkpointer=ck)
        assert len(ck.snapshots) == 2
        its = [s.iteration for s in ck.snapshots]
        assert its == sorted(its) and ck.latest().iteration == max(its)

    def test_save_charges_checkpoint_phase(self, setup, part):
        engine = make_engine(setup, part)
        ck = LevelCheckpointer(every=1, mesh=setup.mesh)
        res = engine.run(setup.root, checkpointer=ck)
        events = [e for e in res.ledger.comm_events if e.phase == "checkpoint"]
        assert len(events) == res.num_iterations
        assert all(e.kind is CollectiveKind.ALLGATHER for e in events)
        assert all(e.total_bytes == ck.latest().nbytes for e in events)


class TestResume:
    def test_checkpointing_never_changes_the_traversal(self, setup, part, golden):
        engine = make_engine(setup, part)
        res = engine.run(
            setup.root, checkpointer=LevelCheckpointer(every=1, mesh=setup.mesh)
        )
        assert np.array_equal(res.parent, golden.parent)
        # ...but its cost is real and charged.
        assert res.total_seconds > golden.total_seconds

    def test_resume_completes_the_traversal(self, setup, part, golden):
        engine = make_engine(setup, part)
        ck = LevelCheckpointer(every=2, mesh=setup.mesh, keep=8)
        engine.run(setup.root, checkpointer=ck)
        snap = ck.snapshots[0].verify()
        res = engine.run(setup.root, resume=snap, checkpointer=ck)
        assert np.array_equal(res.parent, golden.parent)
        assert res.iterations[snap.iteration].index == snap.iteration
        assert res.metrics is golden.metrics  # both NULL_METRICS

    def test_resume_charges_recovery_phase(self, setup, part):
        engine = make_engine(setup, part)
        ck = LevelCheckpointer(every=2, mesh=setup.mesh)
        engine.run(setup.root, checkpointer=ck)
        res = engine.run(setup.root, resume=ck.latest(), checkpointer=ck)
        phases = {e.phase for e in res.ledger.comm_events}
        assert "recovery" in phases

    def test_resume_rejects_wrong_root(self, setup, part):
        engine = make_engine(setup, part)
        ck = LevelCheckpointer(every=1, mesh=setup.mesh)
        engine.run(setup.root, checkpointer=ck)
        other = (setup.root + 1) % setup.num_vertices
        with pytest.raises(ValueError, match="resume snapshot"):
            engine.run(other, resume=ck.latest())


class TestRecovery:
    def test_crash_recovers_identically(self, setup, part, golden):
        """The acceptance scenario: crash at iteration 2, cadence 1."""
        from repro.graph500.validate import validate_bfs_result

        engine = make_engine(setup, part)
        out = run_with_recovery(
            engine,
            setup.root,
            faults=FaultInjector("crash:rank=3,iter=2"),
            checkpointer=LevelCheckpointer(every=1, mesh=setup.mesh),
        )
        assert out.crashes == 1 and out.restarts == 1
        assert out.resumed_from == [1]  # last level committed before death
        assert not out.degraded
        assert np.array_equal(out.result.parent, golden.parent)
        graph = build_csr(
            *symmetrize_edges(setup.src, setup.dst), setup.num_vertices
        )
        validate_bfs_result(graph, setup.root, out.result.parent)
        # The aborted attempt's cost is folded into the final accounting.
        assert out.wasted_seconds > 0
        assert out.result.total_seconds > golden.total_seconds + out.wasted_seconds

    def test_degrade_excises_dead_rank(self, setup, part, golden):
        engine = make_engine(setup, part)
        out = run_with_recovery(
            engine,
            setup.root,
            faults=FaultInjector("crash:rank=2,iter=2"),
            checkpointer=LevelCheckpointer(every=1, mesh=setup.mesh),
            policy=RecoveryPolicy(mode="degrade"),
        )
        assert out.degraded and out.excised.size > 0
        # Excised vertices are L-class and owned by the dead rank.
        lo, hi = setup.mesh.vertex_range(2, setup.num_vertices)
        assert ((out.excised >= lo) & (out.excised < hi)).all()
        assert part.class_masks()["L"][out.excised].all()
        graph = build_csr(
            *symmetrize_edges(setup.src, setup.dst), setup.num_vertices
        )
        cov = validate_partial(
            graph, setup.root, out.result.parent, out.excised
        )
        assert cov.lost == 0
        assert 0.0 < cov.coverage <= 1.0
        assert out.result.num_visited <= golden.num_visited

    def test_degrade_cannot_excise_root(self):
        """All-L path graph: the dead rank owns the root -> unrecoverable."""
        from repro.machine.network import MachineSpec
        from repro.runtime.mesh import ProcessMesh

        n = 64
        src = np.arange(n - 1, dtype=np.int64)
        dst = src + 1
        machine = MachineSpec(num_nodes=4, nodes_per_supernode=2)
        mesh = ProcessMesh(2, 2, machine=machine)
        lpart = partition_graph(
            src, dst, n, mesh, e_threshold=1 << 20, h_threshold=1 << 20
        )
        engine = DistributedBFS(
            lpart, machine=machine,
            config=BFSConfig(e_threshold=1 << 20, h_threshold=1 << 20),
        )
        with pytest.raises(RecoveryError, match="search key"):
            run_with_recovery(
                engine, 0,
                faults=FaultInjector("crash:rank=0,iter=1"),
                policy=RecoveryPolicy(mode="degrade"),
            )

    def test_validate_partial_rejects_silent_loss(self):
        """An unreached vertex with a live reached neighbour must fail."""
        src = np.array([0, 1, 2], dtype=np.int64)
        dst = np.array([1, 2, 3], dtype=np.int64)
        graph = build_csr(*symmetrize_edges(src, dst), 4)
        parent = np.array([0, 0, -1, -1], dtype=np.int64)  # 2 silently lost
        with pytest.raises(AssertionError, match="never visited"):
            validate_partial(graph, 0, parent, np.array([], dtype=np.int64))
        # Explained by excision: passes and reports coverage.
        cov = validate_partial(graph, 0, parent, np.array([2], dtype=np.int64))
        assert cov.excised == 1 and cov.lost == 0


class TestZeroOverhead:
    def test_unfaulted_smoke_matches_committed_baseline(self):
        """Resilience hooks off == bit-identical to the pinned baseline."""
        from repro.obs.report import bfs_smoke_report

        baseline_path = (
            Path(__file__).parent.parent
            / "benchmarks" / "results" / "BENCH_bfs_smoke.json"
        )
        baseline = json.loads(baseline_path.read_text())
        fresh = bfs_smoke_report(metrics=MetricsRegistry())
        assert fresh.metrics == baseline["metrics"]
        assert fresh.fingerprint == baseline["fingerprint"]


class TestDriverDeterminism:
    """Satellite: one seeded rng makes faulty runs bit-reproducible."""

    FAULTS = "crash:rank=1,iter=2;drop:phase=L2L,count=1,retries=1"

    def _run(self, faults=None):
        from repro.graph500.driver import run_graph500

        return run_graph500(
            10, 2, 2, seed=7, num_roots=2, e_threshold=128, h_threshold=16,
            faults=faults, checkpoint_every=1 if faults else 0,
        )

    def test_identical_seeds_identical_faulty_runs(self):
        a = self._run(self.FAULTS)
        b = self._run(self.FAULTS)
        assert np.array_equal(a.roots, b.roots)
        assert np.array_equal(a.bfs_times, b.bfs_times)
        assert a.resilience == b.resilience
        for ra, rb in zip(a.results, b.results):
            assert np.array_equal(ra.parent, rb.parent)

    def test_faulty_run_samples_golden_roots(self):
        """Injector construction must not perturb root sampling."""
        golden = self._run()
        faulty = self._run(self.FAULTS)
        assert golden.resilience is None
        assert faulty.resilience is not None
        assert faulty.resilience["crashes"] == 1
        assert np.array_equal(golden.roots, faulty.roots)
        assert faulty.validated
        for rg, rf in zip(golden.results, faulty.results):
            assert np.array_equal(rg.parent, rf.parent)

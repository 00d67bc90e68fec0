"""One level loop, three modes: BFS root, vertex program, 64-lane batch.

The scheduler drives every mode through the same loop, snapshots them
into the same :class:`Checkpoint` type and recovers them through the
same restart loop, so the resilience contract is stated once and
parametrised over the modes:

- a crash at *any* iteration index recovers to a result bit-identical to
  the fault-free run, at no less than the fault-free cost;
- a snapshot verifies, round-trips through ``.npz``, and rejects
  tampering;
- the bytes a checkpoint charges are exactly what they were before the
  snapshot types were merged (pinned from the parent commit).
"""

import copy

import numpy as np
import pytest

from repro.core import DistributedBFS, generate_weights, partition_graph
from repro.core.programs import build_program
from repro.graph500.rmat import generate_edges
from repro.machine.network import MachineSpec
from repro.obs.metrics import MetricsRegistry
from repro.resilience import (
    CHECKPOINT_SCHEMA,
    Checkpoint,
    CheckpointError,
    FaultInjector,
    LevelCheckpointer,
    RecoveryError,
    RecoveryPolicy,
    run_program_with_recovery,
    run_with_recovery,
)
from repro.resilience.faults import RankCrashError
from repro.runtime.mesh import ProcessMesh
from repro.serve.msbfs import MultiSourceBFS, run_batch_with_recovery

SCALE = 9
N = 1 << SCALE


class System:
    """A scale-9 R-MAT graph on a 2x2 mesh plus one runner per mode."""

    def __init__(self) -> None:
        self.src, self.dst = generate_edges(SCALE, seed=7)
        self.machine = MachineSpec(num_nodes=4, nodes_per_supernode=2)
        self.mesh = ProcessMesh(2, 2, machine=self.machine)
        self.part = partition_graph(
            self.src, self.dst, N, self.mesh, e_threshold=128, h_threshold=16
        )
        self.hub = int(np.argmax(self.part.degrees))
        self.roots = np.flatnonzero(self.part.degrees > 0)[:64]
        self.sequential = DistributedBFS(self.part, machine=self.machine)
        self.batched = MultiSourceBFS(self.part, machine=self.machine)

    def program(self, name):
        params = {}
        if name != "pagerank":
            params = dict(
                root=self.hub, edge_src=self.src, edge_dst=self.dst,
                weights=generate_weights(self.src.size, seed=8),
            )
        return build_program(name, self.part, **params)

    def metered(self, registry):
        """This system with both runners reporting to ``registry``."""
        twin = copy.copy(self)
        twin.sequential = twin.batched = DistributedBFS(
            self.part, machine=self.machine, metrics=registry
        )
        return twin

    def run(self, mode, **resilience):
        """One fault-free (or checkpointed) run of ``mode``."""
        if mode == "bfs":
            return self.sequential.run(self.hub, **resilience)
        if mode == "batch":
            return self.batched.run_batch(self.roots, **resilience)
        return self.sequential.run_program(self.program(mode), **resilience)

    def recover(self, mode, faults, **kwargs):
        """``mode`` under its ``run_*_with_recovery`` entry point."""
        faults = FaultInjector(faults, rng=np.random.default_rng(0))
        if mode == "bfs":
            return run_with_recovery(
                self.sequential, self.hub, faults=faults, **kwargs
            )
        if mode == "batch":
            kwargs.pop("checkpointer", None)  # no snapshots inside a wave
            return run_batch_with_recovery(
                self.batched, self.roots, faults=faults, **kwargs
            )
        return run_program_with_recovery(
            self.sequential, self.program(mode), faults=faults, **kwargs
        )


def outputs(mode, result) -> dict:
    """Every array a result of ``mode`` promises, by name."""
    if mode in ("bfs", "batch"):
        return {"parent": result.parent}
    return result.state


@pytest.fixture(scope="module")
def system():
    return System()


@pytest.fixture(scope="module")
def clean(system):
    return {
        mode: system.run(mode) for mode in ("bfs", "sssp", "pagerank", "batch")
    }


MODES = ["bfs", "sssp", "pagerank", "batch"]
SNAPSHOT_MODES = ["bfs", "sssp", "pagerank", "sssp-delta"]


# ----------------------------------------------------------------------
# crash recovery
# ----------------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
def test_crash_at_every_iteration_recovers_bit_identically(
    system, clean, mode
):
    reference = clean[mode]
    num_levels = (
        reference.num_waves if mode == "batch" else reference.num_iterations
    )
    assert num_levels >= 3
    for crash_at in range(num_levels):
        out = system.recover(
            mode,
            f"crash:rank=1,iter={crash_at}",
            checkpointer=LevelCheckpointer(every=2, mesh=system.mesh),
        )
        assert out.crashes == 1, crash_at
        want = outputs(mode, reference)
        got = outputs(mode, out.result)
        assert got.keys() == want.keys()
        for name, arr in want.items():
            assert np.array_equal(got[name], arr), (mode, crash_at, name)
        # The wasted attempt is merged into the final ledger: never
        # cheaper than the clean run.
        assert out.result.total_seconds >= reference.total_seconds
        assert out.result.total_seconds == out.result.ledger.total_seconds
        assert out.wasted_seconds >= 0
        if mode != "batch" and crash_at >= 2:
            # Cadence 2: levels 0..1 were snapshotted before the crash.
            assert out.resumed_from[0] >= 1
            assert out.result.total_seconds > reference.total_seconds


@pytest.mark.parametrize("mode", MODES)
def test_restart_budget_exhaustion_raises(system, mode):
    with pytest.raises(RecoveryError, match="budget"):
        system.recover(
            mode,
            "crash:rank=0,iter=0; crash:rank=1,iter=0",
            policy=RecoveryPolicy(max_restarts=1),
        )


@pytest.mark.parametrize("mode", ["sssp", "batch"])
def test_degrade_is_single_root_bfs_only(system, mode):
    with pytest.raises(RecoveryError, match="restart"):
        system.recover(
            mode, "crash:rank=0,iter=1", policy=RecoveryPolicy(mode="degrade")
        )


def test_recovery_metrics_are_shared_across_modes(system):
    for mode in MODES:
        registry = MetricsRegistry()
        system.recover(mode, "crash:rank=2,iter=2", metrics=registry)
        assert registry.counter("rank_crashes").value == 1, mode
        assert registry.counter("recoveries", mode="restart").value == 1
        assert registry.counter("recovery_time").value > 0


def event_counters(registry) -> tuple:
    return tuple(
        registry.counter_total(name)
        for name in ("comm_events", "compute_events", "comm_bytes", "compute_items")
    )


def ledger_counters(ledger) -> tuple:
    return (
        len(ledger.comm_events),
        len(ledger.compute_events),
        ledger.total_bytes,
        sum(c.total_items for c in ledger.compute_events),
    )


@pytest.mark.parametrize("mode", MODES)
def test_every_attempt_publishes_its_own_charges_once(system, mode):
    """A run publishes its ledger when it ends, crashed or not; the
    recovered result's merged attempts were each published by their own
    run, so nothing is counted twice, not even by publishing the
    recovered result's ledger again."""
    registry = MetricsRegistry()
    faults = FaultInjector("crash:rank=2,iter=2", rng=np.random.default_rng(0))
    with pytest.raises(RankCrashError) as crash:
        system.metered(registry).run(mode, faults=faults)
    assert event_counters(registry) == ledger_counters(crash.value.ledger)

    registry = MetricsRegistry()
    out = system.metered(registry).recover(
        mode, "crash:rank=2,iter=2",
        checkpointer=LevelCheckpointer(every=2, mesh=system.mesh),
    )
    assert out.crashes == 1
    assert event_counters(registry) == ledger_counters(out.result.ledger)
    out.result.ledger.publish()
    assert event_counters(registry) == ledger_counters(out.result.ledger)


# ----------------------------------------------------------------------
# the one snapshot type
# ----------------------------------------------------------------------


def snapshots(system, mode, **kwargs):
    ck = LevelCheckpointer(every=2, mesh=system.mesh, keep=1000, **kwargs)
    result = system.run(mode, checkpointer=ck)
    return ck, result


@pytest.mark.parametrize("mode", SNAPSHOT_MODES)
def test_snapshot_verifies_round_trips_and_rejects_tampering(
    system, mode, tmp_path
):
    ck, result = snapshots(system, mode)
    snap = ck.latest()
    assert type(snap) is Checkpoint
    assert snap.key == (system.hub if mode == "bfs" else mode)
    assert snap.verify() is snap
    assert len(snap.records) == snap.iteration + 1

    loaded = Checkpoint.load(snap.save_npz(tmp_path / "snap.npz"))
    assert loaded.fingerprint == snap.fingerprint
    assert (loaded.key, loaded.iteration) == (snap.key, snap.iteration)
    assert loaded.records == snap.records
    assert np.array_equal(loaded.active, snap.active)
    assert loaded.state.keys() == snap.state.keys()
    for name, arr in snap.state.items():
        assert loaded.state[name].dtype == arr.dtype
        assert np.array_equal(loaded.state[name], arr)

    # A snapshot is a deep copy: the finished run did not write into it
    # (verify above passed after the run ended).  Tampering with any
    # array — behind the frozen dataclass's back — must be caught.
    name = sorted(snap.state)[0]
    snap.state[name].flat[0] += 1
    with pytest.raises(CheckpointError, match="fingerprint mismatch"):
        snap.verify()
    loaded.active[0] = not loaded.active[0]
    with pytest.raises(CheckpointError, match="fingerprint mismatch"):
        loaded.verify()


def test_bfs_snapshot_is_the_parent_visited_pair(system):
    ck, result = snapshots(system, "bfs")
    snap = ck.latest()
    assert sorted(snap.state) == ["parent", "visited"]
    assert snap.state["parent"].dtype == np.int64
    visited = np.unpackbits(snap.state["visited"], count=N).astype(bool)
    assert np.array_equal(visited, snap.state["parent"] >= 0)


def test_load_rejects_garbage_and_old_schema(tmp_path):
    bogus = tmp_path / "bogus.npz"
    bogus.write_bytes(b"not a checkpoint")
    with pytest.raises(CheckpointError):
        Checkpoint.load(bogus)
    assert CHECKPOINT_SCHEMA.endswith("/2")  # /1 had two layouts


def test_persisted_snapshots_follow_the_keep_window(system, tmp_path):
    ck = LevelCheckpointer(every=1, mesh=system.mesh, keep=2, dir=tmp_path)
    system.run("bfs", checkpointer=ck)
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == sorted(
        f"ckpt_{system.hub}_it{s.iteration}.npz" for s in ck.snapshots
    )
    assert len(files) == 2
    assert Checkpoint.load(tmp_path / files[-1]).key == system.hub


#: mode -> (snapshot nbytes, snapshots taken, total charged bytes,
#: total_seconds) at cadence 2, measured at the parent commit (separate
#: Checkpoint / ProgramCheckpoint types).  BFS persists 8 B/vertex of
#: parents plus two packed bitmaps; delta-stepping declares bool arrays
#: and they are charged unpacked.
PARENT_COMMIT_CHARGES = {
    "bfs": (8 * N + 2 * (N // 8), 2, 8448.0, 0.00014208369930987844),
    "sssp": (8264, 3, 24792.0, 0.00075880975889178),
    "pagerank": (4168, 7, 29176.0, 0.003687416483083349),
    "sssp-delta": (9312, 65, 605280.0, 0.00407523475886524),
}


@pytest.mark.parametrize("mode", SNAPSHOT_MODES)
def test_charged_checkpoint_bytes_match_parent_commit(system, mode):
    registry = MetricsRegistry()
    ck, result = snapshots(system, mode, metrics=registry)
    nbytes, count, charged, seconds = PARENT_COMMIT_CHARGES[mode]
    assert [s.nbytes for s in ck.snapshots] == [nbytes] * count
    assert registry.counter_total("checkpoint_bytes", op="checkpoint") == charged
    events = [e for e in result.ledger.comm_events if e.phase == "checkpoint"]
    assert [e.total_bytes for e in events] == [float(nbytes)] * count
    assert result.total_seconds == seconds
    if mode == "sssp-delta":
        bools = [a for a in ck.latest().state.values() if a.dtype == bool]
        assert bools and all(a.nbytes == N for a in bools)

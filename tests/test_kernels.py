"""Unit tests for the component-kernel layer.

Covers the registry contract, the scheduler's loop semantics (skip of
empty components, §4.2 freshness of commits between sub-iterations,
direction resolution, hook ordering), and the 1.5D kernel set mounting.
"""

import numpy as np
import pytest

from repro.core import BFSConfig, DistributedBFS, partition_graph
from repro.core.kernels import (
    FIFTEEND_KERNELS,
    ComponentKernel,
    KernelRegistry,
    LevelSyncScheduler,
    SchedulerHost,
)
from repro.core.kernels.base import EMPTY_ACTIVATION
from repro.core.kernels.fifteend import (
    LANE_MESSAGE_BYTES,
    MESSAGE_BYTES,
    FifteenDContext,
    _FifteenDKernel,
    _RowMessageKernel,
)
from repro.core.lanes import LaneState
from repro.core.metrics import IterationRecord
from repro.core.subgraphs import COMPONENT_ORDER
from repro.core.vertexset import VertexSet
from repro.graph500.rmat import generate_edges
from repro.machine.costmodel import CollectiveKind, CostModel
from repro.machine.network import MachineSpec
from repro.runtime.ledger import TrafficLedger
from repro.runtime.mesh import ProcessMesh


class TestKernelRegistry:
    def test_register_sets_name_and_resolves(self):
        reg = KernelRegistry()

        @reg.register("X2Y")
        class XKernel(ComponentKernel):
            @property
            def num_arcs(self):
                return 0

            def execute(self, direction, active, visited, ledger, record):
                return EMPTY_ACTIVATION

        assert XKernel.name == "X2Y"
        assert "X2Y" in reg
        assert reg["X2Y"] is XKernel
        assert reg.names() == ("X2Y",)

    def test_duplicate_registration_rejected(self):
        reg = KernelRegistry()

        @reg.register("A")
        class One(ComponentKernel):
            @property
            def num_arcs(self):
                return 0

            def execute(self, direction, active, visited, ledger, record):
                return EMPTY_ACTIVATION

        with pytest.raises(ValueError, match="already registered"):

            @reg.register("A")
            class Two(ComponentKernel):
                @property
                def num_arcs(self):
                    return 0

                def execute(self, direction, active, visited, ledger, record):
                    return EMPTY_ACTIVATION

    def test_fifteend_registry_covers_all_components(self):
        assert set(FIFTEEND_KERNELS.names()) == set(COMPONENT_ORDER)


class _FakeKernel(ComponentKernel):
    """Activates a fixed set of vertices whenever its trigger is active."""

    def __init__(self, name, trigger, activates, arcs=1):
        self.name = name
        self.trigger = trigger
        self.activates = activates
        self.arcs = arcs
        self.seen_visited: list[np.ndarray] = []
        self.directions: list[str] = []

    @property
    def num_arcs(self):
        return self.arcs

    def execute(self, direction, active, visited, ledger, record):
        self.seen_visited.append(visited.mask.copy())
        self.directions.append(direction)
        if not active.mask[self.trigger]:
            return EMPTY_ACTIVATION
        newly = np.array(
            [v for v in self.activates if not visited.mask[v]], dtype=np.int64
        )
        return newly, np.full(newly.size, self.trigger, dtype=np.int64)


class _FakeHost(SchedulerHost):
    def __init__(self, n=8, direction="push"):
        self.num_vertices = n
        self.num_input_edges = n
        self.config = BFSConfig(max_iterations=50)
        self.cost = CostModel(MachineSpec(num_nodes=1))
        self.direction = direction
        self.calls: list[str] = []

    def begin_iteration(self, ledger, active, visited):
        self.calls.append("begin")

    def iteration_direction(self, active, visited):
        return self.direction

    def end_iteration(self, ledger, record, active, visited, parent, next_active):
        self.calls.append("end_iteration")

    def end_run(self, ledger, tracer, parent):
        self.calls.append("end_run")


class TestLevelSyncScheduler:
    def test_root_out_of_range_rejected(self):
        host = _FakeHost()
        sched = LevelSyncScheduler(host, {})
        with pytest.raises(ValueError, match="out of range"):
            sched.run(99)

    def test_empty_component_skipped_with_dash(self):
        host = _FakeHost()
        kernels = {
            "full": _FakeKernel("full", trigger=0, activates=[1]),
            "empty": _FakeKernel("empty", trigger=0, activates=[2], arcs=0),
        }
        result = LevelSyncScheduler(host, kernels).run(0)
        first = result.iterations[0]
        assert first.directions["empty"] == "-"
        assert first.directions["full"] == "push"
        assert kernels["empty"].seen_visited == []  # never executed

    def test_commits_are_visible_to_later_subiterations(self):
        # Kernel A activates vertex 1; kernel B must observe it as
        # visited within the SAME iteration (the §4.2 freshness rule).
        host = _FakeHost()
        kernels = {
            "A": _FakeKernel("A", trigger=0, activates=[1]),
            "B": _FakeKernel("B", trigger=0, activates=[2]),
        }
        LevelSyncScheduler(host, kernels).run(0)
        assert kernels["B"].seen_visited[0][1]
        assert not kernels["A"].seen_visited[0][1]

    def test_parent_first_writer_and_levels(self):
        host = _FakeHost()
        kernels = {
            "A": _FakeKernel("A", trigger=0, activates=[1, 2]),
            "B": _FakeKernel("B", trigger=1, activates=[3]),
        }
        result = LevelSyncScheduler(host, kernels).run(0)
        assert result.parent[0] == 0
        assert result.parent[1] == 0
        assert result.parent[3] == 1
        assert result.num_iterations == 3  # frontier {0}, {1,2}, {3}

    def test_hook_order_per_iteration(self):
        host = _FakeHost()
        kernels = {"A": _FakeKernel("A", trigger=0, activates=[])}
        LevelSyncScheduler(host, kernels).run(0)
        assert host.calls == ["begin", "end_iteration", "end_run"]

    def test_component_direction_used_when_global_none(self):
        host = _FakeHost(direction=None)
        host.component_direction = lambda name, active, visited: "pull"
        kernels = {"A": _FakeKernel("A", trigger=0, activates=[])}
        result = LevelSyncScheduler(host, kernels).run(0)
        assert kernels["A"].directions == ["pull"]
        assert result.iterations[0].directions["A"] == "pull"


@pytest.fixture(scope="module")
def engine():
    src, dst = generate_edges(8, seed=3)
    machine = MachineSpec(num_nodes=4, nodes_per_supernode=2)
    mesh = ProcessMesh(2, 2, machine=machine)
    part = partition_graph(
        src, dst, 256, mesh, e_threshold=64, h_threshold=8
    )
    return DistributedBFS(
        part,
        machine=machine,
        config=BFSConfig(e_threshold=64, h_threshold=8),
    )


class TestFifteenDMounting:

    def test_engine_mounts_kernels_densest_first(self, engine):
        assert tuple(engine.kernels) == COMPONENT_ORDER

    def test_kernel_arcs_cover_partition(self, engine):
        total = sum(k.num_arcs for k in engine.kernels.values())
        assert total == engine.part.total_arcs

    def test_engine_runs_through_shared_scheduler(self, engine):
        assert isinstance(engine.scheduler, LevelSyncScheduler)
        root = int(np.argmax(engine.part.degrees))
        result = engine.run(root)
        assert result.parent[root] == root
        assert result.total_seconds > 0


class _ToyRowKernel(_RowMessageKernel):
    """A kernel written from ``docs/architecture.md``'s guide: a row
    messaging component that overrides nothing but where a message
    lands (here: it stays on the sending rank)."""

    name = "TOY"

    def owner_of_dst(self, dst, sender_rank):
        return sender_rank


class _ToyRouteKernel(_FifteenDKernel):
    """The other way the guide allows: a kernel with its own ``route``
    (and rates), nothing mode-specific."""

    name = "TOY"

    def push_seconds(self, per_rank, sel):
        return 0.0

    def pull_rate(self):
        return 1e9

    def route(self, label, send_rank, dst, ledger, record, message_bytes):
        ctx = self.ctx
        record.messages["TOY"] = record.messages.get("TOY", 0) + send_rank.size
        ctx.charge_row_alltoallv(
            "TOY", np.bincount(send_rank, minlength=ctx.num_ranks), ledger,
            message_bytes,
        )
        ctx.charge_receiver_kernel("TOY", send_rank, ledger, label)


class _EchoProgram:
    """The two things a kernel asks of a vertex program."""

    message_bytes = 24

    def __init__(self, n):
        self.n = n

    def pull_candidates(self):
        return np.ones(self.n, dtype=bool)

    def edge_sweep(self, name, src, dst):
        return np.unique(dst)


class TestOneChargingPath:
    """Overriding ``route`` (or, for a row kernel, only ``owner_of_dst``)
    is enough: the kernel is charged — same collective, same receiver
    kernel, the mode's wire width — under single-source BFS, a wave and
    a vertex program."""

    @pytest.fixture(params=[_ToyRowKernel, _ToyRouteKernel])
    def toy(self, engine, request):
        return request.param(engine.ctx, engine.part.components["H2L"])

    @staticmethod
    def _heavy(engine, k=3):
        return np.flatnonzero(engine.ctx.masks["H"])[:k]

    def _check(self, engine, ledger, record, direction, messages, width, runs=1):
        assert messages > 0
        assert record.messages == {"TOY": messages}
        assert len(ledger.comm_events) == runs
        assert {e.kind for e in ledger.comm_events} == {CollectiveKind.ALLTOALLV}
        assert {e.participants for e in ledger.comm_events} == {engine.ctx.mesh.cols}
        assert sum(e.total_bytes for e in ledger.comm_events) == messages * width
        labels = [c.kernel for c in ledger.compute_events]
        assert labels == [f"{direction}:TOY", f"{direction}_recv:TOY"] * runs
        received = sum(c.total_items for c in ledger.compute_events[1::2])
        assert received == messages

    @pytest.mark.parametrize("direction", ["push", "pull"])
    def test_single_source(self, engine, toy, direction):
        vclass = engine.part.vclass
        active = VertexSet(engine.num_vertices, vclass)
        active.add(self._heavy(engine))
        visited = VertexSet(engine.num_vertices, vclass)
        visited.add(self._heavy(engine))
        ledger = TrafficLedger(engine.cost)
        record = IterationRecord(index=0, frontier_size=len(active))
        newly, _ = toy.execute(direction, active, visited, ledger, record)
        messages = (
            toy.comp.push_select(active).num_arcs
            if direction == "push"
            else newly.size
        )
        self._check(engine, ledger, record, direction, messages, MESSAGE_BYTES)

    @pytest.mark.parametrize("direction", ["push", "pull"])
    def test_wave_accumulates_over_lane_groups(self, engine, toy, direction):
        lanes = LaneState(engine.num_vertices, self._heavy(engine), engine.part.vclass)
        ledger = TrafficLedger(engine.cost)
        record = IterationRecord(index=0, frontier_size=3)
        # Two direction groups of one wave run through the same kernel.
        messages = 0
        for group in (np.uint64(0b001), np.uint64(0b110)):
            if direction == "push":
                messages += toy.comp.push_select((lanes.active & group) != 0).num_arcs
            else:
                messages += toy.lanes_pull_body(group, lanes).num_messages
            toy.execute_lanes(direction, group, lanes, ledger, record)
        self._check(
            engine, ledger, record, direction, messages, LANE_MESSAGE_BYTES, runs=2
        )

    @pytest.mark.parametrize("direction", ["push", "pull"])
    def test_vertex_program(self, engine, toy, direction):
        active = VertexSet(engine.num_vertices, engine.part.vclass)
        active.add(self._heavy(engine))
        program = _EchoProgram(engine.num_vertices)
        ledger = TrafficLedger(engine.cost)
        record = IterationRecord(index=0, frontier_size=len(active))
        toy.execute_program(program, direction, active, ledger, record)
        # Push and (all-candidate) pull select the same arc set.
        messages = toy.comp.push_select(active).num_arcs
        self._check(
            engine, ledger, record, direction, messages, program.message_bytes
        )

    def test_sync_bytes_modes_differ_only_in_the_sparse_entry(self):
        sync_bytes = FifteenDContext.sync_bytes
        # Sparse side wins: 1 lane equals single-source; 2 lanes use
        # (id, lane word) entries.
        assert sync_bytes(4096, 5) == sync_bytes(4096, 5, num_lanes=1) == 5 * MESSAGE_BYTES
        assert sync_bytes(4096, 5, num_lanes=2) == 5 * LANE_MESSAGE_BYTES
        # Bitmap side wins: one lane's bitmap is the single-source one...
        assert sync_bytes(4096, 4000) == sync_bytes(4096, 4000, num_lanes=1) == 512
        # ...and widens by the lane count.
        assert sync_bytes(4096, 4000, num_lanes=64) == 64 * 512

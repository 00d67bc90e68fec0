"""Tests for the simulated communicator."""

import numpy as np
import pytest

from repro.machine.costmodel import CollectiveKind, CostModel
from repro.machine.network import MachineSpec
from repro.runtime.comm import SimCommunicator
from repro.runtime.ledger import TrafficLedger
from repro.runtime.mesh import ProcessMesh


def make_comm(rows=2, cols=2, nodes_per_supernode=2):
    machine = MachineSpec(
        num_nodes=rows * cols, nodes_per_supernode=nodes_per_supernode
    )
    mesh = ProcessMesh(rows, cols, machine=machine)
    ledger = TrafficLedger(CostModel(machine))
    return SimCommunicator(mesh, ledger), mesh, ledger


class TestAlltoallv:
    def test_delivery_and_ordering(self):
        comm, mesh, _ = make_comm()
        group = np.arange(4)
        send = {
            0: {1: np.array([10]), 2: np.array([20])},
            1: {2: np.array([21, 22])},
            3: {2: np.array([23])},
        }
        recv = comm.alltoallv("t", group, send)
        # rank 2 receives source-rank-ordered concatenation
        assert recv[2].tolist() == [20, 21, 22, 23]
        assert recv[1].tolist() == [10]
        assert recv[0].size == 0 and recv[3].size == 0

    def test_self_send_delivered_but_free(self):
        comm, _, ledger = make_comm()
        recv = comm.alltoallv("t", np.arange(4), {0: {0: np.array([5])}})
        assert recv[0].tolist() == [5]
        assert ledger.comm_events[0].total_bytes == 0.0

    def test_ledger_volume_split(self):
        # 2x2 mesh, supernode size 2: ranks {0,1} and {2,3}.
        comm, _, ledger = make_comm()
        send = {0: {1: np.zeros(10, np.int64), 2: np.zeros(10, np.int64)}}
        comm.alltoallv("t", np.arange(4), send)
        ev = ledger.comm_events[0]
        assert ev.max_bytes_intra == pytest.approx(80.0)
        assert ev.max_bytes_inter == pytest.approx(80.0)

    def test_rejects_send_outside_group(self):
        comm, _, _ = make_comm()
        with pytest.raises(ValueError, match="outside the group"):
            comm.alltoallv("t", np.array([0, 1]), {0: {2: np.array([1])}})

    def test_subgroup_exchange(self):
        comm, mesh, _ = make_comm(2, 4, nodes_per_supernode=4)
        row = mesh.row_ranks(1)  # ranks 4..7
        recv = comm.alltoallv("t", row, {4: {7: np.array([1, 2])}})
        assert recv[7].tolist() == [1, 2]


class TestAllreduceOr:
    def test_or_semantics(self):
        comm, _, _ = make_comm()
        bitmaps = {
            0: np.array([True, False, False]),
            1: np.array([False, True, False]),
            2: np.array([False, False, False]),
            3: np.array([True, False, False]),
        }
        out = comm.allreduce_or("t", np.arange(4), bitmaps)
        assert out.tolist() == [True, True, False]

    def test_shape_mismatch_rejected(self):
        comm, _, _ = make_comm()
        with pytest.raises(ValueError, match="shape"):
            comm.allreduce_or(
                "t",
                np.array([0, 1]),
                {0: np.zeros(3, bool), 1: np.zeros(4, bool)},
            )

    def test_needs_contribution(self):
        comm, _, _ = make_comm()
        with pytest.raises(ValueError, match="at least one"):
            comm.allreduce_or("t", np.array([0]), {})

    def test_wire_bytes_are_packed_bits(self):
        comm, _, ledger = make_comm(1, 2, nodes_per_supernode=1)
        comm.allreduce_or(
            "t", np.array([0, 1]), {0: np.zeros(800, bool), 1: np.zeros(800, bool)}
        )
        ev = ledger.comm_events[0]
        assert ev.max_bytes_intra + ev.max_bytes_inter == pytest.approx(100.0)


class TestBarrier:
    def test_latency_only(self):
        comm, _, ledger = make_comm()
        comm.barrier("t", np.arange(4))
        ev = ledger.comm_events[0]
        assert ev.kind is CollectiveKind.BARRIER
        assert ev.total_bytes == 0.0

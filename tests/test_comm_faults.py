"""SimCommunicator collectives over subset groups under injected faults.

The injector consumes faults at the ledger's charging choke point, so the
functional communicator inherits drop/straggler/corruption behaviour with
no code of its own; these tests pin the contract: ledger charges match
retry counts exactly, stragglers only inflate the groups they sit in, and
corrupted payloads are detected and re-delivered pristine.
"""

import numpy as np
import pytest

from repro.machine.costmodel import CollectiveKind
from repro.machine.network import MachineSpec
from repro.obs.metrics import MetricsRegistry
from repro.resilience import FaultInjector
from repro.resilience.faults import (
    BACKOFF_BASE_SECONDS,
    BACKOFF_GROWTH,
    BACKOFF_MAX_SECONDS,
)
from repro.runtime.comm import SimCommunicator
from repro.runtime.ledger import TrafficLedger
from repro.runtime.mesh import ProcessMesh


def make_comm(rows=2, cols=2, faults=None, metrics=None):
    machine = MachineSpec(num_nodes=rows * cols, nodes_per_supernode=cols)
    mesh = ProcessMesh(rows, cols, machine=machine)
    from repro.machine.costmodel import CostModel

    ledger = TrafficLedger(
        CostModel(machine),
        metrics=metrics if metrics is not None else MetricsRegistry(),
    )
    if faults is not None:
        ledger.faults = faults
    return SimCommunicator(mesh, ledger), mesh, ledger


def row_alltoallv(comm, mesh, row=0):
    """Every rank of one mesh row sends 16 ids to each other rank of it."""
    ranks = [int(r) for r in mesh.row_ranks(row)]
    send = {i: {j: np.arange(16) for j in ranks if j != i} for i in ranks}
    return comm.alltoallv("EH2EH", mesh.row_ranks(row), send)


class TestDropRetryCharges:
    def test_event_count_is_baseline_plus_two_per_retry(self):
        """Each retry adds one wasted full-cost event + one backoff wait."""
        base_comm, base_mesh, base_ledger = make_comm()
        row_alltoallv(base_comm, base_mesh)
        baseline_events = len(base_ledger.comm_events)

        inj = FaultInjector("drop:phase=EH2EH,count=1,retries=3")
        comm, mesh, ledger = make_comm(faults=inj)
        out = row_alltoallv(comm, mesh)
        # payload still fully delivered
        assert {r: v.size for r, v in out.items()} == {0: 16, 1: 16}
        assert len(ledger.comm_events) == baseline_events + 2 * 3
        assert inj.retries_total == 3

    def test_wasted_attempts_charge_full_cost(self):
        inj = FaultInjector("drop:phase=EH2EH,count=1,retries=2")
        comm, mesh, ledger = make_comm(faults=inj)
        row_alltoallv(comm, mesh)
        exchanges = [
            e for e in ledger.comm_events
            if e.kind is CollectiveKind.ALLTOALLV
        ]
        assert len(exchanges) == 3  # 2 wasted + 1 successful
        assert len({e.seconds for e in exchanges}) == 1  # identical pricing
        assert len({e.total_bytes for e in exchanges}) == 1

    def test_backoff_waits_match_schedule(self):
        inj = FaultInjector("drop:phase=EH2EH,count=1,retries=3")
        comm, mesh, ledger = make_comm(faults=inj)
        row_alltoallv(comm, mesh)
        waits = [
            e.seconds for e in ledger.comm_events
            if e.kind is CollectiveKind.BARRIER and e.participants == 1
        ]
        assert waits == [
            min(BACKOFF_BASE_SECONDS * BACKOFF_GROWTH**a, BACKOFF_MAX_SECONDS)
            for a in range(3)
        ]

    def test_drop_on_alltoallv_subgroup(self):
        inj = FaultInjector("drop:phase=L2L,count=2,retries=2")
        comm, mesh, ledger = make_comm(2, 4)
        ledger.faults = inj
        row = mesh.row_ranks(1)
        for _ in range(3):  # budget of 2: third exchange is clean
            recv = comm.alltoallv(
                "L2L", row, {int(row[0]): {int(row[3]): np.array([1, 2])}}
            )
            assert recv[int(row[3])].tolist() == [1, 2]
        a2a = [
            e for e in ledger.comm_events
            if e.kind is CollectiveKind.ALLTOALLV
        ]
        assert len(a2a) == 3 + 2 * 2  # 3 real + (2 faults x 2 retries) wasted
        assert inj.retries_total == 4

    def test_retry_counter_matches_ledger_metrics(self):
        registry = MetricsRegistry()
        inj = FaultInjector(
            "drop:phase=EH2EH,count=2,retries=2", metrics=registry
        )
        comm, mesh, ledger = make_comm(faults=inj, metrics=registry)
        row_alltoallv(comm, mesh, row=0)
        row_alltoallv(comm, mesh, row=1)
        assert registry.counter_total("retries") == inj.retries_total == 4
        # Every commit — wasted attempts and backoff waits included — is a
        # first-class comm_event in the registry.
        assert registry.counter_total("comm_events") == len(ledger.comm_events)
        assert registry.counter_total("comm_seconds") == pytest.approx(
            ledger.comm_seconds
        )


class TestStragglerScoping:
    def test_straggler_inflates_only_its_row(self):
        # Rank 3 sits in row 1 of a 2x2 mesh.
        clean_comm, clean_mesh, clean_ledger = make_comm()
        row_alltoallv(clean_comm, clean_mesh, row=0)
        row_alltoallv(clean_comm, clean_mesh, row=1)
        clean = [e.seconds for e in clean_ledger.comm_events]

        inj = FaultInjector("straggler:rank=3,factor=4,phase=EH2EH")
        comm, mesh, ledger = make_comm(faults=inj)
        row_alltoallv(comm, mesh, row=0)
        row_alltoallv(comm, mesh, row=1)
        seconds = [e.seconds for e in ledger.comm_events]
        assert seconds[0] == clean[0]  # row 0: rank 3 not a participant
        assert seconds[1] == pytest.approx(4.0 * clean[1])  # row 1: inflated

    def test_straggler_counted_once(self):
        inj = FaultInjector("straggler:rank=3,factor=4,phase=EH2EH")
        comm, mesh, _ = make_comm(faults=inj)
        row_alltoallv(comm, mesh, row=1)
        row_alltoallv(comm, mesh, row=1)
        assert inj.faults_fired == 1  # one fault, many inflated events

    def test_column_group_scoping(self):
        inj = FaultInjector("straggler:rank=2,factor=3")
        comm, mesh, ledger = make_comm(faults=inj)
        for col in (0, 1):  # rank 2 lives in column 0 of the 2x2 mesh
            ranks = mesh.col_ranks(col)
            comm.allreduce_or(
                "H", ranks,
                {int(r): np.zeros(64, bool) for r in ranks},
            )
        ev = ledger.comm_events
        assert ev[0].seconds == pytest.approx(3.0 * ev[1].seconds)


class TestCorruptionDelivery:
    def test_allreduce_detects_and_redelivers(self):
        bitmaps = {
            0: np.array([True, False, False, False]),
            1: np.array([False, True, False, False]),
            2: np.array([False, False, True, False]),
            3: np.array([False, False, False, False]),
        }
        clean_comm, _, _ = make_comm()
        expected = clean_comm.allreduce_or("H", np.arange(4), bitmaps)

        inj = FaultInjector("corrupt:phase=H,count=1,retries=1")
        comm, _, ledger = make_comm(faults=inj)
        out = comm.allreduce_or("H", np.arange(4), bitmaps)
        assert np.array_equal(out, expected)  # pristine after round-trip
        assert inj.corruptions_detected == 1
        assert inj.retries_total == 1  # the retransmission was also priced
        waits = [e for e in ledger.comm_events if e.participants == 1]
        assert len(waits) == 1

    def test_corruption_metrics(self):
        registry = MetricsRegistry()
        inj = FaultInjector("corrupt:phase=L2L,count=1", metrics=registry)
        comm, _, _ = make_comm(faults=inj, metrics=registry)
        comm.alltoallv(
            "L2L", np.arange(4), {0: {1: np.arange(32)}}
        )
        assert registry.counter_total("corruptions_detected") == 1
        assert registry.counter_total("faults_injected", kind="corrupt") == 1

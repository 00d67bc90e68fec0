"""Cross-check: the engine's analytic charges equal routed volumes.

The 1.5D engine charges communication analytically (per-rank byte
vectors computed from the executed traversal).  These tests route the
*same* messages through the functional :class:`SimCommunicator` and
assert the ledger events agree — evidence that the analytic accounting
is exact, not an approximation.
"""

import numpy as np
import pytest

from repro.core import BFSConfig, DistributedBFS, partition_graph
from repro.graph500.rmat import generate_edges
from repro.machine.costmodel import CollectiveKind, CostModel
from repro.machine.network import MachineSpec
from repro.runtime.comm import SimCommunicator
from repro.runtime.ledger import TrafficLedger
from repro.runtime.mesh import ProcessMesh


@pytest.fixture(scope="module")
def system():
    scale = 11
    src, dst = generate_edges(scale, seed=1)
    machine = MachineSpec(num_nodes=16, nodes_per_supernode=4)
    mesh = ProcessMesh(4, 4, machine=machine)
    part = partition_graph(src, dst, 1 << scale, mesh, e_threshold=128, h_threshold=16)
    engine = DistributedBFS(
        part, machine=machine, config=BFSConfig(e_threshold=128, h_threshold=16)
    )
    return part, engine, mesh, machine


def route_messages(mesh, machine, sender_rank, dest_rank, payload_bytes=8):
    """Route one message per (sender, dest) pair through SimCommunicator."""
    ledger = TrafficLedger(CostModel(machine))
    comm = SimCommunicator(mesh, ledger)
    p = mesh.num_ranks
    send = {}
    for s, d in zip(sender_rank.tolist(), dest_rank.tolist()):
        send.setdefault(s, {}).setdefault(d, []).append(1)
    send_arrays = {
        s: {d: np.zeros(len(msgs), dtype=np.int64) for d, msgs in by_dest.items()}
        for s, by_dest in send.items()
    }
    comm.alltoallv("crosscheck", np.arange(p), send_arrays)
    return ledger.comm_events[0]


class TestRowMessagingVolumes:
    def test_h2l_push_charge_matches_routing(self, system):
        part, engine, mesh, machine = system
        comp = part.components["H2L"]
        if comp.num_arcs == 0:
            pytest.skip("no H2L arcs at these thresholds")
        # a frontier where every H vertex is active: worst-case messaging
        active = part.class_masks()["H"]
        sel = comp.push_select(active)
        assert sel.num_arcs > 0

        # analytic charge
        ledger = TrafficLedger(CostModel(machine))
        engine.ctx.charge_row_alltoallv(
            "H2L", np.bincount(sel.rank, minlength=mesh.num_ranks), ledger
        )
        analytic = ledger.comm_events[0]

        # routed volumes (messages really delivered to owner(dst))
        o_dst = mesh.owner_of(sel.dst, part.num_vertices)
        routed = route_messages(mesh, machine, sel.rank, o_dst)

        # H2L messages are intra-row by construction, so the routed event
        # must have zero inter-supernode bytes, like the analytic one.
        assert np.all(mesh.row_of(sel.rank) == mesh.row_of(o_dst))
        assert routed.max_bytes_inter == 0.0
        assert analytic.max_bytes_inter == 0.0
        # total bytes: analytic counts every message; routing drops
        # rank-local (sender == receiver) messages, as real MPI memcpy
        # would — so analytic >= routed, within the local share.
        assert analytic.total_bytes >= routed.total_bytes
        local = int(np.count_nonzero(sel.rank == o_dst))
        assert analytic.total_bytes - routed.total_bytes == pytest.approx(local * 8)

    def test_max_rank_volume_agrees(self, system):
        part, engine, mesh, machine = system
        comp = part.components["H2L"]
        if comp.num_arcs == 0:
            pytest.skip("no H2L arcs")
        active = part.class_masks()["H"]
        sel = comp.push_select(active)
        o_dst = mesh.owner_of(sel.dst, part.num_vertices)
        remote = sel.rank != o_dst
        routed = route_messages(mesh, machine, sel.rank[remote], o_dst[remote])
        # busiest sender's remote bytes, computed independently
        per_rank = np.zeros(mesh.num_ranks)
        np.add.at(per_rank, sel.rank[remote], 8.0)
        assert routed.max_bytes_intra + routed.max_bytes_inter == pytest.approx(
            per_rank.max()
        )


class TestL2LForwardingVolumes:
    def test_two_stage_conservation(self, system):
        """Stage-1 bytes equal stage-2 bytes (every message is forwarded
        exactly once), and both match the selected arc count."""
        part, engine, mesh, machine = system
        comp = part.components["L2L"]
        if comp.num_arcs == 0:
            pytest.skip("no L2L arcs")
        active = part.class_masks()["L"]
        sel = comp.push_select(active)
        ledger = TrafficLedger(CostModel(machine))
        o_dst = mesh.owner_of(sel.dst, part.num_vertices)
        engine.ctx.charge_l2l_alltoallv(sel.rank, o_dst, ledger)
        a2a = [e for e in ledger.comm_events if e.kind is CollectiveKind.ALLTOALLV]
        assert len(a2a) == 2
        assert a2a[0].total_bytes == pytest.approx(sel.num_arcs * 8)
        assert a2a[1].total_bytes == pytest.approx(sel.num_arcs * 8)

    def test_forwarding_rank_is_intersection(self, system):
        part, engine, mesh, machine = system
        comp = part.components["L2L"]
        if comp.num_arcs == 0:
            pytest.skip("no L2L arcs")
        active = part.class_masks()["L"]
        sel = comp.push_select(active)
        o_dst = mesh.owner_of(sel.dst, part.num_vertices)
        fwd = mesh.row_of(o_dst) * mesh.cols + mesh.col_of(sel.rank)
        # stage 1 is intra-column; stage 2 is intra-row
        assert np.all(mesh.col_of(fwd) == mesh.col_of(sel.rank))
        assert np.all(mesh.row_of(fwd) == mesh.row_of(o_dst))


class TestEndToEndVolumeSanity:
    def test_total_bytes_match_message_trace(self, system):
        """The run's recorded per-component message counts are consistent
        with the alltoallv bytes the ledger carries."""
        part, engine, mesh, machine = system
        res = engine.run(int(np.argmax(part.degrees)))
        msg_count = sum(sum(r.messages.values()) for r in res.iterations)
        a2a_bytes = sum(
            e.total_bytes
            for e in res.ledger.comm_events
            if e.kind is CollectiveKind.ALLTOALLV
        )
        # each message is 8 bytes; L2L messages traverse two stages and
        # pull queries add replies, so bytes lie between 1x and 2x.
        assert msg_count * 8 <= a2a_bytes <= 2 * msg_count * 8 + 1e-9

"""The pricing path against verbatim copies of its formulas.

A collective's constant terms are priced once per ``(kind,
participants)`` and the vertex cut reads its fractions from a per-size
table, so a charge costs only its own arithmetic.  The simulated clock
must not move by a bit for it: each check here is ``==`` against the
formula as it read before those constants were hoisted, kept below.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.balance import edge_aware_cuts, vertex_cut_imbalance
from repro.machine.costmodel import CollectiveKind, CostModel
from repro.machine.network import MachineSpec

PARTICIPANTS = (1, 2, 3, 4, 5, 16, 64, 1024)

MACHINES = {
    "default": MachineSpec(),
    "scaled": MachineSpec(num_nodes=64, nodes_per_supernode=16).scaled_for(1e4),
}


def reference_collective_time(m, kind, participants, intra=0.0, inter=0.0):
    """``CostModel.collective_time`` priced from the machine per call."""
    if participants < 1:
        raise ValueError("participants must be >= 1")
    if kind is CollectiveKind.BARRIER:
        return m.collective_latency(participants) / m.work_scale
    if kind in (CollectiveKind.ALLTOALLV, CollectiveKind.P2P):
        latency = m.p2p_latency_s + m.hop_latency_s * max(participants - 1, 0)
    else:
        latency = m.collective_latency(participants)
    latency /= m.work_scale
    bw_time = intra / m.nic_bytes_per_s + inter / m.inter_supernode_bytes_per_s
    if kind in (
        CollectiveKind.ALLGATHER,
        CollectiveKind.REDUCE_SCATTER,
        CollectiveKind.ALLREDUCE,
    ):
        bw_time *= (participants - 1) / max(participants, 1)
        if kind is CollectiveKind.ALLREDUCE:
            bw_time *= 2.0
    return latency + bw_time


def reference_cuts_from_prefix(prefix, num_workers):
    targets = (np.arange(num_workers + 1, dtype=np.float64) / num_workers) * prefix[-1]
    cuts = np.searchsorted(prefix, targets, side="left")
    cuts[0] = 0
    cuts[-1] = prefix.size - 1
    return np.maximum.accumulate(cuts).astype(np.int64)


def reference_prefix(degrees):
    prefix = np.empty(degrees.size + 1, dtype=np.int64)
    prefix[0] = 0
    np.cumsum(degrees, out=prefix[1:])
    return prefix


def reference_edge_aware_cuts(degrees, num_workers):
    degrees = np.asarray(degrees, dtype=np.int64)
    if degrees.size == 0:
        return np.zeros(num_workers + 1, dtype=np.int64)
    return reference_cuts_from_prefix(reference_prefix(degrees), num_workers)


def reference_vertex_cut_imbalance(degrees, num_workers, *, edge_aware):
    degrees = np.asarray(degrees, dtype=np.int64)
    n = degrees.size
    if n == 0 or num_workers < 2:
        return 1.0
    prefix = reference_prefix(degrees)
    total = int(prefix[-1])
    if total == 0:
        return 1.0
    if edge_aware:
        cuts = reference_cuts_from_prefix(prefix, num_workers)
    else:
        cuts = (np.arange(num_workers + 1, dtype=np.int64) * n) // num_workers
    loads = prefix[cuts[1:]] - prefix[cuts[:-1]]
    mean = total / min(num_workers, n)
    return float(loads.max() / mean) if mean > 0 else 1.0


volumes = st.one_of(
    st.just(0.0),
    st.integers(0, 1 << 40).map(float),
    st.floats(0.0, 1e18, allow_nan=False, allow_infinity=False),
)


class TestCollectiveTime:
    @pytest.mark.parametrize("machine", sorted(MACHINES))
    @settings(max_examples=40, deadline=None)
    @given(intra=volumes, inter=volumes)
    def test_bit_identical_to_the_per_call_formula(self, machine, intra, inter):
        m = MACHINES[machine]
        model = CostModel(m)
        for _ in range(2):  # priced cold, then from the memo
            for kind in CollectiveKind:
                for p in PARTICIPANTS:
                    got = model.collective_time(kind, p, intra, inter)
                    want = reference_collective_time(m, kind, p, intra, inter)
                    assert got == want, (kind, p, intra, inter)

    def test_default_volumes(self):
        for m in MACHINES.values():
            model = CostModel(m)
            for kind in CollectiveKind:
                for p in PARTICIPANTS:
                    assert model.collective_time(kind, p) == (
                        reference_collective_time(m, kind, p)
                    )

    @pytest.mark.parametrize("participants", [0, -1])
    def test_participants_below_one_raise_on_every_call(self, participants):
        model = CostModel(MachineSpec())
        for kind in CollectiveKind:
            for _ in range(3):
                with pytest.raises(ValueError):
                    model.collective_time(kind, participants, 1.0, 1.0)

    def test_models_keep_their_own_terms(self):
        a, b = (CostModel(m) for m in MACHINES.values())
        kind = CollectiveKind.ALLREDUCE
        ta, tb = a.collective_time(kind, 16, 1e6), b.collective_time(kind, 16, 1e6)
        assert ta != tb
        assert a.collective_time(kind, 16, 1e6) == ta
        assert a == CostModel(MACHINES["default"])  # the memo is not state


def degree_arrays(workers):
    """Empty, all-zero, and drawn frontiers below, at and above the
    worker count."""
    sizes = st.sampled_from(
        sorted({0, 1, max(workers - 1, 0), workers, workers + 1, 2 * workers + 3})
    )
    return sizes.flatmap(
        lambda n: st.one_of(
            st.just(np.zeros(n, dtype=np.int64)),
            st.lists(st.integers(0, 1 << 20), min_size=n, max_size=n).map(
                lambda v: np.array(v, dtype=np.int64)
            ),
            st.lists(st.sampled_from([0, 1, 8, 4096]), min_size=n, max_size=n).map(
                lambda v: np.array(v, dtype=np.int64)
            ),
        )
    )


class TestVertexCut:
    @pytest.mark.parametrize("workers", [1, 2, 384])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bit_identical_to_the_reference(self, workers, data):
        degrees = data.draw(degree_arrays(workers))
        cuts = edge_aware_cuts(degrees, workers)
        want = reference_edge_aware_cuts(degrees, workers)
        assert cuts.dtype == np.int64
        assert np.array_equal(cuts, want)
        for edge_aware in (False, True):
            assert vertex_cut_imbalance(
                degrees, workers, edge_aware=edge_aware
            ) == reference_vertex_cut_imbalance(
                degrees, workers, edge_aware=edge_aware
            )

"""Tests for kernel 1's construction price (paper §5)."""

import numpy as np
import pytest

from repro.core.partition import partition_graph
from repro.core.preprocessing import ARC_BYTES, construction_ledger
from repro.graph500.rmat import generate_edges
from repro.machine.costmodel import CollectiveKind
from repro.machine.network import MachineSpec
from repro.runtime.mesh import ProcessMesh


def build(scale=10, rows=2, cols=2, seed=1):
    src, dst = generate_edges(scale, seed=seed)
    machine = MachineSpec(num_nodes=rows * cols, nodes_per_supernode=cols)
    mesh = ProcessMesh(rows, cols, machine=machine)
    part = partition_graph(
        src, dst, 1 << scale, mesh, e_threshold=128, h_threshold=16
    )
    return part, machine


def alltoallv_events(ledger):
    return [e for e in ledger.comm_events if e.kind is CollectiveKind.ALLTOALLV]


class TestPreprocess:
    def test_ledger_charges_construction_phases(self):
        part, machine = build()
        ledger = construction_ledger(part, machine)
        kinds = set(ledger.comm_seconds_by_kind())
        assert CollectiveKind.ALLTOALLV in kinds
        assert CollectiveKind.REDUCE_SCATTER in kinds
        kernels = {e.kernel for e in ledger.compute_events}
        assert {"degree_count", "local_radix_sort", "build_components"} <= kernels
        assert ledger.total_seconds > 0

    def test_exchange_bytes_accounted(self):
        part, machine = build()
        (a2a,) = alltoallv_events(construction_ledger(part, machine))
        # every arc weighs 16 bytes; self-sends excluded, so bounded above
        assert 0 < a2a.total_bytes <= part.total_arcs * ARC_BYTES

    def test_single_rank_no_exchange_cost(self):
        part, _ = build(rows=1, cols=1)
        # one rank: the sort happens locally; alltoallv carries 0 bytes
        a2a = alltoallv_events(construction_ledger(part, MachineSpec(num_nodes=1)))
        assert all(e.total_bytes == 0 for e in a2a)

    def test_key_overflow_guard(self):
        """``num_ranks * n**2`` past 63 bits is refused before any
        per-vertex array is allocated."""
        src = np.array([0], dtype=np.int64)
        dst = np.array([1], dtype=np.int64)
        with pytest.raises(ValueError, match="overflow"):
            partition_graph(
                src, dst, 1 << 31, ProcessMesh(1, 2), e_threshold=2, h_threshold=1
            )

    def test_price_reads_only_the_partition(self):
        """The same arc set in another input order prices the same."""
        src, dst = generate_edges(9, seed=2)
        flip = np.random.default_rng(0).permutation(src.size)
        mesh = ProcessMesh(2, 2)
        machine = MachineSpec(num_nodes=4, nodes_per_supernode=2)
        a, b = (
            partition_graph(
                s, d, 1 << 9, mesh, e_threshold=64, h_threshold=8,
                placement="stable",
            )
            for s, d in ((src, dst), (src[flip], dst[flip]))
        )
        assert (
            construction_ledger(a, machine).total_seconds
            == construction_ledger(b, machine).total_seconds
        )

"""Kernel 1's simulated cost: the in-place construction of paper §5.

The paper's graph occupies nearly all main memory, so construction cannot
copy: it is expressed as a *generic in-place global sort* — Parallel
Sorting by Regular Sampling across nodes with PARADIS (an in-place radix
sort) locally — that moves every arc to its owning rank in sorted order,
after which the six component structures are built in place.
:func:`~repro.core.partition.partition_graph` is that construction on
the host (one packed-key sort per component access path);
:func:`construction_ledger` prices it on the simulated machine:

1. raw arcs start spread evenly over the ranks (as a distributed
   generator would leave them); degrees are counted locally and
   combined with a reduce-scatter;
2. one alltoallv moves every arc, at 16 bytes, to its owning rank —
   each origin chunk holds an equal share of every owner's arcs, the
   owners' loads being the components' ``arcs_per_rank``;
3. each owner radix-sorts its arcs and streams them once more to build
   its components; the busiest owner sets both times.

The price reads only the partition, so a partition repaired in place and
its from-scratch rebuild cost the same.  The Graph500 driver reports it
as ``construction_time`` and
:meth:`~repro.dynamic.repair.IncrementalGraph.rebuild_cost_estimate`
prices a full rebuild with it.
"""

from __future__ import annotations

import numpy as np

from repro.core.partition import PartitionedGraph
from repro.machine.costmodel import CollectiveKind, CostModel, NodeKernelRates
from repro.machine.network import MachineSpec
from repro.runtime.ledger import TrafficLedger

__all__ = ["ARC_BYTES", "construction_ledger"]

#: Bytes of one packed ``(src, dst)`` arc on the wire.
ARC_BYTES = 16
#: Byte-digit passes of the local radix sort over 64-bit keys bounded by
#: ``ranks * n**2``.
_SORT_PASSES = 4


def construction_ledger(
    part: PartitionedGraph, machine: MachineSpec
) -> TrafficLedger:
    """Kernel 1's ledger for building ``part`` on ``machine``; its
    ``total_seconds`` is the simulated construction time."""
    rates = NodeKernelRates(chip=machine.chip)
    ledger = TrafficLedger(CostModel(machine))
    ws = machine.work_scale
    mesh, p = part.mesh, part.mesh.num_ranks
    owned = sum(
        (c.arcs_per_rank for c in part.components.values()),
        np.zeros(p, dtype=np.int64),
    )

    # --- degree count: local bincount + reduce-scatter -------------------
    chunk = -(-int(owned.sum()) // p)
    ledger.charge_compute(
        "construction",
        "degree_count",
        np.full(p, chunk, dtype=np.int64),
        rates.kernel_time(chunk, rates.message_rate(), ws),
    )
    block_bytes = mesh.block_size(part.num_vertices) * 8.0
    ledger.charge_collective(
        "construction",
        CollectiveKind.REDUCE_SCATTER,
        p,
        max_bytes_intra=block_bytes * 0.5,
        max_bytes_inter=block_bytes * 0.5,
        total_bytes=block_bytes * p,
    )

    # --- every arc to its owner: one alltoallv ---------------------------
    send = owned * (ARC_BYTES / p)
    split = np.array([mesh.split_intra_inter(i, send) for i in range(p)])
    ledger.charge_collective(
        "construction",
        CollectiveKind.ALLTOALLV,
        p,
        max_bytes_intra=float(split[:, 0].max()),
        max_bytes_inter=float(split[:, 1].max()),
        total_bytes=float(split.sum()),
    )

    # --- local radix sort, then one stream building the components -------
    busiest = int(owned.max())
    ledger.charge_compute(
        "construction",
        "local_radix_sort",
        owned,
        rates.kernel_time(busiest * _SORT_PASSES, rates.message_rate(), ws),
    )
    ledger.charge_compute(
        "construction",
        "build_components",
        owned,
        rates.kernel_time(busiest, rates.message_rate(), ws),
    )
    return ledger

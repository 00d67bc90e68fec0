"""Interconnect model: supernodes and the oversubscribed fat tree.

New Sunway (paper §3.2) groups every 256 nodes into a *supernode* whose
internal communication is non-blocking at the 200 Gbps NIC rate.  Traffic
between supernodes climbs into the top of the fat tree, which is
oversubscribed 8x (§6.1.1), so the per-node bandwidth available for
inter-supernode traffic is 1/8 of the NIC rate when the machine communicates
all-to-all.

The 1.5D partitioning maps mesh *rows* to supernodes, which is why the H
delegation on rows/columns pays off: row collectives stay inside a
supernode, and only column/global traffic crosses the oversubscribed layer.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from repro.machine.chip import ChipSpec, SW26010_PRO

__all__ = ["MachineSpec", "PAPER_EDGES_PER_NODE"]

#: Per-node undirected edges of the paper's headline run: SCALE 44 with
#: edgefactor 16 over 103,912 nodes (~2.7e9).  Used to derive the work
#: scale of laptop-size reproductions.
PAPER_EDGES_PER_NODE = (16 << 44) / 103912


@dataclass(frozen=True)
class MachineSpec:
    """A New Sunway style machine: nodes, supernodes, fat tree, chips."""

    #: Number of nodes (one SW26010-Pro chip each).  The paper's full
    #: machine is 103,912; the reproduction simulates any count.
    num_nodes: int = 256
    #: Nodes per supernode; intra-supernode communication is unblocked.
    nodes_per_supernode: int = 256
    #: NIC bandwidth per node, bits per second (200 Gbps).
    nic_bits_per_s: float = 200e9
    #: Fat-tree oversubscription for traffic leaving a supernode.
    fat_tree_oversubscription: float = 8.0
    #: Base latency of one point-to-point message, seconds.
    p2p_latency_s: float = 2.0e-6
    #: Additional per-hop software/collective latency, seconds.
    hop_latency_s: float = 0.5e-6
    #: The processor at every node.
    chip: ChipSpec = field(default=SW26010_PRO)
    #: Work-scale extrapolation factor K (DESIGN.md §2): each counted work
    #: unit of the simulated problem represents K units of a paper-scale
    #: problem.  Volume-derived times are left as counted while fixed
    #: overheads (collective latency, kernel spawn, the MPE small-kernel
    #: threshold) divide by K, so ``K * T_simulated`` equals the estimated
    #: paper-scale time exactly — and simulated GTEPS computed from the
    #: small problem's edge count directly estimates the paper-scale GTEPS
    #: at the same node count.
    work_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if self.nodes_per_supernode < 1:
            raise ValueError("nodes_per_supernode must be >= 1")
        if self.fat_tree_oversubscription < 1:
            raise ValueError("oversubscription must be >= 1")
        if self.work_scale < 1:
            raise ValueError("work_scale must be >= 1")

    @property
    def nic_bytes_per_s(self) -> float:
        """Per-node injection bandwidth in bytes/second (25 GB/s)."""
        return self.nic_bits_per_s / 8.0

    @property
    def inter_supernode_bytes_per_s(self) -> float:
        """Per-node bandwidth available across the oversubscribed layer."""
        return self.nic_bytes_per_s / self.fat_tree_oversubscription

    @property
    def num_supernodes(self) -> int:
        return -(-self.num_nodes // self.nodes_per_supernode)

    def supernode_of(self, node: np.ndarray | int) -> np.ndarray:
        """Supernode index of each node."""
        node = np.asarray(node, dtype=np.int64)
        if np.any((node < 0) | (node >= self.num_nodes)):
            raise ValueError("node index out of range")
        return node // self.nodes_per_supernode

    def same_supernode(self, a: np.ndarray | int, b: np.ndarray | int) -> np.ndarray:
        """Whether node pairs share a supernode (cheap path)."""
        return self.supernode_of(a) == self.supernode_of(b)

    def bandwidth_for(self, crosses_supernode: bool) -> float:
        """Effective per-node bandwidth for one traffic class."""
        if crosses_supernode:
            return self.inter_supernode_bytes_per_s
        return self.nic_bytes_per_s

    def collective_latency(self, participants: int) -> float:
        """Latency term of a tree-structured collective over P nodes."""
        if participants < 1:
            raise ValueError("participants must be >= 1")
        # ceil(log2 P) exactly, as an integer: (P - 1).bit_length().
        hops = (max(operator.index(participants), 2) - 1).bit_length()
        return self.p2p_latency_s + self.hop_latency_s * float(hops)

    def scaled_for(self, edges_per_node: float) -> "MachineSpec":
        """A copy whose work scale matches a small per-node problem.

        ``edges_per_node`` is the simulated problem's undirected edges per
        node; K = :data:`PAPER_EDGES_PER_NODE` / edges_per_node (floored
        at 1).  See :attr:`work_scale`.
        """
        if edges_per_node <= 0:
            raise ValueError("edges_per_node must be positive")
        from dataclasses import replace

        k = max(PAPER_EDGES_PER_NODE / edges_per_node, 1.0)
        return replace(self, work_scale=k)

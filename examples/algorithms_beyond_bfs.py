#!/usr/bin/env python3
"""SSSP and PageRank on the 1.5D partitioning (paper §8).

The discussion section claims the partitioning is "neutral to the graph
algorithm".  This example runs the Graph500 SSSP kernel and PageRank on
the same partitioned structure the BFS uses, and shows that their
communication profiles inherit the 1.5D placement (H2L/L2H messaging is
intra-row; L2L is two-stage forwarded; delegates reduce at the end).

Run:  python examples/algorithms_beyond_bfs.py
"""

import numpy as np

from repro.analysis.reporting import ascii_table, format_seconds
from repro.core import partition_graph
from repro.core.programs import generate_weights, pagerank, sssp
from repro.graph500.rmat import generate_edges
from repro.machine.network import MachineSpec
from repro.runtime.mesh import ProcessMesh

SCALE = 13


def main() -> None:
    n = 1 << SCALE
    src, dst = generate_edges(SCALE, seed=1)
    rows = cols = 4
    machine = MachineSpec(
        num_nodes=rows * cols, nodes_per_supernode=cols
    ).scaled_for(src.size / (rows * cols))
    mesh = ProcessMesh(rows, cols, machine=machine)
    part = partition_graph(src, dst, n, mesh, e_threshold=1024, h_threshold=128)
    print(f"partitioned SCALE {SCALE}: {part.class_sizes()}")

    # --- SSSP (Graph500 kernel 2b) -----------------------------------
    weights = generate_weights(src.size, seed=2)
    root = int(np.argmax(part.degrees))
    res = sssp(part, root, weights, edge_src=src, edge_dst=dst, machine=machine)
    reached = np.isfinite(res.distance)
    print(f"\nSSSP from hub {root}: reached {int(reached.sum()):,} vertices "
          f"in {res.num_iterations} rounds, {res.relaxations:,} relaxations, "
          f"simulated {format_seconds(res.total_seconds)}")
    far = int(np.argmax(np.where(reached, res.distance, -1)))
    print(f"  farthest vertex: {far} at weighted distance "
          f"{res.distance[far]:.3f}")

    # --- PageRank ------------------------------------------------------
    pr = pagerank(part, machine=machine, tol=1e-10)
    order = np.argsort(pr.ranks)[::-1][:5]
    print(f"\nPageRank: converged={pr.converged} in {pr.num_iterations} "
          f"iterations, simulated {format_seconds(pr.total_seconds)}")
    print(ascii_table(
        ["vertex", "rank", "degree", "class"],
        [
            [
                int(v), f"{pr.ranks[v]:.2e}", int(part.degrees[v]),
                {0: "L", 1: "H", 2: "E"}[int(part.vclass[v])],
            ]
            for v in order
        ],
        title="top-5 vertices by PageRank (hubs, as expected):",
    ))

    # communication profile inherited from the partitioning
    by_phase = {}
    for e in pr.ledger.comm_events:
        by_phase[e.phase] = by_phase.get(e.phase, 0.0) + e.total_bytes
    print("\nPageRank communication bytes by component: "
          + ", ".join(f"{k}={v / 1e6:.2f}MB" for k, v in sorted(by_phase.items())))


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Host cost of one BFS level on a ring lattice, against another tree.

A ring lattice (8 neighbours) has thousands of levels with tiny
frontiers, so a traversal's host time is the fixed cost of a level: the
level loop, the host hooks and the ledger's pricing.  This runs
ring traversals of this checkout's ``src/`` and, with ``--against DIR``,
of ``DIR/src`` in a second worker process, alternating which side goes
first in each pair.  A sample is one pass of ``--reps`` traversals and
reads its mean microseconds per level.  Prints each side's median and
quartiles and the ratio of the medians (against / head), and whether
both sides priced the traversal to the same simulated seconds and bytes.

    python tools/level_cost.py --log2 12 --mesh 4x4 --pairs 10 --against ../base

The graph is partitioned with the layer bench's class thresholds (E 128,
H 16) on a machine with one supernode per mesh row; every traversal
starts at vertex 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HEAD = Path(__file__).resolve().parent.parent
E_THRESHOLD, H_THRESHOLD = 128, 16


def worker(log2: int, rows: int, cols: int, reps: int) -> None:
    """Build the ring engine, report its traversal, then time one pass
    per line read from stdin."""
    import repro
    from repro.core.config import BFSConfig
    from repro.core.engine import DistributedBFS
    from repro.core.partition import partition_graph
    from repro.graphs.generators import ring_lattice_edges
    from repro.machine.network import MachineSpec
    from repro.runtime.mesh import ProcessMesh

    n = 1 << log2
    src, dst = ring_lattice_edges(n, neighbors=8)
    machine = MachineSpec(num_nodes=rows * cols, nodes_per_supernode=cols)
    mesh = ProcessMesh(rows, cols, machine=machine)
    part = partition_graph(
        src, dst, n, mesh, e_threshold=E_THRESHOLD, h_threshold=H_THRESHOLD
    )
    engine = DistributedBFS(
        part, machine=machine,
        config=BFSConfig(e_threshold=E_THRESHOLD, h_threshold=H_THRESHOLD),
    )
    first = engine.run(0)
    levels = first.num_iterations
    print(json.dumps({
        "package": str(Path(repro.__file__).parent),
        "levels": levels,
        "sim_seconds": repr(first.total_seconds),
        "sim_bytes": repr(first.ledger.total_bytes),
    }), flush=True)
    for _ in sys.stdin:
        start = time.perf_counter()
        for _ in range(reps):
            engine.run(0)
        elapsed = time.perf_counter() - start
        print(elapsed * 1e6 / (reps * levels), flush=True)


class Side:
    """One tree's worker process."""

    def __init__(self, name: str, tree: Path, args) -> None:
        self.name = name
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker", "--log2", str(args.log2),
             "--mesh", args.mesh, "--reps", str(args.reps)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{name}: the worker for {tree} did not start")
        self.info = json.loads(line)
        self.samples: list[float] = []

    def sample(self) -> None:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        self.samples.append(float(self.proc.stdout.readline()))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--log2", type=int, default=12, help="ring of 2**L vertices")
    parser.add_argument("--mesh", default="4x4", help="RxC")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--reps", type=int, default=3, help="traversals per sample")
    parser.add_argument("--against", type=Path, help="a checkout to compare with")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    rows, cols = (int(x) for x in args.mesh.lower().split("x"))
    if args.worker:
        worker(args.log2, rows, cols, args.reps)
        return 0
    if args.pairs < 1 or args.reps < 1:
        parser.error("--pairs and --reps must be at least 1")
    if args.against is not None and not (args.against / "src" / "repro").is_dir():
        parser.error(f"--against {args.against}: no src/repro there")

    sides = [Side("head", HEAD, args)]
    if args.against is not None:
        sides.append(Side("against", args.against.resolve(), args))
    try:
        for pair in range(args.pairs):
            for side in sides if pair % 2 == 0 else sides[::-1]:
                side.sample()
    finally:
        for side in sides:
            side.close()

    levels = sides[0].info["levels"]
    print(
        f"ring 2^{args.log2}, 8 neighbours, mesh {rows}x{cols}: {levels} levels; "
        f"{args.pairs} pairs of {args.reps}-traversal passes (us per level)"
    )
    for side in sides:
        q1, med, q3 = quartiles(side.samples)
        print(
            f"  {side.name:8s} median {med:8.2f}  q1 {q1:8.2f}  q3 {q3:8.2f}"
            f"  ({side.info['package']})"
        )
    if len(sides) == 2:
        head, against = sides
        ratio = statistics.median(against.samples) / statistics.median(head.samples)
        print(f"  ratio    {ratio:.3f}x (against / head)")
        keys = ("levels", "sim_seconds", "sim_bytes")
        same = all(head.info[k] == against.info[k] for k in keys)
        print(
            "  simulated clock: "
            + ("identical" if same else "DIFFERS: " + ", ".join(
                f"{k} {head.info[k]} vs {against.info[k]}" for k in keys
            ))
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

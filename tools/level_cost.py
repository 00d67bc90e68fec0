#!/usr/bin/env python
"""Host cost of a BFS level on a ring lattice, or of a traversal on an
R-MAT graph, against another tree.

A ring lattice (8 neighbours) has thousands of levels with tiny
frontiers, so a traversal's host time is the fixed cost of a level: the
level loop, the host hooks and the ledger's pricing.  An R-MAT graph
(``--rmat SCALE``) is the other end: a dozen levels, where the direction
optimisation fires and the push and pull bodies do the work.  This runs
traversals of this checkout's ``src/`` and, with ``--against DIR``, of
``DIR/src`` in a second worker process, alternating which side goes
first in each pair.  A sample is one pass of ``--reps`` traversals (of
every root, on R-MAT) and reads its mean microseconds per ring level or
milliseconds per R-MAT traversal.  Prints each side's median and
quartiles and the ratio of the medians (against / head), and whether
both sides priced the traversals to the same simulated seconds and
bytes.

    python tools/level_cost.py --log2 12 --mesh 4x4 --pairs 10 --against ../base
    python tools/level_cost.py --rmat 14 --mesh 4x4 --pairs 10 --against ../base

The graph is partitioned with the layer bench's class thresholds (E 128,
H 16) on a machine with one supernode per mesh row.  A ring traversal
starts at vertex 0; the R-MAT graph is the layer bench's instance of its
scale, and its 16 roots are Graph500 samples of a fixed seed.
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
#: The layer bench's R-MAT instance seed, the seed of the roots, and
#: how many roots an R-MAT pass traverses.
GRAPH_SEED, ROOT_SEED, RMAT_ROOTS = 20220402, 1, 16


def graph(args):
    """``(src, dst, n, label)`` of the graph asked for."""
    if args.rmat is not None:
        from repro.graph500.rmat import generate_edges

        src, dst = generate_edges(args.rmat, seed=GRAPH_SEED)
        return src, dst, 1 << args.rmat, f"R-MAT scale {args.rmat}"
    from repro.graphs.generators import ring_lattice_edges

    n = 1 << args.log2
    src, dst = ring_lattice_edges(n, neighbors=8)
    return src, dst, n, f"ring 2^{args.log2}, 8 neighbours"


def worker(args, rows: int, cols: int) -> None:
    """Build the engine, report its traversals, then time one pass per
    line read from stdin."""
    import numpy as np

    import repro
    from repro.core.config import BFSConfig
    from repro.core.engine import DistributedBFS
    from repro.core.partition import partition_graph
    from repro.graph500.driver import sample_roots
    from repro.machine.network import MachineSpec
    from repro.runtime.mesh import ProcessMesh

    src, dst, n, label = graph(args)
    machine = MachineSpec(num_nodes=rows * cols, nodes_per_supernode=cols)
    mesh = ProcessMesh(rows, cols, machine=machine)
    part = partition_graph(
        src, dst, n, mesh, e_threshold=E_THRESHOLD, h_threshold=H_THRESHOLD
    )
    engine = DistributedBFS(
        part, machine=machine,
        config=BFSConfig(e_threshold=E_THRESHOLD, h_threshold=H_THRESHOLD),
    )
    if args.rmat is None:
        roots = [0]
    else:
        rng = np.random.default_rng(ROOT_SEED)
        roots = [int(r) for r in sample_roots(part.degrees, RMAT_ROOTS, rng=rng)]
    first = [engine.run(root) for root in roots]
    levels = sum(r.num_iterations for r in first)
    print(json.dumps({
        "package": str(Path(repro.__file__).parent),
        "label": label,
        "roots": len(roots),
        "levels": levels,
        "sim_seconds": repr(sum(r.total_seconds for r in first)),
        "sim_bytes": repr(sum(r.ledger.total_bytes for r in first)),
    }), flush=True)
    # Microseconds per ring level, milliseconds per R-MAT traversal.
    unit = 1e6 / levels if args.rmat is None else 1e3 / len(roots)
    for _ in sys.stdin:
        start = time.perf_counter()
        for _ in range(args.reps):
            for root in roots:
                engine.run(root)
        print((time.perf_counter() - start) * unit / args.reps, flush=True)


class Side:
    """One tree's worker process."""

    def __init__(self, name: str, tree: Path, args) -> None:
        self.name = name
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        graph = ["--log2", str(args.log2)] if args.rmat is None else [
            "--rmat", str(args.rmat)
        ]
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker", *graph,
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
    parser.add_argument("--rmat", type=int, help="an R-MAT graph of this scale instead")
    parser.add_argument("--mesh", default="4x4", help="RxC")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--reps", type=int, default=3,
        help="passes per sample: one traversal of the ring, of every R-MAT root",
    )
    parser.add_argument("--against", type=Path, help="a checkout to compare with")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    rows, cols = (int(x) for x in args.mesh.lower().split("x"))
    if args.worker:
        worker(args, rows, cols)
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

    info = sides[0].info
    if args.rmat is None:
        unit, roots = "us per level", ""
    else:
        unit, roots = "ms per traversal", f"{info['roots']} roots, "
    print(
        f"{info['label']}, mesh {rows}x{cols}: {roots}{info['levels']} levels; "
        f"{args.pairs} pairs of {args.reps}-rep passes ({unit})"
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

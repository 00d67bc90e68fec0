#!/usr/bin/env python
"""Host cost of a batch of one against a single-source run.

Serving answers most requests with a one-lane ``run_batch``; this times
that against ``run`` on the same roots of one engine.  Each pair runs
one pass of ``run(r)`` and one pass of ``run_batch([r])`` over the same
roots, alternating which goes first, and a pass reports its mean
milliseconds per traversal.  Prints each side's median and quartiles
over the passes and the ratio of the medians (batch / single).

    PYTHONPATH=src python tools/one_lane_ratio.py --scale 14 --mesh 4x4 --pairs 10

The graph is R-MAT at ``--scale`` with the layer bench's class
thresholds (E 128, H 16) on the serving machine model; the parents of
both sides are compared once before timing.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import numpy as np

from repro.core.engine import DistributedBFS
from repro.core.setup import build_setup
from repro.graph500.driver import sample_roots

#: The layer bench's graph seed and class thresholds.
GRAPH_SEED = 20220402
E_THRESHOLD, H_THRESHOLD = 128, 16
#: Roots per pass.
ROOTS = 64


def quartiles(values) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def timed_pass(call, roots) -> float:
    """Mean milliseconds per traversal of ``call`` over ``roots``."""
    start = time.perf_counter()
    for root in roots:
        call(root)
    return (time.perf_counter() - start) * 1e3 / len(roots)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", type=int, default=14)
    parser.add_argument("--mesh", default="4x4", help="RxC")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7, help="draws the roots")
    args = parser.parse_args(argv)
    rows, cols = (int(x) for x in args.mesh.lower().split("x"))
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    setup = build_setup(
        args.scale, rows, cols, seed=GRAPH_SEED,
        e_threshold=E_THRESHOLD, h_threshold=H_THRESHOLD, weak_scaled=False,
    )
    part = setup.partition()
    engine = DistributedBFS(part, machine=setup.machine, config=setup.config())
    roots = sample_roots(
        part.degrees, ROOTS, rng=np.random.default_rng(args.seed)
    ).tolist()
    for root in roots[:4]:
        if not np.array_equal(engine.run(root).parent, engine.run_batch([root]).parent[0]):
            print(f"error: run_batch([{root}]) differs from run({root})", file=sys.stderr)
            return 1

    sides = {
        "single": lambda r: engine.run(r),
        "batch1": lambda r: engine.run_batch([r]),
    }
    passes = {name: [] for name in sides}
    for pair in range(args.pairs):
        order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
        for name in order:
            passes[name].append(timed_pass(sides[name], roots))

    print(
        f"scale {args.scale} mesh {rows}x{cols}: {args.pairs} pairs of "
        f"{len(roots)}-root passes (ms per traversal)"
    )
    for name, values in passes.items():
        q1, med, q3 = quartiles(values) if len(values) > 1 else (values[0],) * 3
        print(f"  {name:7s} median {med:7.3f}  q1 {q1:7.3f}  q3 {q3:7.3f}")
    ratio = statistics.median(passes["batch1"]) / statistics.median(passes["single"])
    print(f"  ratio   {ratio:.3f}x (batch of one / single source)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""A conforming-style Graph500 run: kernels 1 + 2 with official output.

Runs generation, construction (priced as the §5 in-place global sort),
BFS from sampled roots with full validation, and prints the official
result block (the same fields a Graph500 submission reports).

Run:  python examples/graph500_official_run.py [scale] [num_roots]
"""

import sys

from repro.graph500.driver import run_graph500


def main(scale: int = 13, num_roots: int = 16) -> None:
    rows = cols = 4
    print(f"Graph500 run: SCALE {scale}, {rows * cols} simulated nodes, "
          f"{num_roots} roots\n")
    report = run_graph500(
        scale, rows, cols, seed=1, num_roots=num_roots,
        e_threshold=1024, h_threshold=128,
    )
    print(f"kernel 1: construction, simulated "
          f"{report.construction_seconds * 1e3:.3f} ms")
    print(f"kernel 2: BFS from {num_roots} sampled roots (validated)\n")
    print(report.render())
    print(f"\nharmonic-mean performance: {report.mean_gteps:.2f} simulated GTEPS")


if __name__ == "__main__":
    scale = int(sys.argv[1]) if len(sys.argv) > 1 else 13
    roots = int(sys.argv[2]) if len(sys.argv) > 2 else 16
    main(scale, roots)

"""The Graph500 benchmark's two kernels + construction on the 1.5D system.

Not a paper figure, but the paper's result *is* a Graph500 submission:
this bench runs the official flow end to end — kernel 1 (construction,
priced as the §5 in-place global sort), kernel 2 (BFS over sampled
roots with validation), and the SSSP kernel the benchmark also defines —
and prints the official statistics block.
"""

import numpy as np

from conftest import emit

from repro.analysis.reporting import ascii_table, format_seconds
from repro.graph500.driver import run_graph500, run_graph500_sssp

SCALE, ROWS, COLS = 13, 4, 4
NUM_ROOTS = 8
THRESHOLDS = dict(e_threshold=1024, h_threshold=128)


def test_graph500_full_flow(benchmark, results_dir):
    def run():
        report = run_graph500(
            SCALE, ROWS, COLS, seed=1, num_roots=NUM_ROOTS, **THRESHOLDS
        )
        sssp = run_graph500_sssp(
            SCALE, ROWS, COLS, seed=1, num_roots=NUM_ROOTS, algorithm="sssp",
            **THRESHOLDS,
        )
        return report, sssp

    report, sssp = benchmark.pedantic(run, rounds=1, iterations=1)

    block = report.render()
    extra = ascii_table(
        ["kernel", "simulated time", "metric"],
        [
            ["1 (construction)", format_seconds(report.construction_seconds),
             f"{report.problem.num_edges:,} edges"],
            ["2 (BFS, harmonic mean)", format_seconds(float(np.mean(report.bfs_times))),
             f"{report.mean_gteps:.1f} GTEPS"],
            ["3 (SSSP, harmonic mean)", format_seconds(float(np.mean(sssp.bfs_times))),
             f"{sum(r.info['relaxations'] for r in sssp.results):,} relaxations"],
        ],
        title="",
    )
    emit(results_dir, "graph500_kernels", block + "\n" + extra)

    assert report.validated
    assert sssp.validated
    assert report.roots.size == NUM_ROOTS
    assert report.construction_seconds > 0
    # Same seed, same roots; per root, SSSP converged to finite distances
    # on the root's component and took at least the BFS depth in rounds.
    assert np.array_equal(sssp.roots, report.roots)
    for wres, bfs in zip(sssp.results, report.results):
        assert np.isfinite(wres.state["distance"][wres.info["root"]])
        assert wres.num_iterations >= bfs.num_iterations - 1
    benchmark.extra_info["harmonic_mean_gteps"] = round(report.mean_gteps, 2)

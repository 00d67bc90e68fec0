"""The Graph500 benchmark's two kernels + construction on the 1.5D system.

Not a paper figure, but the paper's result *is* a Graph500 submission:
this bench runs the official flow end to end — kernel 1 (construction
via the §5 in-place global sort pipeline), kernel 2 (BFS over sampled
roots with validation), and the SSSP kernel the benchmark also defines —
and prints the official statistics block.
"""

import numpy as np

from conftest import emit

from repro.analysis.reporting import ascii_table, format_seconds
from repro.core.programs import generate_weights, sssp
from repro.core.preprocessing import preprocess
from repro.graph500.driver import run_graph500
from repro.graph500.rmat import generate_edges
from repro.machine.network import MachineSpec
from repro.runtime.mesh import ProcessMesh

SCALE, ROWS, COLS = 13, 4, 4
NUM_ROOTS = 8


def test_graph500_full_flow(benchmark, results_dir):
    def run():
        # kernel 1 through the executed preprocessing pipeline
        src, dst = generate_edges(SCALE, seed=1)
        p = ROWS * COLS
        machine = MachineSpec(
            num_nodes=p, nodes_per_supernode=COLS
        ).scaled_for(src.size / p)
        mesh = ProcessMesh(ROWS, COLS, machine=machine)
        part, prep = preprocess(
            src, dst, 1 << SCALE, mesh,
            e_threshold=1024, h_threshold=128, machine=machine,
        )
        report = run_graph500(
            SCALE, ROWS, COLS, seed=1, num_roots=NUM_ROOTS,
            e_threshold=1024, h_threshold=128,
            machine=machine,
            construction_seconds=prep.construction_seconds,
        )
        wres = sssp(
            part,
            int(report.roots[0]),
            generate_weights(src.size, seed=2),
            edge_src=src,
            edge_dst=dst,
            machine=machine,
        )
        return report, prep, wres

    report, prep, wres = benchmark.pedantic(run, rounds=1, iterations=1)

    block = report.render()
    extra = ascii_table(
        ["kernel", "simulated time", "metric"],
        [
            ["1 (construction)", format_seconds(prep.construction_seconds),
             f"{prep.num_arcs:,} arcs sorted"],
            ["2 (BFS, harmonic mean)", format_seconds(float(np.mean(report.bfs_times))),
             f"{report.mean_gteps:.1f} GTEPS"],
            ["SSSP (one root)", format_seconds(wres.total_seconds),
             f"{wres.relaxations:,} relaxations"],
        ],
        title="",
    )
    emit(results_dir, "graph500_kernels", block + "\n" + extra)

    assert report.validated
    assert report.roots.size == NUM_ROOTS
    assert prep.construction_seconds > 0
    # SSSP converged to finite distances on the root's component
    assert np.isfinite(wres.distance[wres.root])
    assert wres.num_iterations >= report.results[0].num_iterations - 1
    benchmark.extra_info["harmonic_mean_gteps"] = round(report.mean_gteps, 2)

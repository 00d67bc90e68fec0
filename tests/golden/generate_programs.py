"""Regenerate the vertex-program golden record.

``programs_golden.json`` freezes the *output values* of the weighted
algorithms on a seeded SCALE-10 R-MAT graph: exact distance/parent
arrays for Bellman-Ford and delta-stepping SSSP (several roots, several
deltas), exact rank vectors for PageRank, plus the iteration / bucket /
phase / relaxation counters.  It was captured from the pre-vertex-
program implementations (the bespoke sweep loops that used to live in
``core/algorithms.py`` and ``core/delta_stepping.py``) and guards that
the re-mounted :mod:`repro.core.programs` implementations reproduce
them **bit-for-bit** through the shared scheduler.

Floats round-trip exactly through JSON ``repr`` (including
``Infinity``), so ``==`` on the decoded structures is a bit-level
comparison of every distance and rank.

Run from the repo root::

    PYTHONPATH=src:tests python tests/golden/generate_programs.py

Only regenerate when a PR *intentionally* changes algorithm outputs;
the diff of this file is then the reviewable behaviour change.
"""

import json
import sys
from pathlib import Path

import numpy as np

from repro.core import (
    DistributedBFS,
    build_program,
    generate_weights,
    partition_graph,
)
from repro.graph500.rmat import generate_edges
from repro.machine.network import MachineSpec
from repro.runtime.mesh import ProcessMesh

SCALE = 10
SEED = 7
E_THR = 128
H_THR = 16


def build_system():
    src, dst = generate_edges(SCALE, seed=SEED)
    n = 1 << SCALE
    machine = MachineSpec(num_nodes=4, nodes_per_supernode=2)
    mesh = ProcessMesh(2, 2, machine=machine)
    part = partition_graph(
        src, dst, n, mesh, e_threshold=E_THR, h_threshold=H_THR
    )
    hub = int(np.argmax(part.degrees))
    weights = generate_weights(src.size, seed=SEED + 1)
    return src, dst, part, machine, hub, weights


def _sssp_record(res):
    return {
        "root": int(res.info["root"]),
        "distance": res.state["distance"].tolist(),
        "parent": res.state["parent"].tolist(),
        "num_iterations": int(res.num_iterations),
        "relaxations": int(res.info["relaxations"]),
    }


def _delta_record(res):
    return {
        "root": int(res.info["root"]),
        "distance": res.state["distance"].tolist(),
        "parent": res.state["parent"].tolist(),
        "delta": float(res.info["delta"]),
        "num_buckets": int(res.info["num_buckets"]),
        "num_phases": int(res.num_iterations),
        "relaxations": int(res.info["relaxations"]),
    }


def _pagerank_record(res):
    return {
        "ranks": res.state["ranks"].tolist(),
        "num_iterations": int(res.num_iterations),
        "converged": bool(res.converged),
    }


def capture():
    src, dst, part, machine, hub, weights = build_system()
    engine = DistributedBFS(part, machine=machine)

    def run(name, **params):
        return engine.run_program(build_program(name, part, **params))

    weighted = {"weights": weights, "edge_src": src, "edge_dst": dst}
    record = {
        "scale": SCALE,
        "seed": SEED,
        "e_threshold": E_THR,
        "h_threshold": H_THR,
        "weights_seed": SEED + 1,
        "hub": hub,
    }
    record["bellman_ford_unit"] = _sssp_record(run("sssp", root=hub))
    for key, root in (("bellman_ford_hub", hub), ("bellman_ford_r3", 3)):
        record[key] = _sssp_record(run("sssp", root=root, **weighted))
    record["delta_default_hub"] = _delta_record(
        run("sssp-delta", root=hub, **weighted)
    )
    record["delta_fixed_r3"] = _delta_record(
        run("sssp-delta", root=3, delta=0.1, **weighted)
    )
    record["pagerank"] = _pagerank_record(
        run("pagerank", tol=1e-10, max_iterations=200)
    )
    record["pagerank_capped"] = _pagerank_record(
        run("pagerank", tol=0.0, max_iterations=5)
    )
    return record


if __name__ == "__main__":
    out = Path(__file__).with_name("programs_golden.json")
    out.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {out}\n")

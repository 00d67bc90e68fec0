"""Regenerate the engine-equivalence golden record.

The golden record freezes the observable behaviour of every traversal
engine on a seeded SCALE-10 R-MAT graph: per-iteration directions,
scanned-arc counts, frontier sizes, and the ledger's total seconds and
bytes (exact float repr, compared bit-for-bit).  It was captured from
the pre-kernel-refactor engines and guards that the shared
``LevelSyncScheduler``/``ComponentKernel`` layer reproduces them
exactly.

Run from the repo root::

    PYTHONPATH=src:tests python tests/golden/generate.py

Only regenerate when a PR *intentionally* changes modeled behaviour;
the diff of this file is then the reviewable behaviour change.
"""

import json
import sys
from pathlib import Path

import numpy as np

from repro.baselines import DelegatedOneDimBFS, OneDimBFS, TwoDimBFS
from repro.core import BFSConfig, DistributedBFS, partition_graph
from repro.graph500.rmat import generate_edges
from repro.machine.network import MachineSpec
from repro.runtime.mesh import ProcessMesh
from repro.runtime.replay import ReplayBFS

SCALE = 10
SEED = 7
E_THR = 128
H_THR = 16

#: The three 1.5D engine configurations the record pins.
ENGINE_CONFIGS = {
    "engine_default": BFSConfig(e_threshold=E_THR, h_threshold=H_THR),
    "engine_whole_iteration": BFSConfig(
        e_threshold=E_THR, h_threshold=H_THR, sub_iteration_direction=False
    ),
    "engine_eager_reduction": BFSConfig(
        e_threshold=E_THR, h_threshold=H_THR, delayed_reduction=False
    ),
}


def build_system():
    src, dst = generate_edges(SCALE, seed=SEED)
    n = 1 << SCALE
    machine = MachineSpec(num_nodes=4, nodes_per_supernode=2)
    mesh = ProcessMesh(2, 2, machine=machine)
    part = partition_graph(
        src, dst, n, mesh, e_threshold=E_THR, h_threshold=H_THR
    )
    root = int(np.argmax(part.degrees))
    return src, dst, n, mesh, machine, part, root


def run_record(result):
    return {
        "root": result.root,
        "num_iterations": result.num_iterations,
        "num_visited": result.num_visited,
        "total_seconds": result.total_seconds,
        "total_bytes": result.ledger.total_bytes,
        "num_comm_events": len(result.ledger.comm_events),
        "num_compute_events": len(result.ledger.compute_events),
        "iterations": [
            {
                "frontier_size": rec.frontier_size,
                "directions": dict(rec.directions),
                "scanned_arcs": dict(rec.scanned_arcs),
                "messages": dict(rec.messages),
                "newly_activated": dict(rec.newly_activated),
            }
            for rec in result.iterations
        ],
    }


def capture():
    src, dst, n, mesh, machine, part, root = build_system()
    record = {
        "scale": SCALE,
        "seed": SEED,
        "e_threshold": E_THR,
        "h_threshold": H_THR,
        "root": root,
    }

    for name, cfg in ENGINE_CONFIGS.items():
        engine = DistributedBFS(part, machine=machine, config=cfg)
        record[name] = run_record(engine.run(root))

    for name, cls in (
        ("baseline_1d", OneDimBFS),
        ("baseline_1d_delegated", DelegatedOneDimBFS),
        ("baseline_2d", TwoDimBFS),
    ):
        engine = cls(src, dst, n, mesh, machine=machine)
        record[name] = run_record(engine.run(root))

    replay_res = ReplayBFS(part, machine=machine).run(root)
    record["replay"] = {
        "root": replay_res.root,
        "num_iterations": replay_res.num_iterations,
        "messages_sent": replay_res.messages_sent,
        "total_seconds": replay_res.ledger.total_seconds,
        "total_bytes": replay_res.ledger.total_bytes,
        "num_comm_events": len(replay_res.ledger.comm_events),
        "num_visited": int(np.count_nonzero(replay_res.parent >= 0)),
    }
    return record


if __name__ == "__main__":
    out = Path(__file__).with_name("engine_golden.json")
    out.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {out}\n")

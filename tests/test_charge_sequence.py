"""Pin the *sequence* of ledger charges, not just their totals.

The other goldens pin sums (``sim_seconds``, ``sim_bytes``, the charge
count, per-phase seconds).  A change to the charging path — the code in
``core/kernels/fifteend.py`` that turns a selection or a scan into
``charge_compute`` / ``charge_collective`` calls — must also leave every
charge where it was *in order*: the ledger keeps ordered ``comm_events``
and ``compute_events``, so "same charges" is one ``==``.

For three small generated graphs (4×4 mesh with every class populated,
2×3 with E empty, 1×1) under four engine configs, each run's events are
folded into one sha256 over every field of every event, beside the event
counts: single-source BFS from a few roots, 64-lane waves of 1 / 3 / 64
lanes, and the four vertex programs.  The three baseline engines (1D,
1D with delegates, 2D) run the same roots on the same three graphs.
Compared with ``golden/charge_sequence.json``.

A change that is *meant* to move a charge regenerates the file with
``python tests/test_charge_sequence.py`` and says so in its PR.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "charge_sequence.json"

if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from repro.baselines import DelegatedOneDimBFS, OneDimBFS, TwoDimBFS
from repro.core.config import BFSConfig
from repro.core.engine import DistributedBFS
from repro.core.kernels.base import PushPullKernel
from repro.core.kernels.fifteend import _FifteenDKernel
from repro.core.partition import partition_graph
from repro.core.programs import build_program, generate_weights
from repro.core.subgraphs import SubgraphComponent
from repro.graph500.rmat import generate_edges
from repro.machine.network import MachineSpec
from repro.runtime.mesh import ProcessMesh
from repro.serve.msbfs import MultiSourceBFS

SEED = 7

#: name -> (scale, mesh rows, mesh cols, e_threshold, h_threshold)
GRAPHS = {
    "s11_4x4": (11, 4, 4, 128, 16),  # E, H and L all populated
    "s10_2x3_no_e": (10, 2, 3, 1 << 20, 8),  # E empty, non-square mesh
    "s9_1x1": (9, 1, 1, 64, 8),  # one rank: no row or column to sync
}

CONFIGS = {
    "default": {},
    "whole_iteration": {"sub_iteration_direction": False},
    "eager_reduction": {"delayed_reduction": False},
    # Every component pulls from the first level on, so the pull routes
    # of the messaging kernels (L2H above all) carry hits.
    "pull_biased": {"local_pull_threshold": 0.0, "cross_pull_bias": 1e6},
}

PROGRAMS = {
    "sssp": {"weighted": True},
    "sssp-delta": {"weighted": True},
    "pagerank": {"max_iterations": 8},
    "cc": {},
}

CASES = [f"{graph}/{config}" for graph in GRAPHS for config in CONFIGS]

BASELINES = (OneDimBFS, DelegatedOneDimBFS, TwoDimBFS)
BASELINE_CASES = [f"baselines/{graph}" for graph in GRAPHS]


def digest(ledger) -> dict:
    """One hash over every priced field of every event, comm first, in
    order.  A compute event's per-node ``items`` vector is not hashed
    (the golden predates it); it must add up to the ``total_items`` and
    peak at the ``max_items`` that are."""
    h = hashlib.sha256()
    for e in ledger.comm_events:
        row = (
            e.phase, e.kind.value, int(e.participants),
            float(e.max_bytes_intra), float(e.max_bytes_inter),
            float(e.total_bytes), float(e.seconds),
        )
        h.update(repr(row).encode())
    for c in ledger.compute_events:
        assert (sum(c.items), max(c.items, default=0)) == (c.total_items, c.max_items)
        row = (
            c.phase, c.kernel, int(c.max_items), int(c.total_items),
            float(c.seconds), float(c.imbalance_seconds),
        )
        h.update(repr(row).encode())
    return {
        "sha256": h.hexdigest(),
        "comm_events": len(ledger.comm_events),
        "compute_events": len(ledger.compute_events),
    }


def build_case(case: str):
    """``(src, dst, part, machine, config, roots, lanes)`` of one
    ``graph/config`` case: the BFS roots and the 64 wave lanes."""
    graph, config_name = case.split("/")
    scale, rows, cols, e_thr, h_thr = GRAPHS[graph]
    src, dst = generate_edges(scale, seed=SEED)
    n = 1 << scale
    machine = MachineSpec(
        num_nodes=rows * cols, nodes_per_supernode=min(2, rows * cols)
    )
    mesh = ProcessMesh(rows, cols, machine=machine)
    part = partition_graph(
        src, dst, n, mesh, e_threshold=e_thr, h_threshold=h_thr
    )
    config = BFSConfig(
        e_threshold=e_thr, h_threshold=h_thr, **CONFIGS[config_name]
    )
    by_degree = np.argsort(-part.degrees, kind="stable")
    # The hub, a mid-degree vertex, a light one and vertex 3.
    roots = [int(by_degree[0]), int(by_degree[n // 8]), int(by_degree[n // 2]), 3]
    lanes = [int(v) for v in by_degree[: 64 * 4 : 4]]
    return src, dst, part, machine, config, roots, lanes


def charge_sequences(case: str) -> dict:
    src, dst, part, machine, config, roots, lanes = build_case(case)
    out = {}
    bfs = DistributedBFS(part, machine=machine, config=config)
    for root in roots:
        out[f"bfs/root{root}"] = digest(bfs.run(root).ledger)
    msbfs = MultiSourceBFS(part, machine=machine, config=config)
    for k in (1, 3, 64):
        out[f"msbfs/{k}"] = digest(msbfs.run_batch(lanes[:k]).ledger)
    weights = generate_weights(src.size, seed=SEED + 1)
    for name, params in PROGRAMS.items():
        params = dict(params)
        if params.pop("weighted", False):
            params.update(
                root=roots[0], weights=weights, edge_src=src, edge_dst=dst
            )
        program = build_program(name, part, **params)
        out[f"program/{name}"] = digest(bfs.run_program(program).ledger)
    return out


def baseline_charge_sequences(case: str) -> dict:
    """Each baseline engine's BFS from the graph's four roots, under the
    default config (whole-iteration direction, so push and pull levels
    both run)."""
    graph = case.split("/")[1]
    src, dst, part, machine, _, roots, _ = build_case(f"{graph}/default")
    out = {}
    for cls in BASELINES:
        engine = cls(src, dst, part.num_vertices, part.mesh, machine=machine)
        for root in roots:
            out[f"{cls.scheme}/root{root}"] = digest(engine.run(root).ledger)
    return out


@pytest.mark.parametrize("case", CASES)
def test_charge_sequence_matches_golden(case):
    golden = json.loads(GOLDEN.read_text())[case]
    assert len(golden) == 4 + 3 + len(PROGRAMS)
    assert charge_sequences(case) == golden


@pytest.mark.parametrize("case", BASELINE_CASES)
def test_baseline_charge_sequence_matches_golden(case):
    golden = json.loads(GOLDEN.read_text())[case]
    assert len(golden) == 4 * len(BASELINES)
    assert baseline_charge_sequences(case) == golden


def test_empty_pull_skip_keeps_the_charges(monkeypatch):
    """A pull whose destination class is all visited returns the empty
    scan without reading a group; the ledger is charged exactly what
    the scan it skips would charge.  Under ``pull_biased`` L2H pulls at
    every level, so also after every H vertex is visited."""
    _, _, part, machine, config, roots, _ = build_case("s11_4x4/pull_biased")
    engine = DistributedBFS(part, machine=machine, config=config)
    calls = {"bodies": 0, "scans": 0}
    body, scan = _FifteenDKernel.pull_body, SubgraphComponent.pull_scan

    def counted_body(kernel, active, visited):
        calls["bodies"] += kernel.name == "L2H"
        return body(kernel, active, visited)

    def counted_scan(comp, candidate, active, scratch):
        calls["scans"] += comp.name == "L2H"
        return scan(comp, candidate, active, scratch)

    with monkeypatch.context() as patch:
        patch.setattr(_FifteenDKernel, "pull_body", counted_body)
        patch.setattr(SubgraphComponent, "pull_scan", counted_scan)
        skipping = [engine.run(root) for root in roots]
    assert calls["bodies"] > calls["scans"]  # some L2H pull was skipped
    monkeypatch.setattr(_FifteenDKernel, "pull_body", PushPullKernel.pull_body)
    for got in skipping:
        want = engine.run(got.root)
        assert digest(got.ledger) == digest(want.ledger)
        assert np.array_equal(got.parent, want.parent)


if __name__ == "__main__":
    sequences = {c: charge_sequences(c) for c in CASES}
    sequences.update({c: baseline_charge_sequences(c) for c in BASELINE_CASES})
    GOLDEN.write_text(json.dumps(sequences, indent=2) + "\n")

"""Parameter-sweep studies beyond the paper's own figures.

These drivers probe claims the paper makes in prose:

- :func:`run_oversubscription_sweep` — §6.1.1: "with our 3-level
  degree-aware 1.5D partitioning, we greatly reduce the network traffic
  crossing supernodes, avoiding the bottleneck in the top-level tree
  network".  Sweeping the fat-tree oversubscription factor quantifies
  that: 1.5D's time should be nearly flat in the oversubscription while
  2D (whose column syncs cross supernodes every iteration) and 1D (whose
  messages are global) degrade.
- :func:`run_strong_scaling` — fixed problem, growing mesh: the regime
  the paper does not show (it scales weakly); useful for downstream
  users sizing a machine for a fixed graph.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.experiments import build_setup, run_15d
from repro.baselines import DelegatedOneDimBFS, OneDimBFS, TwoDimBFS

__all__ = ["run_oversubscription_sweep", "run_strong_scaling"]


def run_oversubscription_sweep(
    scale: int = 14,
    rows: int = 8,
    cols: int = 8,
    *,
    factors: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0),
    seed: int = 1,
) -> list[dict]:
    """Simulated time of each scheme vs fat-tree oversubscription.

    Returns one row per (factor, method) with the total seconds and the
    inter-supernode byte volume (which is method-determined and factor-
    independent — only its *price* changes).
    """
    base = build_setup(scale, rows, cols, seed=seed)
    out = []
    for factor in factors:
        setup = base.on_machine(
            replace(base.machine, fat_tree_oversubscription=factor)
        )
        for cls in (OneDimBFS, DelegatedOneDimBFS, TwoDimBFS):
            res = cls(
                setup.src, setup.dst, setup.num_vertices, setup.mesh,
                machine=setup.machine,
            ).run(setup.root)
            out.append(
                {
                    "oversubscription": factor,
                    "method": cls.scheme,
                    "seconds": res.total_seconds,
                    "inter_bytes": _inter_bytes(res),
                }
            )
        _, res = run_15d(setup)
        out.append(
            {
                "oversubscription": factor,
                "method": "1.5D (ours)",
                "seconds": res.total_seconds,
                "inter_bytes": _inter_bytes(res),
            }
        )
    return out


def _inter_bytes(res) -> float:
    return float(sum(e.max_bytes_inter for e in res.ledger.comm_events))


def run_strong_scaling(
    scale: int = 14,
    meshes: tuple[tuple[int, int], ...] = ((2, 2), (4, 4), (8, 8), (16, 16)),
    *,
    seed: int = 1,
) -> list[dict]:
    """Fixed SCALE, growing mesh: speedup and efficiency per point."""
    out = []
    base_seconds = None
    for rows, cols in meshes:
        setup = build_setup(scale, rows, cols, seed=seed)
        part, res = run_15d(setup)
        if base_seconds is None:
            base_seconds = res.total_seconds * (rows * cols)
        nodes = rows * cols
        speedup = base_seconds / nodes / res.total_seconds * nodes
        out.append(
            {
                "nodes": nodes,
                "seconds": res.total_seconds,
                "gteps": setup.num_edges / res.total_seconds / 1e9,
                "speedup_vs_smallest": (
                    out[0]["seconds"] / res.total_seconds if out else 1.0
                ),
                "efficiency": (
                    out[0]["seconds"]
                    / res.total_seconds
                    / (nodes / (meshes[0][0] * meshes[0][1]))
                    if out
                    else 1.0
                ),
            }
        )
    return out

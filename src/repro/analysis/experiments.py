"""Experiment drivers: one entry point per paper table/figure.

Each function builds the workload, runs the engines, and returns plain
data (rows / series) that the benchmark harness prints and the examples
reuse.  Scales are laptop-feasible; machines use the work-scale
extrapolation (DESIGN.md §2) so fixed overheads are priced as they would
be at paper-scale per-node work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines import DelegatedOneDimBFS, OneDimBFS, TwoDimBFS
from repro.core import DistributedBFS
from repro.core.metrics import BFSRunResult
from repro.core.partition import PartitionedGraph
from repro.core.setup import ExperimentSetup, build_setup, tuned_thresholds
from repro.resilience import build_resilience, run_with_recovery

__all__ = [
    "ExperimentSetup",
    "ScalingPoint",
    "build_setup",
    "tuned_thresholds",
    "run_15d",
    "run_partition_comparison",
    "run_scaling_sweep",
    "run_threshold_grid",
    "run_ablation",
]

#: Default weak-scaling ladder: (scale, rows, cols) with constant
#: per-rank work (paper Fig. 9 uses 256..103912 nodes at SCALE 35..44).
DEFAULT_LADDER = ((12, 4, 4), (14, 8, 8), (16, 16, 16), (18, 32, 32))


def run_15d(
    setup: ExperimentSetup,
    *,
    e_threshold: int | None = None,
    h_threshold: int | None = None,
    config_overrides: dict | None = None,
    tracer=None,
    metrics=None,
    faults=None,
    checkpoint_every: int = 0,
    max_restarts: int = 3,
    recovery_mode: str = "restart",
) -> tuple[PartitionedGraph, BFSRunResult]:
    """Partition + run the 1.5D engine once; returns (partition, result).

    ``e_threshold``/``h_threshold`` override the setup's (one left
    ``None`` keeps the setup's own).

    ``tracer`` (a :class:`~repro.obs.tracer.Tracer`) records the run's
    span tree for the Fig. 10/11 aggregations in
    :mod:`repro.analysis.timeline`; ``metrics`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) accumulates the
    aggregate metric families.

    ``faults`` (a spec string, :class:`~repro.resilience.faults.FaultPlan`
    or ready injector) plus ``checkpoint_every``/``max_restarts``/
    ``recovery_mode`` configure the
    :func:`repro.resilience.recovery.run_with_recovery` every run goes
    through (a fault-free run is its one plain attempt); the recovery
    accounting is attached to the result as ``result.resilient``
    (a :class:`~repro.resilience.recovery.ResilientRunResult`).
    """
    setup = setup.with_thresholds(e_threshold, h_threshold)
    part = setup.partition()
    engine = DistributedBFS(
        part, machine=setup.machine,
        config=setup.config(**(config_overrides or {})),
        tracer=tracer, metrics=metrics,
    )
    run, policy = build_resilience(
        faults, checkpoint_every=checkpoint_every, max_restarts=max_restarts,
        recovery_mode=recovery_mode, mesh=setup.mesh,
        rng=np.random.default_rng(setup.scale), context=engine.context,
    )
    recovered = run_with_recovery(
        engine, setup.root, faults=run.faults, checkpointer=run.checkpointer,
        policy=policy, metrics=run.metrics,
    )
    recovered.result.resilient = recovered
    return part, recovered.result


# ----------------------------------------------------------------------
# Table 1: partitioning methods compared on equal footing
# ----------------------------------------------------------------------


def _delegate_state_bytes(scheme: str, engine_or_part, mesh) -> float:
    """Per-node delegate state (bits + 8-byte parents) a scheme maintains.

    This is the §2.3 scalability-wall metric Table 1's history reflects.
    """
    if scheme == "1D":
        return 0.0
    if scheme == "1D+delegates":
        return engine_or_part.num_heavy * 8.125
    if scheme == "2D":
        n = engine_or_part.num_vertices
        per_rank = mesh.block_size(n)
        return (per_rank * mesh.rows + per_rank * mesh.cols) * 8.125
    # 1.5D: global E + column/row EH delegate state
    part = engine_or_part
    return (
        part.num_e
        + int(part.col_eh_counts.max(initial=0))
        + int(part.row_eh_counts.max(initial=0))
    ) * 8.125


def run_partition_comparison(
    points: tuple[tuple[int, int, int], ...] = DEFAULT_LADDER, *, seed: int = 1
) -> list[dict]:
    """All four partitioning methods across the weak-scaling ladder.

    Returns one row per (point, method): simulated GTEPS, per-node
    delegate state, communicated bytes.  The paper-shaped expectation:
    vanilla 1D trails everywhere; 1D+delegates in between; 2D competitive
    at small meshes but its sync volume and delegate state grow ~sqrt(P);
    1.5D leads at the largest point with the smallest delegate state.
    """
    rows_out = []
    for scale, rows, cols in points:
        setup = build_setup(scale, rows, cols, seed=seed)
        for cls in (OneDimBFS, DelegatedOneDimBFS, TwoDimBFS):
            engine = cls(
                setup.src, setup.dst, setup.num_vertices, setup.mesh,
                machine=setup.machine,
            )
            res = engine.run(setup.root)
            rows_out.append(
                {
                    "nodes": rows * cols,
                    "scale": scale,
                    "method": cls.scheme,
                    "gteps": setup.num_edges / res.total_seconds / 1e9,
                    "delegate_bytes_per_node": _delegate_state_bytes(
                        cls.scheme, engine, setup.mesh
                    ),
                    "comm_bytes": res.ledger.total_bytes,
                }
            )
        part, res = run_15d(setup)
        rows_out.append(
            {
                "nodes": rows * cols,
                "scale": scale,
                "method": "1.5D (ours)",
                "gteps": setup.num_edges / res.total_seconds / 1e9,
                "delegate_bytes_per_node": _delegate_state_bytes(
                    "1.5D", part, setup.mesh
                ),
                "comm_bytes": res.ledger.total_bytes,
            }
        )
    return rows_out


# ----------------------------------------------------------------------
# Figures 9/10/11: weak scaling and its breakdowns
# ----------------------------------------------------------------------


@dataclass
class ScalingPoint:
    """One weak-scaling measurement of the 1.5D engine."""

    nodes: int
    scale: int
    gteps: float
    seconds: float
    result: BFSRunResult = field(repr=False)
    partition: PartitionedGraph = field(repr=False)
    #: Span tree of the measured run (``trace=True`` sweeps only).
    trace: object = field(repr=False, default=None)


def run_scaling_sweep(
    points: tuple[tuple[int, int, int], ...] = DEFAULT_LADDER,
    *,
    seed: int = 1,
    trace: bool = False,
) -> list[ScalingPoint]:
    """Weak-scaling sweep of the full 1.5D engine (Fig. 9 data; the
    per-point results also carry Fig. 10/11 breakdowns).

    ``trace=True`` attaches a fresh :class:`~repro.obs.tracer.Tracer`
    per point so the figure benches can aggregate real spans instead of
    re-deriving breakdowns from the ledger.
    """
    from repro.obs.tracer import Tracer

    out = []
    for scale, rows, cols in points:
        tracer = Tracer() if trace else None
        setup = build_setup(scale, rows, cols, seed=seed)
        part, res = run_15d(setup, tracer=tracer)
        seconds = res.total_seconds
        out.append(
            ScalingPoint(
                nodes=rows * cols,
                scale=scale,
                gteps=setup.num_edges / seconds / 1e9,
                seconds=seconds,
                result=res,
                partition=part,
                trace=tracer,
            )
        )
    return out


# ----------------------------------------------------------------------
# Figure 12: threshold grid
# ----------------------------------------------------------------------


def run_threshold_grid(
    scale: int = 16,
    rows: int = 16,
    cols: int = 16,
    *,
    e_thresholds: tuple[int, ...] = (4096, 1024, 512, 128),
    h_thresholds: tuple[int, ...] = (1024, 512, 128, 32),
    seed: int = 1,
) -> list[dict]:
    """GTEPS over the (E, H) threshold grid.

    Cells with ``e < h`` are invalid (reported as 0.0, matching the
    zeroed cells of the paper's Fig. 12).
    """
    setup = build_setup(scale, rows, cols, seed=seed)
    out = []
    for e_thr in e_thresholds:
        for h_thr in h_thresholds:
            if e_thr < h_thr:
                out.append({"e": e_thr, "h": h_thr, "gteps": 0.0})
                continue
            _, res = run_15d(setup, e_threshold=e_thr, h_threshold=h_thr)
            out.append(
                {
                    "e": e_thr,
                    "h": h_thr,
                    "gteps": setup.num_edges / res.total_seconds / 1e9,
                }
            )
    return out


# ----------------------------------------------------------------------
# Figure 15: technique ablation
# ----------------------------------------------------------------------


def run_ablation(
    scale: int = 16, rows: int = 16, cols: int = 16, *, seed: int = 1
) -> list[tuple[str, dict]]:
    """Three optimization levels' time-by-direction breakdowns.

    (a) Baseline: whole-iteration direction, no segmenting;
    (b) + Sub-Iter.: sub-iteration direction, no segmenting;
    (c) + Segment.: both (the full system).
    """
    setup = build_setup(scale, rows, cols, seed=seed, root_kind="random")
    levels = [
        ("Baseline", dict(sub_iteration_direction=False, segmenting=False)),
        ("+ Sub-Iter.", dict(sub_iteration_direction=True, segmenting=False)),
        ("+ Segment.", dict(sub_iteration_direction=True, segmenting=True)),
    ]
    out = []
    for label, overrides in levels:
        _, res = run_15d(setup, config_overrides=overrides)
        out.append((label, res.time_by_direction()))
    return out

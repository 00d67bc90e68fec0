"""The chaos gate: a fault matrix against the fault-free golden run.

:func:`run_chaos_matrix` runs the Graph500 flow once without faults
and once per fault spec of the matrix, with checkpointing on, and
compares every recovered parent tree with the golden one.  The gate
passes when the golden run validates and every faulty run validates
and matches it bit for bit.  ``python -m repro chaos`` runs it; its
``--smoke`` pins the SCALE-10 configuration the CI chaos gate uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.resilience.faults import parse_fault_spec

if TYPE_CHECKING:  # pragma: no cover - the driver imports this package
    from repro.graph500.driver import Graph500Report

__all__ = ["DEFAULT_CHAOS_MATRIX", "ChaosReport", "run_chaos_matrix"]

#: The CI chaos gate's default scenarios: one of each recoverable
#: failure mode (crash + checkpoint restore, dropped message retries,
#: straggler slowdown).
DEFAULT_CHAOS_MATRIX = (
    "crash:rank=1,iter=2",
    "drop:phase=L2L,count=2,retries=2",
    "straggler:rank=0,factor=4,phase=EH2EH",
)


@dataclass
class ChaosReport:
    """One chaos gate: the golden run and one row per fault scenario."""

    #: The Graph500 configuration every run used.
    config: dict
    #: The fault-free :class:`~repro.graph500.driver.Graph500Report`.
    golden: Graph500Report
    #: Per scenario: spec, faults fired, crashes, restarts, retries,
    #: time overhead over the golden run, ``MATCH``/``DIFF``, ``ok``/``FAIL``.
    rows: list
    passed: bool

    def render(self) -> str:
        from repro.analysis.reporting import ascii_table

        cfg = self.config
        return "\n".join([
            f"golden: SCALE {cfg['scale']}, {cfg['rows']}x{cfg['cols']} mesh, "
            f"{self.golden.roots.size} roots, "
            f"validated={self.golden.validated}",
            ascii_table(
                ["fault spec", "fired", "crashes", "restarts", "retries",
                 "overhead", "parents", "validated"],
                self.rows,
                title="chaos matrix vs. fault-free golden run:",
            ),
            f"chaos gate: {'PASS' if self.passed else 'FAIL'}",
        ])


def run_chaos_matrix(
    matrix=DEFAULT_CHAOS_MATRIX, *, checkpoint_every: int = 1, **config
) -> ChaosReport:
    """Run ``matrix`` (fault spec strings) against the golden run.

    ``config`` is the :func:`~repro.graph500.driver.run_graph500`
    configuration (``scale``, ``rows``, ``cols``, ``seed``,
    ``num_roots``, thresholds); each faulty run checkpoints every
    ``checkpoint_every`` levels.
    """
    from repro.graph500.driver import run_graph500

    plans = [parse_fault_spec(spec) for spec in matrix]
    golden = run_graph500(**config)
    golden_time = float(golden.bfs_times.sum())
    passed = golden.validated
    rows = []
    for spec, plan in zip(matrix, plans):
        rep = run_graph500(**config, faults=plan,
                           checkpoint_every=checkpoint_every)
        match = (
            np.array_equal(rep.roots, golden.roots)
            and len(rep.results) == len(golden.results)
            and all(
                np.array_equal(a.parent, b.parent)
                for a, b in zip(golden.results, rep.results)
            )
        )
        passed &= match and rep.validated
        r = rep.resilience or {}
        overhead = 100.0 * (float(rep.bfs_times.sum()) / golden_time - 1.0)
        rows.append([
            spec,
            r.get("faults_fired", 0),
            r.get("crashes", 0),
            r.get("restarts", 0),
            r.get("retries", 0),
            f"{overhead:+.1f}%",
            "MATCH" if match else "DIFF",
            "ok" if rep.validated else "FAIL",
        ])
    return ChaosReport(config=dict(config), golden=golden, rows=rows,
                       passed=bool(passed))

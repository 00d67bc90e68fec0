"""PageRank as a deferred-apply vertex program.

Damped power iteration: each scheduler iteration is one full push sweep
— every component scatters rank mass along its arcs in the densest-first
1.5D order, so the sweep's communication profile matches a dense BFS
push iteration.  PageRank is the *deferred* archetype of the contract:
``combine`` accumulates contributions instead of reducing to a
per-destination winner, and the rank update (damping, dangling-mass
redistribution, L1 convergence test) happens once per iteration in
``end_iteration``.  Dangling-vertex mass is redistributed uniformly,
matching networkx's convention so tests can compare directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.partition import PartitionedGraph
from repro.core.programs.base import VertexProgram
from repro.machine.network import MachineSpec
from repro.runtime.ledger import TrafficLedger

__all__ = ["PageRankProgram", "PageRankResult", "pagerank"]


class PageRankProgram(VertexProgram):
    """Damped power iteration with uniform dangling redistribution."""

    name = "pagerank"
    #: A contribution message is one 8-byte rank value per arc.
    message_bytes = 8

    def __init__(
        self,
        *,
        damping: float = 0.85,
        tol: float = 1e-8,
        max_iterations: int = 100,
    ) -> None:
        super().__init__()
        if not 0.0 < damping < 1.0:
            raise ValueError("damping must be in (0, 1)")
        self.damping = float(damping)
        self.tol = float(tol)
        self.max_iterations = int(max_iterations)
        self.delta = float("inf")

    def _init_state(self) -> None:
        n = self.n
        degrees = self.part.degrees.astype(np.float64)
        self.out_deg = np.maximum(degrees, 1.0)
        self.dangling = degrees == 0
        self.ranks = np.full(n, 1.0 / n)
        self.delta = float("inf")

    def initial_frontier(self) -> np.ndarray:
        return np.ones(self.n, dtype=bool)

    def begin_iteration(self, iteration, active) -> None:
        self._contrib = self.ranks / self.out_deg
        self._incoming = np.zeros(self.n)

    def gather(self, src, dst):
        return src, dst, self._contrib[src]

    def combine(self, src, dst, msg):
        # Deferred: accumulate into the iteration's incoming-mass vector
        # (one float add per arc, in the kernels' push arc order so the
        # sums are bit-reproducible); apply happens in end_iteration.
        np.add.at(self._incoming, dst, msg)
        return None

    def end_iteration(self, iteration, active, touched):
        n = self.n
        dangling_mass = float(self.ranks[self.dangling].sum())
        new_rank = (1.0 - self.damping) / n + self.damping * (
            self._incoming + dangling_mass / n
        )
        self.delta = float(np.abs(new_rank - self.ranks).sum())
        self.ranks = new_rank
        if self.delta < self.tol:
            self.converged = True
            return None
        return np.ones(n, dtype=bool)

    def state_arrays(self):
        return {"ranks": self.ranks}

    def snapshot(self):
        return {
            "ranks": self.ranks.copy(),
            "control": np.array([self.delta], dtype=np.float64),
        }

    def restore(self, state):
        np.copyto(self.ranks, state["ranks"])
        self.delta = float(state["control"][0])

    def info(self):
        return {"damping": self.damping, "tol": self.tol, "delta": self.delta}


@dataclass
class PageRankResult:
    """Output of a distributed PageRank run."""

    ranks: np.ndarray
    num_iterations: int
    converged: bool
    ledger: TrafficLedger

    @property
    def total_seconds(self) -> float:
        return self.ledger.total_seconds


def pagerank(
    part: PartitionedGraph,
    *,
    damping: float = 0.85,
    tol: float = 1e-8,
    max_iterations: int = 100,
    machine: MachineSpec | None = None,
) -> PageRankResult:
    """Damped PageRank by power iteration over the six components."""
    from repro.core.engine import DistributedBFS

    program = PageRankProgram(
        damping=damping, tol=tol, max_iterations=max_iterations
    )
    engine = DistributedBFS(part, machine=machine)
    res = engine.run_program(program)
    return PageRankResult(
        ranks=res.state["ranks"],
        num_iterations=res.num_iterations,
        converged=res.converged,
        ledger=res.ledger,
    )

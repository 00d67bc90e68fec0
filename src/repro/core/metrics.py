"""Run metrics: everything the evaluation figures need from one BFS,
and the one result type of a batched multi-source wave
(:class:`MSBFSResult`).

:class:`BFSRunResult` carries the functional output (the parent array,
validatable against the Graph500 spec) plus the full per-iteration trace
and the priced ledger:

- Fig. 5  — :meth:`activation_trace` (newly activated fraction per class
  per iteration);
- Fig. 9  — :meth:`simulated_gteps`;
- Fig. 10 — :meth:`time_by_phase` (per-component + reduce + other);
- Fig. 11 — :meth:`time_by_category` (compute / imbalance / alltoallv /
  allgather / reduce-scatter);
- Fig. 15 — :meth:`time_by_direction` (EH2EH vs others, push vs pull).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.lanes import lane_bit
from repro.graph500.spec import Graph500Problem
from repro.machine.costmodel import CollectiveKind
from repro.obs.metrics import NULL_METRICS
from repro.runtime.ledger import TrafficLedger

__all__ = ["IterationRecord", "BFSRunResult", "MSBFSResult"]


@dataclass
class IterationRecord:
    """Trace of one BFS iteration."""

    index: int
    frontier_size: int
    #: Direction chosen per component this iteration.
    directions: dict[str, str] = field(default_factory=dict)
    #: Newly activated vertices per degree class (E/H/L).
    newly_activated: dict[str, int] = field(default_factory=dict)
    #: Arcs scanned per component.
    scanned_arcs: dict[str, int] = field(default_factory=dict)
    #: Remote messages generated per component.
    messages: dict[str, int] = field(default_factory=dict)


@dataclass
class BFSRunResult:
    """Functional + modeled outcome of one BFS run."""

    root: int
    parent: np.ndarray
    iterations: list[IterationRecord]
    ledger: TrafficLedger
    #: Total modeled seconds (ledger total at run end).
    total_seconds: float
    #: Undirected input edges traversed-equivalent (Graph500 counts the
    #: generator's edge count regardless of duplicates).
    num_input_edges: int
    #: The :class:`~repro.obs.metrics.MetricsRegistry` the run fed
    #: (:data:`~repro.obs.metrics.NULL_METRICS` when unmetered).
    metrics: object = field(default=NULL_METRICS, repr=False, compare=False)

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)

    @property
    def num_visited(self) -> int:
        return int(np.count_nonzero(self.parent >= 0))

    def simulated_gteps(self, problem: Graph500Problem | None = None) -> float:
        """Simulated giga-traversed-edges-per-second.

        With a :class:`Graph500Problem` this is the benchmark's metric
        (input edge count / time); without, it uses the run's own edge
        count.
        """
        edges = problem.num_edges if problem is not None else self.num_input_edges
        if self.total_seconds <= 0:
            return 0.0
        return edges / self.total_seconds / 1e9

    # ------------------------------------------------------------------
    # figure-shaped queries
    # ------------------------------------------------------------------

    def activation_trace(self, class_sizes: dict[str, int]) -> dict[str, list[float]]:
        """Fig. 5: per-iteration newly-activated fraction per class."""
        out: dict[str, list[float]] = {}
        for cls in ("E", "H", "L"):
            size = max(class_sizes.get(cls, 0), 1)
            out[cls] = [
                rec.newly_activated.get(cls, 0) / size for rec in self.iterations
            ]
        return out

    def time_by_phase(self) -> dict[str, float]:
        """Fig. 10: seconds per component (+ ``reduce`` and ``other``)."""
        return self.ledger.seconds_by_phase()

    def time_by_category(self) -> dict[str, float]:
        """Fig. 11: compute / imbalance / per-collective-kind seconds."""
        out: dict[str, float] = {
            "compute": self.ledger.compute_seconds - self.ledger.imbalance_seconds,
            "imbalance/latency": self.ledger.imbalance_seconds,
        }
        kind_names = {
            CollectiveKind.ALLTOALLV: "alltoallv",
            CollectiveKind.ALLGATHER: "allgather",
            CollectiveKind.REDUCE_SCATTER: "reduce_scatter",
            CollectiveKind.ALLREDUCE: "allreduce",
            CollectiveKind.BARRIER: "barrier",
            CollectiveKind.P2P: "p2p",
        }
        for kind, secs in self.ledger.comm_seconds_by_kind().items():
            name = kind_names[kind]
            out[name] = out.get(name, 0.0) + secs
        return out

    def time_by_direction(self) -> dict[str, float]:
        """Fig. 15: {EH2EH, others} x {push, pull} + other seconds.

        Uses the compute events' kernel tags (``push``/``pull`` prefix).
        """
        out = {
            "EH2EH push": 0.0,
            "EH2EH pull": 0.0,
            "others push": 0.0,
            "others pull": 0.0,
            "other": 0.0,
        }
        for ev in self.ledger.compute_events:
            where = "EH2EH" if ev.phase == "EH2EH" else "others"
            if ev.kernel.startswith("push"):
                out[f"{where} push"] += ev.seconds
            elif ev.kernel.startswith("pull"):
                out[f"{where} pull"] += ev.seconds
            else:
                out["other"] += ev.seconds
        for ev in self.ledger.comm_events:
            out["other"] += ev.seconds
        return out

    def directions_of(self, component: str) -> list[str]:
        """Direction chosen for one component across iterations."""
        return [rec.directions.get(component, "-") for rec in self.iterations]


@dataclass
class MSBFSResult:
    """Outcome of one multi-source batch, built by the scheduler's wave
    mode and returned as is by ``MultiSourceBFS.run_batch``.

    ``parent[l]`` is bit-identical to the parent array of a sequential
    run from ``roots[l]``.  Per-root views (:meth:`lane_parent`,
    :meth:`lane_records`, :meth:`per_root_result`) expose each lane as
    if it had been a sequential run; batch-level aggregates (``ledger``,
    ``total_seconds``, ``records``) price the shared traversal once.
    """

    roots: np.ndarray
    #: ``parent[lane, vertex]`` — lane ``l``'s full parent tree.
    parent: np.ndarray = field(repr=False)
    #: One aggregate record per wave.
    records: list[IterationRecord] = field(repr=False)
    #: Per wave: per-lane frontier sizes.
    lane_frontiers: list[np.ndarray] = field(repr=False)
    #: Per wave: ``{component: (push_mask, pull_mask)}`` lane groups.
    lane_directions: list[dict] = field(repr=False)
    ledger: TrafficLedger = field(repr=False)
    total_seconds: float = 0.0
    num_input_edges: int = 0
    metrics: object = field(default=NULL_METRICS, repr=False)

    @property
    def num_lanes(self) -> int:
        return int(self.roots.size)

    @property
    def num_waves(self) -> int:
        return len(self.records)

    @property
    def amortized_seconds(self) -> float:
        """Simulated cost per query when the batch is shared fairly."""
        return self.total_seconds / self.num_lanes

    def lane_parent(self, lane: int) -> np.ndarray:
        return self.parent[lane]

    def lane_depth(self, lane: int) -> int:
        """Levels lane ``lane`` actually ran (its sequential iteration
        count)."""
        depth = 0
        for sizes in self.lane_frontiers:
            if sizes[lane] == 0:
                break
            depth += 1
        return depth

    def lane_records(self, lane: int) -> list[IterationRecord]:
        """Lane-eye view of the wave records: one record per level the
        lane was live, with the direction *that lane* ran per component
        (matching its sequential run's records)."""
        bit = lane_bit(lane)
        out = []
        for it, sizes in enumerate(self.lane_frontiers):
            if sizes[lane] == 0:
                break
            rec = IterationRecord(index=it, frontier_size=int(sizes[lane]))
            dirs = self.lane_directions[it]
            for name, agg_dir in self.records[it].directions.items():
                if name not in dirs:
                    rec.directions[name] = agg_dir  # "-": component empty
                    continue
                push_mask, pull_mask = dirs[name]
                if int(push_mask) & int(bit):
                    rec.directions[name] = "push"
                elif int(pull_mask) & int(bit):
                    rec.directions[name] = "pull"
                else:
                    rec.directions[name] = "-"
            out.append(rec)
        return out

    def per_root_result(self, lane: int, *, share_ledger: bool = False) -> BFSRunResult:
        """A :class:`BFSRunResult`-shaped view of one lane.

        ``total_seconds`` is the amortized share of the batch.  The
        batch ledger is attached only when ``share_ledger`` — exactly
        one lane of a batch should carry it, so that summing ledgers
        across per-root results counts the shared traversal once.
        """
        ledger = (
            self.ledger
            if share_ledger
            else TrafficLedger(self.ledger.cost_model)
        )
        return BFSRunResult(
            root=int(self.roots[lane]),
            parent=self.parent[lane],
            iterations=self.lane_records(lane),
            ledger=ledger,
            total_seconds=self.amortized_seconds,
            num_input_edges=self.num_input_edges,
            metrics=self.metrics,
        )

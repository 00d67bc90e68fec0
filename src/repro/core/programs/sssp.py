"""SSSP as vertex programs: Bellman-Ford sweeps and delta-stepping buckets.

The paper cites Chakaravarthy et al. for scalable SSSP; their algorithm
(and every competitive Graph500 SSSP submission) is a delta-stepping
variant (Meyer & Sanders): vertices are processed in distance buckets of
width ``delta``; within a bucket, *light* edges (weight < delta) are
relaxed iteratively until the bucket settles, then *heavy* edges
(weight >= delta) are relaxed once.

Both programs here express one relaxation sweep as gather (candidate
distances over the frontier's arcs, non-improving candidates dropped
before the shuffle) → min-combine per destination → eager apply, so the
:class:`~repro.core.kernels.scheduler.LevelSyncScheduler` runs them with
the full 1.5D treatment — densest-first component order, per-component
ledger charging, spans, metrics, faults and checkpoints:

- :class:`BellmanFordProgram` — level-synchronous label correcting; the
  scheduler's frontier *is* the improved set.
- :class:`DeltaSteppingProgram` — the bucket structure is a program-side
  state machine that stages frontiers: light phases re-feed the bucket's
  improved members, the heavy phase fires once per bucket, and bucket
  transitions (including the empty-bucket skip-ahead) happen in
  ``end_iteration``.  One scheduler iteration == one delta-stepping
  phase.

The classic function entry points (:func:`sssp`,
:func:`delta_stepping_sssp`) are kept as thin wrappers that run the
programs through a :class:`~repro.core.engine.DistributedBFS` engine and
adapt the results; they produce bit-identical distances/parents to the
pre-program implementations (pinned by ``tests/golden/programs_golden.json``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.partition import PartitionedGraph
from repro.core.programs.base import VertexProgram
from repro.machine.network import MachineSpec
from repro.runtime.ledger import TrafficLedger

__all__ = [
    "WeightTable",
    "BellmanFordProgram",
    "DeltaSteppingProgram",
    "SSSPResult",
    "DeltaSteppingResult",
    "generate_weights",
    "suggest_delta",
    "sssp",
    "delta_stepping_sssp",
]


def generate_weights(num_edges: int, *, seed: int = 2) -> np.ndarray:
    """Uniform [0, 1) edge weights, as the Graph500 SSSP kernel specifies."""
    return np.random.default_rng(seed).random(num_edges)


def suggest_delta(weights: np.ndarray, degrees: np.ndarray) -> float:
    """The classic heuristic: delta ~ average weight x (1 / avg degree)
    scaled so a bucket holds a frontier-sized set; we use the robust
    ``mean weight / mean degree`` with floors."""
    w = float(np.mean(weights)) if weights.size else 1.0
    d = float(np.mean(degrees[degrees > 0])) if np.any(degrees > 0) else 1.0
    return max(w / max(d, 1.0), 1e-6)


class WeightTable:
    """Edge-weight lookup by undirected endpoint pair.

    Components store symmetrized (and possibly duplicated) arcs, so the
    weight of a stored arc is looked up by its endpoint pair — the
    minimum over duplicate input edges, matching multigraph shortest
    paths.
    """

    def __init__(
        self,
        n: int,
        weights: np.ndarray,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        *,
        context: str = "sssp",
    ) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if np.any(weights < 0):
            raise ValueError(f"{context} requires nonnegative weights")
        if weights.shape != np.asarray(edge_src).shape:
            raise ValueError("weights must align with edge_src/edge_dst")
        lo = np.minimum(edge_src, edge_dst).astype(np.int64)
        hi = np.maximum(edge_src, edge_dst).astype(np.int64)
        key = lo * n + hi
        order = np.argsort(key, kind="stable")
        key_sorted = key[order]
        group_starts = np.concatenate(
            ([0], np.flatnonzero(key_sorted[1:] != key_sorted[:-1]) + 1)
        )
        self._w_min = np.minimum.reduceat(weights[order], group_starts)
        self._key = key_sorted[group_starts]
        self._n = int(n)

    def __call__(self, s: np.ndarray, d: np.ndarray) -> np.ndarray:
        k = np.minimum(s, d) * self._n + np.maximum(s, d)
        return self._w_min[np.searchsorted(self._key, k)]


def _unit_weights(s: np.ndarray, d: np.ndarray) -> np.ndarray:
    return np.ones(s.size, dtype=np.float64)


class _SSSPBase(VertexProgram):
    """Shared distance/parent state and the relax apply rule."""

    #: A relaxation message carries the candidate distance plus the
    #: proposing parent alongside the destination ID.
    message_bytes = 16

    def __init__(self, root: int, weight_of=None) -> None:
        super().__init__()
        self.root = int(root)
        self.weight_of = weight_of if weight_of is not None else _unit_weights
        self.relaxations = 0

    def _init_state(self) -> None:
        n = self.n
        if not 0 <= self.root < n:
            raise ValueError(f"root {self.root} out of range for n={n}")
        self.distance = np.full(n, np.inf)
        self.parent = np.full(n, -1, dtype=np.int64)
        self.distance[self.root] = 0.0
        self.parent[self.root] = self.root
        self.relaxations = 0

    def initial_frontier(self) -> np.ndarray:
        frontier = np.zeros(self.n, dtype=bool)
        frontier[self.root] = True
        return frontier

    def _relax_candidates(self, src, dst, w):
        """Candidate distances that improve their destination; counts
        every improving candidate (the ``relaxations`` statistic) before
        the per-destination min-combine."""
        cand = self.distance[src] + w
        better = cand < self.distance[dst]
        self.relaxations += int(np.count_nonzero(better))
        if not np.any(better):
            return None
        return src[better], dst[better], cand[better]

    def apply(self, dst, val, src):
        improved = val < self.distance[dst]
        d = dst[improved]
        self.distance[d] = val[improved]
        self.parent[d] = src[improved]
        return d

    def state_arrays(self):
        return {"distance": self.distance, "parent": self.parent}

    def info(self):
        return {"root": self.root, "relaxations": self.relaxations}


class BellmanFordProgram(_SSSPBase):
    """Level-synchronous label-correcting SSSP (Graph500 kernel 2).

    Every iteration relaxes the arcs of the vertices whose distance
    improved last iteration; with nonnegative weights this converges to
    exact distances.  With ``weight_of`` omitted, unit weights make SSSP
    equal BFS depth.
    """

    name = "sssp"
    max_iterations = 10_000

    def gather(self, src, dst):
        return self._relax_candidates(src, dst, self.weight_of(src, dst))

    def snapshot(self):
        return {
            "distance": self.distance.copy(),
            "parent": self.parent.copy(),
            "control": np.array([self.relaxations], dtype=np.int64),
        }

    def restore(self, state):
        np.copyto(self.distance, state["distance"])
        np.copyto(self.parent, state["parent"])
        self.relaxations = int(state["control"][0])


class DeltaSteppingProgram(_SSSPBase):
    """Delta-stepping SSSP: buckets as staged scheduler frontiers.

    The scheduler sees one frontier per *phase*; the program's state
    machine decides what that frontier is:

    - ``light`` phases: the bucket's (re-)improved members, relaxing
      only light arcs (weight < delta), until the bucket settles;
    - one ``heavy`` phase per bucket: all bucket members, heavy arcs
      only;
    - bucket transitions — including the skip-ahead over empty buckets —
      happen in ``end_iteration`` and return the next bucket's initial
      light frontier (or ``None`` when no reachable vertex is left).
    """

    name = "sssp-delta"

    def __init__(
        self,
        root: int,
        weight_of,
        delta: float,
        *,
        max_buckets: int = 1_000_000,
    ) -> None:
        super().__init__(root, weight_of)
        if delta is None or delta <= 0:
            raise ValueError("delta must be positive")
        self.delta = float(delta)
        self.max_buckets = int(max_buckets)

    def _init_state(self) -> None:
        super()._init_state()
        n = self.n
        self.settled = np.zeros(n, dtype=bool)
        self.bucket_members = np.zeros(n, dtype=bool)
        self.bucket_idx = 0
        self.phase = "light"
        self.hi_b = self.delta
        self.buckets_processed = 0
        # Phases are bounded by the bucket-settling guard the bespoke
        # loop enforced with a RuntimeError.
        self.max_iterations = max(10 * n, 1024)

    def initial_frontier(self):
        return self._enter_bucket()

    def _enter_bucket(self):
        """Find the next nonempty bucket (skipping ahead over empty
        bucket indices) and return its initial light frontier."""
        while self.bucket_idx < self.max_buckets:
            lo_b = self.bucket_idx * self.delta
            hi_b = lo_b + self.delta
            in_bucket = (
                (~self.settled)
                & (self.distance >= lo_b)
                & (self.distance < hi_b)
            )
            if in_bucket.any():
                self.hi_b = hi_b
                self.bucket_members = np.zeros(self.n, dtype=bool)
                self.phase = "light"
                return in_bucket
            remaining = (~self.settled) & np.isfinite(self.distance)
            if not remaining.any():
                self.converged = True
                return None
            self.bucket_idx = int(
                np.floor(self.distance[remaining].min() / self.delta)
            )
        return None

    def begin_iteration(self, iteration, active):
        if self.phase == "light":
            self.bucket_members |= active

    def gather(self, src, dst):
        w = self.weight_of(src, dst)
        keep = w < self.delta if self.phase == "light" else w >= self.delta
        if not np.any(keep):
            return None
        return self._relax_candidates(src[keep], dst[keep], w[keep])

    def end_iteration(self, iteration, active, touched):
        if self.phase == "light":
            frontier = (
                touched
                & (self.distance < self.hi_b)
                & ~self.settled
                & ~self.bucket_members
            )
            # re-touched members with improved in-bucket distance must
            # relax again too
            frontier |= (
                touched
                & self.bucket_members
                & (self.distance < self.hi_b)
                & ~self.settled
            )
            if frontier.any():
                return frontier
            # bucket settled under light arcs: one heavy phase from
            # every member, then advance.
            self.phase = "heavy"
            return self.bucket_members.copy()
        self.settled |= self.bucket_members
        self.buckets_processed += 1
        self.bucket_idx += 1
        return self._enter_bucket()

    def settled_mask(self):
        return self.settled

    def snapshot(self):
        return {
            "distance": self.distance.copy(),
            "parent": self.parent.copy(),
            "settled": self.settled.copy(),
            "bucket_members": self.bucket_members.copy(),
            "control": np.array(
                [
                    self.bucket_idx,
                    1 if self.phase == "heavy" else 0,
                    self.buckets_processed,
                    self.relaxations,
                ],
                dtype=np.int64,
            ),
        }

    def restore(self, state):
        np.copyto(self.distance, state["distance"])
        np.copyto(self.parent, state["parent"])
        np.copyto(self.settled, state["settled"])
        np.copyto(self.bucket_members, state["bucket_members"])
        ctrl = state["control"]
        self.bucket_idx = int(ctrl[0])
        self.phase = "heavy" if int(ctrl[1]) else "light"
        self.hi_b = self.bucket_idx * self.delta + self.delta
        self.buckets_processed = int(ctrl[2])
        self.relaxations = int(ctrl[3])

    def info(self):
        return {
            "root": self.root,
            "relaxations": self.relaxations,
            "delta": self.delta,
            "num_buckets": self.buckets_processed,
        }


# ----------------------------------------------------------------------
# classic entry points (compat wrappers over the programs)
# ----------------------------------------------------------------------


@dataclass
class SSSPResult:
    """Output of a distributed SSSP run."""

    root: int
    distance: np.ndarray
    parent: np.ndarray
    num_iterations: int
    relaxations: int
    ledger: TrafficLedger

    @property
    def total_seconds(self) -> float:
        return self.ledger.total_seconds

    def gteps(self, num_edges: int) -> float:
        """Graph500 SSSP counts input edges per traversal second."""
        if self.total_seconds <= 0:
            return 0.0
        return num_edges / self.total_seconds / 1e9


@dataclass
class DeltaSteppingResult:
    """Output of a delta-stepping run."""

    root: int
    distance: np.ndarray
    parent: np.ndarray
    delta: float
    num_buckets: int
    num_phases: int
    relaxations: int
    ledger: TrafficLedger

    @property
    def total_seconds(self) -> float:
        return self.ledger.total_seconds


def _run_registered(name: str, part: PartitionedGraph, root: int, machine, **params):
    """Build the registered program ``name`` rooted at ``root`` and run
    it on a fresh engine; returns ``(program, run result)``."""
    from repro.core.engine import DistributedBFS
    from repro.core.programs import build_program

    if not 0 <= root < part.num_vertices:
        raise ValueError(f"root {root} out of range for n={part.num_vertices}")
    program = build_program(name, part, root=root, **params)
    return program, DistributedBFS(part, machine=machine).run_program(program)


def sssp(
    part: PartitionedGraph,
    root: int,
    weights: np.ndarray | None = None,
    *,
    edge_src: np.ndarray | None = None,
    edge_dst: np.ndarray | None = None,
    machine: MachineSpec | None = None,
    max_iterations: int = 10_000,
) -> SSSPResult:
    """Single-source shortest paths over the partitioned graph.

    Runs the registered ``"sssp"`` program
    (:class:`BellmanFordProgram`) through the shared scheduler and
    the six 1.5D kernels.  With ``weights`` (aligned with
    ``edge_src``/``edge_dst``) omitted, unit weights are used and SSSP
    equals BFS depth.
    """
    program, res = _run_registered(
        "sssp", part, root, machine, weights=weights, edge_src=edge_src,
        edge_dst=edge_dst, max_iterations=max_iterations,
    )
    return SSSPResult(
        root=root,
        distance=res.state["distance"],
        parent=res.state["parent"],
        num_iterations=res.num_iterations,
        relaxations=program.relaxations,
        ledger=res.ledger,
    )


def delta_stepping_sssp(
    part: PartitionedGraph,
    root: int,
    weights: np.ndarray,
    edge_src: np.ndarray,
    edge_dst: np.ndarray,
    *,
    delta: float | None = None,
    machine: MachineSpec | None = None,
    max_buckets: int = 1_000_000,
) -> DeltaSteppingResult:
    """Exact delta-stepping shortest paths over the partitioned graph
    (the registered ``"sssp-delta"`` program)."""
    program, res = _run_registered(
        "sssp-delta", part, root, machine, weights=weights, edge_src=edge_src,
        edge_dst=edge_dst, delta=delta, max_buckets=max_buckets,
    )
    return DeltaSteppingResult(
        root=root,
        distance=res.state["distance"],
        parent=res.state["parent"],
        delta=program.delta,
        num_buckets=program.buckets_processed,
        num_phases=res.num_iterations,
        relaxations=program.relaxations,
        ledger=res.ledger,
    )

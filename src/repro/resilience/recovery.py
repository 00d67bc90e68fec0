"""Crash recovery for interrupted traversals.

Two failure channels exist in the simulation and two mechanisms answer
them:

- **Dropped/corrupted messages** are handled *inside* the charging path:
  the :class:`~repro.resilience.faults.FaultInjector` makes the
  :class:`~repro.runtime.ledger.TrafficLedger` charge each failed
  attempt at full cost plus an exponential backoff wait before the
  successful transfer — retry-with-backoff priced, not just counted.
- **Rank crashes** abort the whole attempt with a
  :class:`~repro.resilience.faults.RankCrashError`.  That is this
  module's job: :func:`recover` — the one restart loop behind
  :func:`run_with_recovery`, :func:`run_program_with_recovery` and
  :func:`~repro.serve.msbfs.run_batch_with_recovery` — catches the
  crash, accounts the wasted attempt's ledger, and applies a
  :class:`RecoveryPolicy` —

  ``restart``
      restore from the newest :class:`~repro.resilience.checkpoint`
      snapshot (or from scratch when none exists) and re-execute the
      remaining levels; the snapshot's restore broadcast is charged to
      the recovered attempt's ledger.
  ``degrade`` (single-root BFS only)
      give up on the dead rank: excise the L-vertices it owned from the
      traversal (mark pre-visited with no parent) and finish on the
      surviving ranks.  The result no longer satisfies full Graph500
      validation — :func:`validate_partial` checks the weaker contract
      with the spec validator's rules (the parents form a tree of real
      edges, and nothing *outside* the excised set was silently lost)
      and reports coverage.

The returned :class:`ResilientRunResult` wraps the mode's final result
with the recovery story: how many crashes were survived, what the wasted
attempts cost (their events are merged into the final ledger so
``total_seconds`` is the true end-to-end cost including lost work), and
which vertices were excised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.obs.metrics import NULL_METRICS
from repro.resilience.checkpoint import Checkpoint, LevelCheckpointer
from repro.resilience.faults import NULL_FAULTS, FaultInjector, RankCrashError

if TYPE_CHECKING:
    from repro.runtime.context import RunContext

__all__ = [
    "RecoveryError",
    "RecoveryPolicy",
    "ResilientRunResult",
    "PartialCoverage",
    "build_resilience",
    "recover",
    "run_with_recovery",
    "run_program_with_recovery",
    "validate_partial",
]


class RecoveryError(RuntimeError):
    """The run could not be recovered within the policy's budget."""


@dataclass(frozen=True)
class RecoveryPolicy:
    """What to do when a rank dies mid-traversal."""

    #: Crashes survived before giving up (``RecoveryError``).
    max_restarts: int = 3
    #: ``restart`` (re-execute from checkpoint/scratch) or ``degrade``
    #: (excise the dead rank's L-vertices and finish without it).
    mode: str = "restart"

    def __post_init__(self) -> None:
        if self.mode not in ("restart", "degrade"):
            raise ValueError(f"unknown recovery mode {self.mode!r}")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")


@dataclass
class ResilientRunResult:
    """A recovered run (BFS, program or batch result) plus its
    failure/recovery accounting."""

    result: object
    crashes: int = 0
    restarts: int = 0
    #: Iteration of the snapshot each restart resumed from (-1 = scratch).
    resumed_from: list[int] = field(default_factory=list)
    #: Simulated seconds burned by aborted attempts (already included in
    #: ``result.total_seconds``).
    wasted_seconds: float = 0.0
    #: Vertices excised by degrade mode (empty in restart mode).
    excised: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))

    @property
    def degraded(self) -> bool:
        return self.excised.size > 0

    def summary(self) -> dict:
        return {
            "crashes": self.crashes,
            "restarts": self.restarts,
            "resumed_from": list(self.resumed_from),
            "wasted_seconds": self.wasted_seconds,
            "excised_vertices": int(self.excised.size),
            "degraded": self.degraded,
        }


def build_resilience(
    faults,
    *,
    checkpoint_every: int,
    max_restarts: int,
    recovery_mode: str,
    mesh,
    rng,
    context: RunContext,
) -> tuple[RunContext, RecoveryPolicy]:
    """Turn a run's resilience options into ``(run, policy)``: ``run`` is
    ``context`` (the engine's sinks) carrying the run's injector and
    checkpointer — the ``faults`` / ``checkpointer`` / ``metrics`` the
    recovery entry points take — and ``policy`` the :class:`RecoveryPolicy`.

    Every run takes this one path: with no ``faults`` (a spec string, a
    :class:`~repro.resilience.faults.FaultPlan` or a ready injector;
    validated against the mesh's rank count) and ``checkpoint_every=0``
    the injector is inert, no snapshot is ever due, and a recovery entry
    point is one plain attempt, bit-identical to the bare run.
    """
    if faults is not None:
        if not isinstance(faults, FaultInjector):
            faults = FaultInjector(faults, rng=rng, metrics=context.metrics)
        faults.plan.validate(mesh.num_ranks)
    checkpointer = LevelCheckpointer(
        every=checkpoint_every, mesh=mesh, metrics=context.metrics
    )
    run = context.derive(faults, checkpointer, context.trace_id)
    return run, RecoveryPolicy(max_restarts=max_restarts, mode=recovery_mode)


def recover(
    attempt,
    *,
    checkpointer: LevelCheckpointer | None = None,
    policy: RecoveryPolicy = RecoveryPolicy(),
    metrics=NULL_METRICS,
    degrade=None,
) -> ResilientRunResult:
    """The one restart loop every traversal mode recovers through.

    ``attempt(resume)`` runs the traversal (``resume`` is ``None`` or a
    :class:`~repro.resilience.checkpoint.Checkpoint`) and returns its
    result, or raises :class:`~repro.resilience.faults.RankCrashError`.
    Each crash is counted against ``policy.max_restarts``
    (:class:`RecoveryError` past it), the newest verified snapshot
    becomes the next attempt's ``resume``, and the aborted attempts'
    ledgers are merged into the final result's so its cost is the true
    end-to-end cost including lost work.  ``degrade(snapshot)`` — BFS
    only — rewrites the resume point to excise the dead ranks' vertices
    and returns ``(resume, excised)``.
    """
    if policy.mode != "restart" and degrade is None:
        raise RecoveryError(
            "only single-root BFS supports degrade recovery; vertex "
            f"programs and batches are restart-only (got mode={policy.mode!r})"
        )
    crashes = 0
    wasted: list = []  # aborted attempts' ledgers
    resumed_from: list[int] = []
    excised = np.array([], dtype=np.int64)
    resume = None

    while True:
        try:
            result = attempt(resume)
            break
        except RankCrashError as crash:
            crashes += 1
            metrics.counter("rank_crashes").inc()
            if crash.ledger is not None:
                wasted.append(crash.ledger)
            if crashes > policy.max_restarts:
                raise RecoveryError(
                    f"rank {crash.rank} crashed at iteration "
                    f"{crash.iteration}; restart budget "
                    f"({policy.max_restarts}) exhausted"
                ) from crash
            resume = checkpointer.latest() if checkpointer is not None else None
            if resume is not None:
                resume.verify()
            if policy.mode == "degrade":
                resume, excised = degrade(resume)
                metrics.counter("degraded_runs").inc()
            resumed_from.append(resume.iteration if resume is not None else -1)
            metrics.counter("recoveries", mode=policy.mode).inc()

    # Fold the lost work into the final accounting: the recovered run's
    # true cost includes every second the aborted attempts burned.
    wasted_seconds = 0.0
    for ledger in wasted:
        wasted_seconds += ledger.total_seconds
        result.ledger.merge(ledger)
    if wasted:
        metrics.counter("recovery_time").inc(wasted_seconds)

    return ResilientRunResult(
        result=result,
        crashes=crashes,
        restarts=len(resumed_from),
        resumed_from=resumed_from,
        wasted_seconds=wasted_seconds,
        excised=excised,
    )


def _degraded_resume(engine, root: int, snap: Checkpoint | None,
                     dead_ranks) -> tuple[Checkpoint, np.ndarray]:
    """Build a resume state with the dead ranks' L-vertices excised.

    Only L (low-degree) vertices are excisable: they live on exactly one
    rank under the block distribution, so a dead rank takes its slice
    with it.  E/H delegates are replicated along mesh rows/columns and
    survive any single failure — the redundancy argument the 1.5D
    placement makes in the paper.
    """
    part, mesh = engine.part, engine.mesh
    n = part.num_vertices
    is_l = part.class_masks()["L"]
    excise = np.zeros(n, dtype=bool)
    for rank in sorted(dead_ranks):
        lo, hi = mesh.vertex_range(int(rank), n)
        excise[lo:hi] = True
    excise &= is_l
    if excise[root]:
        raise RecoveryError(
            f"root {root} was owned by a dead rank; degraded recovery "
            "cannot excise the search key"
        )
    if snap is not None:
        parent = snap.state["parent"]
        visited = np.unpackbits(snap.state["visited"], count=n).astype(bool)
        active = snap.active.copy()
        iteration = snap.iteration
        records = snap.records
        # Vertices the dead rank had already reached keep their parents;
        # the excision only removes *future* work on that rank.
        excise &= ~(parent >= 0)
    else:
        parent = np.full(n, -1, dtype=np.int64)
        visited = np.zeros(n, dtype=bool)
        active = np.zeros(n, dtype=bool)
        parent[root] = root
        visited[root] = True
        active[root] = True
        iteration = -1
        records = ()
    visited[excise] = True
    active[excise] = False
    resume = Checkpoint(
        key=root, iteration=iteration, active=active,
        state={"parent": parent, "visited": np.packbits(visited)},
        records=records,
    )
    return resume, np.flatnonzero(excise).astype(np.int64)


def run_with_recovery(
    engine,
    root: int,
    *,
    faults=NULL_FAULTS,
    checkpointer: LevelCheckpointer | None = None,
    policy: RecoveryPolicy = RecoveryPolicy(),
    metrics=NULL_METRICS,
) -> ResilientRunResult:
    """Run one BFS, surviving injected rank crashes.

    ``engine`` is any scheduler-backed engine
    (:class:`~repro.core.engine.DistributedBFS`, the baselines, or
    :class:`~repro.runtime.replay.ReplayBFS`); its ``run`` must accept
    the ``faults``/``checkpointer``/``resume`` keywords, which every
    host inherits from :class:`~repro.core.kernels.scheduler.LevelSyncScheduler`.
    The only mode with ``degrade`` recovery: see :func:`_degraded_resume`.
    """
    out = recover(
        lambda resume: engine.run(
            root, faults=faults, checkpointer=checkpointer, resume=resume
        ),
        checkpointer=checkpointer,
        policy=policy,
        metrics=metrics,
        degrade=lambda snap: _degraded_resume(
            engine, root, snap, faults.dead_ranks
        ),
    )
    out.result.total_seconds = out.result.ledger.total_seconds
    return out


def run_program_with_recovery(
    engine,
    program,
    *,
    faults=NULL_FAULTS,
    checkpointer: LevelCheckpointer | None = None,
    policy: RecoveryPolicy = RecoveryPolicy(),
    metrics=NULL_METRICS,
) -> ResilientRunResult:
    """Run one vertex program, surviving injected rank crashes.

    Each attempt re-enters :meth:`~repro.core.engine.DistributedBFS.run_program`
    (whose ``bind`` re-initializes program state before a resume
    restores it).  ``degrade`` mode is BFS-specific (it excises a dead
    rank's L-vertices from a *visited* set, which value programs do not
    have) and is rejected.
    """
    return recover(
        lambda resume: engine.run_program(
            program, faults=faults, checkpointer=checkpointer, resume=resume
        ),
        checkpointer=checkpointer,
        policy=policy,
        metrics=metrics,
    )


@dataclass(frozen=True)
class PartialCoverage:
    """Outcome of :func:`validate_partial` on a degraded run."""

    reached: int
    reachable: int
    excised: int
    #: Non-excised vertices adjacent to the tree that were not reached.
    lost: int

    @property
    def coverage(self) -> float:
        return self.reached / self.reachable if self.reachable else 1.0


def validate_partial(
    graph, root: int, parent: np.ndarray, excised: np.ndarray
) -> PartialCoverage:
    """Validate a degraded run's weaker contract.

    The Graph500 spec's rules minus full coverage, on the spec
    validator's vectorized pieces (:mod:`repro.graph500.validate`):

    1. the root is its own parent and is not excised;
    2. the parents form a tree rooted at ``root`` — no cycle, no orphaned
       subtree, no out-of-range pointer
       (:func:`~repro.graph500.reference.bfs_levels_from_parents`);
    3. every tree edge ``(v, parent[v])`` is a real graph edge;
    4. no *silent* loss — no graph arc joins a reached, non-excised
       vertex to an unreached, non-excised one (reachable only through
       excised vertices is fine; a skipped expandable vertex is not).

    ``graph`` is the symmetrized :class:`~repro.graphs.csr.CSRGraph` the
    spec validator takes.  Raises ``AssertionError`` on any violation;
    returns coverage statistics otherwise.
    """
    from repro.graph500.reference import bfs_levels_from_parents
    from repro.graph500.validate import _missing_mask

    parent = np.asarray(parent, dtype=np.int64)
    excised_mask = np.zeros(parent.size, dtype=bool)
    excised_mask[excised] = True
    assert parent[root] == root, "root must be its own parent"
    assert not excised_mask[root], "root cannot be excised"
    try:
        bfs_levels_from_parents(graph, root, parent)
    except ValueError as exc:
        raise AssertionError(
            f"parent array is not a tree rooted at {root}: {exc}"
        ) from exc

    reached = parent >= 0
    children = np.flatnonzero(reached)
    children = children[children != root]
    missing = children[_missing_mask(graph, children, parent[children])]
    assert missing.size == 0, (
        f"tree edge ({missing[0]}, {parent[missing[0]]}) is not a graph edge"
    )

    unreached = ~reached & ~excised_mask
    src, dst = graph.arcs()
    lost = np.unique(src[unreached[src] & reached[dst] & ~excised_mask[dst]]).size
    assert lost == 0, (
        f"{lost} non-excised vertices were reachable from live ranks "
        "but never visited"
    )
    return PartialCoverage(
        reached=int(reached.sum()),
        reachable=int(reached.sum() + unreached.sum()),
        excised=int(excised_mask.sum()),
        lost=lost,
    )

"""Incremental repair of completed BFS and SSSP results.

A completed traversal is a large sunk cost; most update batches touch a
small part of the graph.  This module repairs results instead of
recomputing them, while staying **bit-identical** to a from-scratch run
on the repaired graph (the gate in :mod:`repro.dynamic.gate` asserts
this, so every shortcut below is an argument about exact equality, not
an approximation).

BFS (:func:`patch_bfs_result`)
------------------------------

Levels are unit-weight distances, so structure gives three facts:

- *Deleting a non-tree edge changes no level*: every vertex's tree path
  survives, and no distance can decrease by removing an edge.  Deleting
  a tree edge can, so that falls back to recomputing the root.
- *Inserting edges can only lower levels*: new levels are the fixpoint
  of relaxing the old levels over the repaired graph — a bounded
  cascade seeded at the inserted arcs, far cheaper than a traversal.
- *Parents are direction- and order-dependent*: the winner of vertex
  ``v`` is the first writer (push) or first active source in
  (rank, dst) group order (pull), resolved densest-component-first with
  mid-iteration freshness.  A prefix of the old run stays valid only up
  to the first iteration anything observable changed:

  1. the first iteration that assigns a changed level
     (``min(new_level) - 1`` over level-changed vertices);
  2. the first iteration a changed arc (inserted or migrated) can
     influence a winner (``min(old_level, new_level) - 1`` over the
     changed arcs' heads — removing a non-winner arc never changes a
     winner, and a removed winner arc is a tree edge, handled above);
  3. the first iteration whose *recorded* direction choices differ from
     what the repaired partition would choose — reclassification changes
     the class populations behind
     :meth:`~repro.core.direction.ClassState.measure`, so every kept
     iteration's directions are re-derived against the new partition
     (reconstructing mid-iteration visited state from the old levels
     plus each vertex's winner component) and compared to the record.

  The run resumes through the shared
  :class:`~repro.core.kernels.scheduler.LevelSyncScheduler` via an
  unfingerprinted :class:`~repro.resilience.checkpoint.Checkpoint` built
  from the kept prefix, at the first affected level; iterations before
  it are kept verbatim.

SSSP (:func:`patch_sssp_result`)
--------------------------------

:class:`~repro.core.programs.sssp.BellmanFordProgram` forces push, and
distances are the unique min fixpoint over path sums — independent of
relaxation order, placement, and direction.  So: deleting a non-tree
edge (parent test) changes no distance; inserted edges re-converge from
the old distances by activating the tails of improving inserted arcs
through a :class:`~repro.resilience.checkpoint.Checkpoint` at iteration -1;
deleting a tree edge recomputes the root.  The gate compares distances
(parents may legitimately differ on equal-length ties).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.direction import (
    ClassState,
    choose_component_direction,
    choose_whole_iteration_direction,
)
from repro.core.partition import PartitionedGraph, place_arcs
from repro.core.programs.sssp import BellmanFordProgram
from repro.core.subgraphs import COMPONENT_ORDER
from repro.dynamic.repair import GraphDelta
from repro.obs.metrics import NULL_METRICS
from repro.resilience.checkpoint import Checkpoint

__all__ = [
    "PatchOutcome",
    "levels_from_parent",
    "patch_bfs_result",
    "patch_sssp_result",
]


@dataclass(frozen=True)
class PatchOutcome:
    """What happened to one cached result under a graph delta."""

    #: The repaired result (the old object itself when ``unchanged``).
    result: object
    #: ``"unchanged"`` | ``"patched"`` | ``"recomputed"``.
    mode: str
    #: First re-run iteration for ``patched`` (``None`` otherwise).
    resumed_from: int | None = None
    #: Ledger seconds the repair itself charged (0 when unchanged).
    seconds: float = 0.0


def levels_from_parent(parent: np.ndarray, root: int) -> np.ndarray:
    """BFS levels from a parent forest (-1 for unreachable vertices)."""
    n = parent.size
    level = np.full(n, -1, dtype=np.int64)
    level[root] = 0
    has_parent = parent >= 0
    while True:
        known = level >= 0
        cand = has_parent & ~known
        cand[cand] = known[parent[cand]]
        if not cand.any():
            return level
        level[cand] = level[parent[cand]] + 1


def _new_levels(
    part: PartitionedGraph,
    old_level: np.ndarray,
    ins_src: np.ndarray,
    ins_dst: np.ndarray,
) -> np.ndarray:
    """Unit-weight relaxation of the old levels over the repaired graph.

    Inserts only lower levels and non-tree deletions change none, so the
    fixpoint of this cascade *is* the new BFS level array.
    """
    n = part.num_vertices
    inf = np.int64(n + 1)
    work = np.where(old_level >= 0, old_level, inf).astype(np.int64)
    prev = work.copy()
    if ins_src.size:
        np.minimum.at(work, ins_dst, prev[ins_src] + 1)
    active = work < prev
    while active.any():
        prev = work.copy()
        for comp in part.components.values():
            if comp.num_arcs == 0:
                continue
            sel = comp.push_select(active)
            if sel.num_arcs:
                np.minimum.at(work, sel.dst, work[sel.src] + 1)
        active = work < prev
    return np.where(work <= n, work, np.int64(-1))


def _winner_components(
    part: PartitionedGraph, parent: np.ndarray, level: np.ndarray
) -> np.ndarray:
    """Component index of each reachable non-root vertex's winner arc
    ``(parent[v], v)`` under the repaired partition (-1 elsewhere)."""
    winner = np.full(part.num_vertices, -1, dtype=np.int64)
    vs = np.flatnonzero(level >= 1)
    if vs.size == 0:
        return winner
    winner[vs] = place_arcs(parent[vs], vs, part)[0]
    return winner


def _direction_prefix_limit(
    old, part: PartitionedGraph, config, old_level: np.ndarray, limit: int
) -> int:
    """First kept iteration whose directions a fresh run on the repaired
    partition would choose differently, or ``limit`` if none.

    Reclassification changes the per-class populations the direction
    heuristics divide by, so a flipped choice anywhere in the prefix
    invalidates that iteration's winners even when no arc near them
    changed.  Mid-iteration visited state is reconstructed exactly: at
    the start of component ``c``'s sub-iteration of level ``k``, visited
    is ``{level <= k}`` plus the level-``k+1`` vertices whose winner
    component ran earlier than ``c``.
    """
    names = list(COMPONENT_ORDER)
    state = ClassState(part.class_masks())
    winner = _winner_components(part, old.parent, old_level)
    for k in range(limit):
        active = old_level == k
        base_visited = (old_level >= 0) & (old_level <= k)
        record = old.iterations[k]
        if not config.sub_iteration_direction:
            expected = choose_whole_iteration_direction(
                active, base_visited, part.degrees, config
            )
            recorded = next(
                (d for d in record.directions.values() if d != "-"), None
            )
            if recorded is not None and recorded != expected:
                return k
            continue
        next_level = old_level == k + 1
        for ci, name in enumerate(names):
            if part.components[name].num_arcs == 0:
                continue  # the fresh run skips it
            if record.directions.get(name, "-") == "-":
                # Empty in the old graph: all its arcs are migrated-in,
                # whose heads bound the prefix elsewhere — it activates
                # nothing before the resume point.
                continue
            visited_now = base_visited | (next_level & (winner < ci))
            ratios = state.measure(active, visited_now)
            if (
                choose_component_direction(name, ratios, config)
                != record.directions[name]
            ):
                return k
    return limit


def patch_bfs_result(old, engine, delta: GraphDelta, *, metrics=NULL_METRICS):
    """Repair one completed BFS result under a graph delta.

    ``old`` is the :class:`~repro.core.metrics.BFSRunResult` computed on
    the pre-delta graph; ``engine`` is a
    :class:`~repro.core.engine.DistributedBFS` built on the *repaired*
    partition (engines freeze partition state at construction, so the
    caller rebuilds it after :meth:`~repro.dynamic.repair.IncrementalGraph.graph`).
    Returns a :class:`PatchOutcome` whose result is bit-identical (parent
    array) to ``engine.run(old.root)``.
    """
    part = engine.part
    n = part.num_vertices
    root = old.root
    old_level = levels_from_parent(old.parent, root)

    # Deleted tree edge: the winner arc itself is gone — recompute.
    if delta.deleted_src.size:
        d = delta.deleted_dst
        torn = old.parent[d] == delta.deleted_src
        if np.any(torn & (d != root)):
            result = engine.run(root)
            metrics.counter(
                "dynamic_result_patches", kind="bfs", outcome="recomputed"
            ).inc()
            return PatchOutcome(
                result, "recomputed", seconds=result.ledger.total_seconds
            )

    new_level = _new_levels(part, old_level, delta.inserted_src, delta.inserted_dst)

    inf = n + 2
    k_star = inf
    changed = np.flatnonzero(new_level != old_level)
    if changed.size:
        k_star = int(new_level[changed].min()) - 1
    heads = np.concatenate([delta.inserted_dst, delta.moved_dst])
    if heads.size:
        lv = np.minimum(
            np.where(old_level[heads] >= 0, old_level[heads], inf),
            np.where(new_level[heads] >= 0, new_level[heads], inf),
        )
        finite = lv < inf
        if np.any(finite):
            k_star = min(k_star, int(lv[finite].min()) - 1)

    limit = min(k_star, len(old.iterations))
    if limit > 0:
        k_star = min(
            k_star,
            _direction_prefix_limit(
                old, part, engine.config, old_level, limit
            ),
        )

    if k_star >= len(old.iterations):
        metrics.counter(
            "dynamic_result_patches", kind="bfs", outcome="unchanged"
        ).inc()
        return PatchOutcome(old, "unchanged")
    if k_star <= 0:
        result = engine.run(root)
        metrics.counter(
            "dynamic_result_patches", kind="bfs", outcome="recomputed"
        ).inc()
        return PatchOutcome(
            result, "recomputed", seconds=result.ledger.total_seconds
        )

    keep = (new_level >= 0) & (new_level <= k_star)
    resume = Checkpoint(
        key=root,
        iteration=k_star - 1,
        active=new_level == k_star,
        state={
            "parent": np.where(keep, old.parent, np.int64(-1)),
            "visited": np.packbits(keep),
        },
        records=tuple(old.iterations[:k_star]),
    )
    result = engine.run(root, resume=resume)
    metrics.counter(
        "dynamic_result_patches", kind="bfs", outcome="patched"
    ).inc()
    return PatchOutcome(
        result, "patched", resumed_from=k_star,
        seconds=result.ledger.total_seconds,
    )


def patch_sssp_result(
    old, engine, delta: GraphDelta, *, weight_of, metrics=NULL_METRICS
):
    """Repair one completed SSSP result under a graph delta.

    ``old`` is the :class:`~repro.core.programs.base.ProgramRunResult`
    of a Bellman-Ford run (``state["distance"]``/``["parent"]``,
    ``info["root"]``/``["relaxations"]``);
    ``engine`` a :class:`~repro.core.engine.DistributedBFS` on the
    repaired partition; ``weight_of`` the weight callable for the *new*
    edge set (content-hashed via
    :func:`~repro.dynamic.updates.weights_for_edges`, so surviving edges
    keep their weights).  The outcome's distances are bit-identical to a
    fresh run: Bellman-Ford distances are the unique min fixpoint, so
    re-converging from the old distances with the improving inserted
    arcs' tails activated lands on exactly the from-scratch float
    values (left-to-right sums along each winning path are identical).
    Parents may differ on equal-distance ties; compare distances.
    """
    root = old.info["root"]
    distance, parent = old.state["distance"], old.state["parent"]

    if delta.deleted_src.size:
        d = delta.deleted_dst
        torn = parent[d] == delta.deleted_src
        if np.any(torn & (d != root)):
            result = _fresh_sssp(engine, root, weight_of)
            metrics.counter(
                "dynamic_result_patches", kind="sssp", outcome="recomputed"
            ).inc()
            return PatchOutcome(
                result, "recomputed", seconds=result.ledger.total_seconds
            )

    seed = np.zeros(engine.part.num_vertices, dtype=bool)
    if delta.inserted_src.size:
        s, d = delta.inserted_src, delta.inserted_dst
        w = weight_of(s, d)
        improving = distance[s] + w < distance[d]
        seed[s[improving]] = True

    if not seed.any():
        metrics.counter(
            "dynamic_result_patches", kind="sssp", outcome="unchanged"
        ).inc()
        return PatchOutcome(old, "unchanged")

    resume = Checkpoint(
        key="sssp",
        iteration=-1,
        active=seed,
        state={
            "distance": distance.copy(),
            "parent": parent.copy(),
            "control": np.array([old.info["relaxations"]], dtype=np.int64),
        },
    )
    result = engine.run_program(BellmanFordProgram(root, weight_of), resume=resume)
    metrics.counter(
        "dynamic_result_patches", kind="sssp", outcome="patched"
    ).inc()
    return PatchOutcome(
        result, "patched", resumed_from=0,
        seconds=result.ledger.total_seconds,
    )


def _fresh_sssp(engine, root: int, weight_of):
    return engine.run_program(BellmanFordProgram(root, weight_of))

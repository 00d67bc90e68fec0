"""Streaming edge ingestion with incremental partition repair.

The static pipeline partitions once and freezes (``core/partition.py``);
this package makes the graph *mutable under traffic* without giving up
the bit-exactness the rest of the repo is built on:

- :mod:`repro.dynamic.updates` — the batched edge-update log: a seeded,
  deterministic stream of insert/delete batches over an evolving
  canonical edge set, plus the spec grammar the CLI exposes and the
  content-hashed edge weights that keep SSSP reproducible under churn.
- :mod:`repro.dynamic.repair` — :class:`~repro.dynamic.repair.IncrementalGraph`,
  a wrapper around :class:`~repro.core.partition.PartitionedGraph` that
  re-classifies E/H/L as degrees cross the delegation thresholds,
  migrates only the affected vertices' arcs between components, stages
  CSR changes in per-component delta overlays merged on a compaction
  cadence, and prices every repair through the shared
  :class:`~repro.runtime.ledger.TrafficLedger`.
- :mod:`repro.dynamic.patch` — incremental repair of completed BFS and
  SSSP results: inserted edges can only lower levels/distances, so a
  bounded frontier re-enters the
  :class:`~repro.core.kernels.scheduler.LevelSyncScheduler` at the first
  affected level instead of recomputing; deletions fall back to
  recomputing only the affected roots.
- :mod:`repro.dynamic.gate` — the incremental-vs-rebuild equivalence
  gate: after any update sequence, the repaired partition and the
  patched results must be bit-identical to a from-scratch rebuild plus
  re-traversal.

Everything here requires ``placement="stable"`` partitions (see
:mod:`repro.core.partition`): the default cyclic placement deals arcs by
their position in the edge array, which incremental repair cannot
reproduce.
"""

from repro.dynamic.gate import EquivalenceReport, run_dynamic_smoke, run_equivalence_gate
from repro.dynamic.patch import (
    PatchOutcome,
    levels_from_parent,
    patch_bfs_result,
    patch_sssp_result,
)
from repro.dynamic.repair import GraphDelta, IncrementalGraph, RepairReport
from repro.dynamic.updates import (
    UpdateBatch,
    UpdateSpec,
    UpdateSpecError,
    apply_updates,
    canonical_edges,
    generate_update_stream,
    parse_update_spec,
    weights_for_edges,
)

__all__ = [
    "UpdateBatch",
    "UpdateSpec",
    "UpdateSpecError",
    "apply_updates",
    "canonical_edges",
    "generate_update_stream",
    "parse_update_spec",
    "weights_for_edges",
    "GraphDelta",
    "IncrementalGraph",
    "RepairReport",
    "PatchOutcome",
    "levels_from_parent",
    "patch_bfs_result",
    "patch_sssp_result",
    "EquivalenceReport",
    "run_dynamic_smoke",
    "run_equivalence_gate",
]

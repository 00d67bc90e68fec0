"""The incremental-vs-rebuild equivalence gate.

The dynamic subsystem's whole claim is *bit-exactness under churn*:
after any update sequence, the incrementally repaired partition and the
incrementally patched results must equal — array for array, bit for
bit — a from-scratch rebuild of the live edge set plus a from-scratch
re-traversal.  :func:`run_equivalence_gate` drives that check across
seeded random update streams (insert-only, delete-only, mixed) over two
graph families (Graph500 R-MAT and a power-law configuration model):

per batch it

1. applies the batch through :class:`~repro.dynamic.repair.IncrementalGraph`
   and compacts;
2. rebuilds the partition from scratch with
   :meth:`~repro.dynamic.repair.IncrementalGraph.rebuild_reference` and
   compares every array of both partitions (:func:`parts_bitwise_equal`);
3. patches the previous batch's BFS result and SSSP result through
   :mod:`repro.dynamic.patch` and compares the patched parent array /
   distance array against fresh runs on the rebuilt partition.

Results chain: each batch patches the *previous* batch's (possibly
patched) result, so drift would compound and be caught.  The gate is
what ``python -m repro mutate --smoke`` runs in CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import BFSConfig
from repro.core.engine import DistributedBFS
from repro.core.partition import PartitionedGraph
from repro.core.programs.sssp import WeightTable
from repro.core.subgraphs import COMPONENT_ORDER
from repro.dynamic.patch import (
    _fresh_sssp,
    patch_bfs_result,
    patch_sssp_result,
)
from repro.dynamic.repair import IncrementalGraph
from repro.dynamic.updates import (
    UpdateSpec,
    generate_update_stream,
    weights_for_edges,
)
from repro.machine.network import MachineSpec
from repro.obs.metrics import NULL_METRICS
from repro.runtime.mesh import ProcessMesh

__all__ = ["CaseResult", "EquivalenceReport", "parts_bitwise_equal", "run_equivalence_gate"]

_VERTEX_FIELDS = (
    "degrees",
    "vclass",
    "eh_col",
    "eh_row",
    "e_ids",
    "h_ids",
    "col_eh_counts",
    "row_eh_counts",
    "l_per_rank",
)

_COMPONENT_FIELDS = (
    "src_ids",
    "src_indptr",
    "_slot_of",
    "_push_dst",
    "_push_rank",
    "grp_ptr",
    "grp_dst",
    "grp_rank",
    "_pull_src",
    "arcs_per_rank",
)


def parts_bitwise_equal(
    a: PartitionedGraph, b: PartitionedGraph
) -> list[str]:
    """Every array of two partitions compared exactly; returns mismatch
    descriptions (empty = bit-identical)."""
    problems = []
    for name in _VERTEX_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        if x.shape != y.shape or not np.array_equal(x, y):
            problems.append(f"partition field {name} differs")
    for comp in COMPONENT_ORDER:
        ca, cb = a.components[comp], b.components[comp]
        for name in _COMPONENT_FIELDS:
            x, y = getattr(ca, name), getattr(cb, name)
            if x.shape != y.shape or not np.array_equal(x, y):
                problems.append(f"component {comp} array {name} differs")
    return problems


@dataclass
class CaseResult:
    """One (family, kind) stream's gate outcome."""

    family: str
    kind: str
    num_batches: int
    mismatches: list = field(default_factory=list)
    #: Patch modes per batch (``unchanged``/``patched``/``recomputed``).
    bfs_modes: list = field(default_factory=list)
    sssp_modes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


@dataclass
class EquivalenceReport:
    """Aggregate outcome of :func:`run_equivalence_gate`."""

    cases: list

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)

    @property
    def num_batches(self) -> int:
        return sum(c.num_batches for c in self.cases)

    def mode_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for c in self.cases:
            for m in c.bfs_modes + c.sssp_modes:
                counts[m] = counts.get(m, 0) + 1
        return counts

    def summary(self) -> str:
        lines = []
        for c in self.cases:
            status = "ok" if c.ok else f"FAIL ({len(c.mismatches)} mismatches)"
            lines.append(
                f"{c.family}/{c.kind}: {c.num_batches} batches, "
                f"bfs={','.join(c.bfs_modes)}, "
                f"sssp={','.join(c.sssp_modes)} -> {status}"
            )
            lines.extend(f"  - {m}" for m in c.mismatches[:8])
        return "\n".join(lines)


def _family_edges(family: str, scale: int, edge_factor: int, seed: int):
    if family == "rmat":
        from repro.graph500.rmat import generate_edges

        return generate_edges(scale, edge_factor=edge_factor, seed=seed)
    if family == "powerlaw":
        from repro.graphs.generators import power_law_edges

        # The default exponent (2.2) collapses to a handful of canonical
        # edges at gate scales (hub collisions dedup away); 1.5 keeps a
        # real edge set while staying strongly skewed.
        return power_law_edges(
            2**scale, edge_factor * 2**scale, exponent=1.5, seed=seed
        )
    if family == "ring":
        from repro.graphs.generators import ring_lattice_edges

        # Long-diameter family: deep BFS trees are what give the result
        # patcher a prefix worth keeping (R-MAT diameters are ~4, so
        # most deltas there touch level 0-1 and force recomputes).
        return ring_lattice_edges(2**scale, neighbors=2)
    raise ValueError(f"unknown graph family {family!r}")


def _gate_thresholds(degrees: np.ndarray) -> tuple[int, int]:
    """Class thresholds placing real populations in E, H and L, with the
    boundaries near live degree mass so update streams actually cross
    them (the migration path is the thing under test)."""
    nz = degrees[degrees > 0]
    if nz.size == 0:
        return 2, 1
    h = max(3, int(np.quantile(nz, 0.90)))
    e = max(h + 1, int(np.quantile(nz, 0.99)))
    return e, h


def run_equivalence_gate(
    *,
    scale: int = 7,
    edge_factor: int = 8,
    families: tuple = ("rmat", "powerlaw"),
    kinds: tuple = ("insert", "delete", "mixed"),
    batches: int = 3,
    batch_size: int = 48,
    compact_every: int = 2,
    seed: int = 7,
    rows: int = 2,
    cols: int = 2,
    metrics=NULL_METRICS,
    log=None,
) -> EquivalenceReport:
    """Run the full gate matrix; every stream must stay bit-identical.

    ``log`` (a ``str -> None`` callable) receives one progress line per
    case.  The defaults cover 6 streams x 3 batches in a few seconds.
    """
    n = 2**scale
    machine = MachineSpec(num_nodes=rows * cols, nodes_per_supernode=cols)
    cases = []
    for family in families:
        src, dst = _family_edges(family, scale, edge_factor, seed)
        for kind in kinds:
            case = _run_stream(
                family, kind, src, dst, n,
                batches=batches, batch_size=batch_size,
                compact_every=compact_every, seed=seed,
                rows=rows, cols=cols, machine=machine, metrics=metrics,
            )
            cases.append(case)
            if log is not None:
                log(
                    f"gate {family}/{kind}: "
                    f"{'ok' if case.ok else 'MISMATCH'}"
                )
    return EquivalenceReport(cases=cases)


def _run_stream(
    family, kind, src, dst, n, *,
    batches, batch_size, compact_every, seed, rows, cols, machine, metrics,
) -> CaseResult:
    mesh = ProcessMesh(rows, cols, machine=machine)
    from repro.dynamic.updates import canonical_edges
    from repro.graphs.stats import degrees_from_edges

    # Thresholds come from the *canonical* (deduplicated) degrees the
    # incremental graph actually maintains, not the raw multigraph ones.
    c_lo, c_hi = canonical_edges(src, dst, n)
    e_thr, h_thr = _gate_thresholds(degrees_from_edges(c_lo, c_hi, n))
    inc = IncrementalGraph(
        src, dst, n, mesh,
        e_threshold=e_thr, h_threshold=h_thr,
        machine=machine, compact_every=compact_every, metrics=metrics,
    )
    spec = UpdateSpec(kind=kind, batches=batches, size=batch_size)
    lo, hi = inc.edges()
    stream = generate_update_stream(lo, hi, n, spec, seed=seed)

    case = CaseResult(family=family, kind=kind, num_batches=len(stream))
    config = BFSConfig(e_threshold=e_thr, h_threshold=h_thr)

    part = inc.graph()
    root = int(np.argmax(part.degrees))
    engine = DistributedBFS(part, machine=machine, config=config)
    bfs_res = engine.run(root)
    weight_of = _weight_table(inc, n)
    sssp_res = _fresh_sssp(engine, root, weight_of)

    for batch in stream:
        report = inc.apply_batch(batch)
        part = inc.graph()
        ref = inc.rebuild_reference()
        case.mismatches.extend(
            f"batch {report.batch_index}: {p}"
            for p in parts_bitwise_equal(part, ref)
        )

        # Engines freeze partition state; rebuild on the repaired part.
        engine = DistributedBFS(part, machine=machine, config=config)
        ref_engine = DistributedBFS(ref, machine=machine, config=config)
        weight_of = _weight_table(inc, n)

        outcome = patch_bfs_result(
            bfs_res, engine, report.delta, metrics=metrics
        )
        case.bfs_modes.append(outcome.mode)
        bfs_res = outcome.result
        fresh = ref_engine.run(root)
        if not np.array_equal(bfs_res.parent, fresh.parent):
            case.mismatches.append(
                f"batch {report.batch_index}: BFS parents diverge "
                f"({int(np.count_nonzero(bfs_res.parent != fresh.parent))} "
                f"vertices, patch mode {outcome.mode})"
            )
            bfs_res = fresh  # re-anchor so later batches stay meaningful

        s_outcome = patch_sssp_result(
            sssp_res, engine, report.delta,
            weight_of=weight_of, metrics=metrics,
        )
        case.sssp_modes.append(s_outcome.mode)
        sssp_res = s_outcome.result
        s_fresh = _fresh_sssp(ref_engine, root, weight_of)
        if not np.array_equal(sssp_res.distance, s_fresh.distance):
            case.mismatches.append(
                f"batch {report.batch_index}: SSSP distances diverge "
                f"({int(np.count_nonzero(sssp_res.distance != s_fresh.distance))} "
                f"vertices, patch mode {s_outcome.mode})"
            )
            sssp_res = s_fresh
    return case


def _weight_table(inc: IncrementalGraph, n: int) -> WeightTable:
    lo, hi = inc.edges()
    return WeightTable(n, weights_for_edges(lo, hi, n), lo, hi)

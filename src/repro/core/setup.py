"""From edge list to engine: the one graph set-up path.

Graph500 kernel 1 (§5) is a single pipeline — generate the R-MAT edge
list, pick the E/H/L degree thresholds, lay an ``R x C`` mesh over a
machine, place the arcs 1.5D — and every command, bench, tenant and
report in this repo starts from it.  :func:`build_setup` is that
pipeline written once; :class:`ExperimentSetup` is what it hands back.
Two runs built here differ only in what the caller asked to differ, so
a gap between them belongs to the traversal, not to the construction.

The one choice callers genuinely differ on is the machine model:

- ``weak_scaled=True`` (benchmark, experiment and program runs):
  :meth:`MachineSpec.scaled_for` the per-node edge count, so fixed
  overheads are priced as they would be at paper-scale per-node work
  (DESIGN.md §2).
- ``weak_scaled=False`` (serving, tenants, dynamic ingest): the plain
  per-node model.  Serving amortization is about communication shared
  across lanes, so the machine's real comm/compute balance is the
  honest denominator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.config import BFSConfig
from repro.core.partition import PartitionedGraph, partition_graph
from repro.graph500.rmat import generate_edges
from repro.graphs.stats import degrees_from_edges
from repro.machine.network import MachineSpec
from repro.runtime.mesh import ProcessMesh

__all__ = [
    "ExperimentSetup",
    "build_setup",
    "resolve_thresholds",
    "tuned_thresholds",
]


def tuned_thresholds(scale: int) -> tuple[int, int]:
    """(e_threshold, h_threshold) tuned per SCALE.

    Mirrors §6.2.1: thresholds sit in the valleys between degree-
    distribution peaks, and the H threshold rises with machine scale to
    bound the per-column delegate population.  Values picked by the same
    grid search the Fig. 12 bench performs, at small SCALE.
    """
    if scale <= 13:
        return 1024, 128
    if scale <= 15:
        return 2048, 256
    if scale <= 17:
        return 4096, 512
    if scale <= 19:
        return 4096, 512
    return 8192, 1024


def resolve_thresholds(
    scale: int, e_threshold: int | None = None, h_threshold: int | None = None
) -> tuple[int, int]:
    """The thresholds a run at ``scale`` uses: each one left ``None``
    takes its own tuned value, and the resolved pair must satisfy
    ``e >= h >= 1`` (E is the heaviest class)."""
    tuned_e, tuned_h = tuned_thresholds(scale)
    e = tuned_e if e_threshold is None else int(e_threshold)
    h = tuned_h if h_threshold is None else int(h_threshold)
    if not e >= h >= 1:
        raise ValueError(
            f"thresholds must satisfy e >= h >= 1, got e_threshold={e}, "
            f"h_threshold={h} (tuned for SCALE {scale}: {tuned_e}, {tuned_h})"
        )
    return e, h


@dataclass
class ExperimentSetup:
    """A generated workload bound to a simulated machine, a mesh and a
    pair of degree thresholds."""

    scale: int
    src: np.ndarray
    dst: np.ndarray
    num_vertices: int
    mesh: ProcessMesh
    machine: MachineSpec
    e_threshold: int
    h_threshold: int
    root: int

    @property
    def num_edges(self) -> int:
        return int(self.src.size)

    def with_thresholds(
        self, e_threshold: int | None = None, h_threshold: int | None = None
    ) -> "ExperimentSetup":
        """The same workload under other thresholds (one left ``None``
        keeps this setup's)."""
        e, h = resolve_thresholds(
            self.scale,
            self.e_threshold if e_threshold is None else e_threshold,
            self.h_threshold if h_threshold is None else h_threshold,
        )
        return replace(self, e_threshold=e, h_threshold=h)

    def on_machine(self, machine: MachineSpec) -> "ExperimentSetup":
        """The same workload on the same mesh shape over ``machine``."""
        mesh = ProcessMesh(self.mesh.rows, self.mesh.cols, machine=machine)
        return replace(self, machine=machine, mesh=mesh)

    def partition(self) -> PartitionedGraph:
        """Kernel 1: the 1.5D partition of the edge list on the mesh."""
        return partition_graph(
            self.src, self.dst, self.num_vertices, self.mesh,
            e_threshold=self.e_threshold, h_threshold=self.h_threshold,
        )

    def config(self, **overrides) -> BFSConfig:
        """The engine configuration matching :meth:`partition`."""
        kwargs = dict(e_threshold=self.e_threshold, h_threshold=self.h_threshold)
        kwargs.update(overrides)
        return BFSConfig(**kwargs)

    def incremental(self, **kwargs):
        """The edge list as a live
        :class:`~repro.dynamic.repair.IncrementalGraph` on the mesh, so
        repair is priced on the machine the graph is served on."""
        from repro.dynamic.repair import IncrementalGraph

        return IncrementalGraph(
            self.src, self.dst, self.num_vertices, self.mesh,
            e_threshold=self.e_threshold, h_threshold=self.h_threshold,
            **kwargs,
        )


def build_setup(
    scale: int,
    rows: int,
    cols: int,
    *,
    seed: int = 1,
    e_threshold: int | None = None,
    h_threshold: int | None = None,
    weak_scaled: bool = True,
    root_kind: str = "hub",
) -> ExperimentSetup:
    """Generate a Graph500 workload on a ``rows x cols`` simulated mesh.

    Supernodes are sized to one mesh row (the paper's topology mapping);
    ``weak_scaled`` picks the machine model (see the module docstring).
    ``root_kind`` is ``"hub"`` (max degree, the dense regime) or
    ``"random"`` (Graph500's sampling).
    """
    e_threshold, h_threshold = resolve_thresholds(scale, e_threshold, h_threshold)
    src, dst = generate_edges(scale, seed=seed)
    n = 1 << scale
    p = rows * cols
    machine = MachineSpec(num_nodes=p, nodes_per_supernode=cols)
    if weak_scaled:
        machine = machine.scaled_for(src.size / p)
    mesh = ProcessMesh(rows, cols, machine=machine)
    degrees = degrees_from_edges(src, dst, n)
    if root_kind == "hub":
        root = int(np.argmax(degrees))
    else:
        rng = np.random.default_rng(seed + 1)
        root = int(rng.choice(np.flatnonzero(degrees > 0)))
    return ExperimentSetup(
        scale, src, dst, n, mesh, machine, e_threshold, h_threshold, root
    )

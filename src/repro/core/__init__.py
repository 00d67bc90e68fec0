"""The paper's primary contribution: 3-level degree-aware 1.5D BFS.

- :mod:`repro.core.partition` — vertex classification (E/H/L), the six
  arc components, and their mesh placement (§4.1).
- :mod:`repro.core.subgraphs` — component storage with push/pull access
  paths and exact per-rank load accounting.
- :mod:`repro.core.direction` — sub-iteration direction heuristics (§4.2).
- :mod:`repro.core.segmenting` — CG-aware core subgraph segmenting (§4.3).
- :mod:`repro.core.balance` — edge-aware vertex-cut load balancing (§5).
- :mod:`repro.core.engine` — the BFS engine tying it together.
- :mod:`repro.core.programs` — the vertex-program layer: SSSP,
  PageRank, connected components and triangle counting on the same
  scheduler and kernels (§8's algorithm neutrality).
- :mod:`repro.core.metrics` — per-run traces shaped like the paper's
  figures.
- :mod:`repro.core.config` — toggles for every optimization (ablations).
- :mod:`repro.core.setup` — the one path from an edge list to an engine
  (thresholds, generation, machine, mesh, partition).
"""

from repro.core.balance import edge_aware_cuts, vertex_cut_imbalance
from repro.core.config import BFSConfig
from repro.core.programs import (
    DeltaSteppingResult,
    PageRankResult,
    ProgramRunResult,
    SSSPResult,
    VertexProgram,
    build_program,
    connected_components,
    delta_stepping_sssp,
    generate_weights,
    pagerank,
    sssp,
    suggest_delta,
    triangle_count,
)
from repro.core.preprocessing import (
    PreprocessingReport,
    estimate_construction_seconds,
    preprocess,
)
from repro.core.direction import (
    ClassState,
    choose_component_direction,
    choose_whole_iteration_direction,
)
from repro.core.engine import DistributedBFS
from repro.core.metrics import BFSRunResult, IterationRecord
from repro.core.partition import (
    PartitionedGraph,
    VertexClass,
    partition_graph,
)
from repro.core.segmenting import SegmentingPlan, plan_segmenting
from repro.core.subgraphs import COMPONENT_ORDER, SubgraphComponent

__all__ = [
    "BFSConfig",
    "DistributedBFS",
    "BFSRunResult",
    "IterationRecord",
    "PartitionedGraph",
    "VertexClass",
    "partition_graph",
    "SubgraphComponent",
    "COMPONENT_ORDER",
    "SegmentingPlan",
    "plan_segmenting",
    "ClassState",
    "choose_component_direction",
    "choose_whole_iteration_direction",
    "edge_aware_cuts",
    "vertex_cut_imbalance",
    "sssp",
    "SSSPResult",
    "delta_stepping_sssp",
    "DeltaSteppingResult",
    "suggest_delta",
    "generate_weights",
    "pagerank",
    "PageRankResult",
    "VertexProgram",
    "ProgramRunResult",
    "build_program",
    "connected_components",
    "triangle_count",
    "preprocess",
    "PreprocessingReport",
    "estimate_construction_seconds",
]

"""Vertex programs: the algorithm-neutral layer over the 1.5D engine.

One :class:`~repro.core.programs.base.VertexProgram` contract, one
scheduler loop, six component kernels — every registered program
inherits §4.2 direction choices, ledger charging, spans, metric
families, fault injection and checkpointing with zero per-algorithm
glue.  See ``docs/programs.md`` for the contract and a tutorial.

The :data:`PROGRAM_REGISTRY` maps CLI/serving names to factories, and a
factory's keywords are the program's parameters
(:attr:`ProgramSpec.params`).  A program runs one way::

    result = DistributedBFS(part).run_program(build_program(name, part, **params))

:func:`build_program` is the single entry point the ``algo``
subcommand, kernel 3, the programs smoke, the dynamic SSSP patch and
:class:`~repro.serve.service.TraversalService` resolve through, and the
:class:`~repro.core.programs.base.ProgramRunResult` the scheduler builds
is the one result: ``state`` holds the program's per-vertex arrays
(``distance``/``parent``, ``ranks``, ``labels``, ``triangles``) and
``info`` its scalars (``relaxations``, ``delta``, ``num_buckets``,
``num_components``, ``total_triangles``, ...).
BFS itself stays on the scheduler's native ``run`` path (its early-exit
pull and MSBFS batching are visited-bit machinery a value program does
not need); the registry marks it ``native_bfs`` so callers dispatch it
to ``engine.run(root)``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.programs.base import EMPTY_IDS, ProgramRunResult, VertexProgram
from repro.core.programs.components import ConnectedComponentsProgram
from repro.core.programs.pagerank import PageRankProgram
from repro.core.programs.sssp import (
    BellmanFordProgram,
    DeltaSteppingProgram,
    WeightTable,
    generate_weights,
    suggest_delta,
)
from repro.core.programs.triangles import TriangleCountingProgram

__all__ = [
    "VertexProgram",
    "ProgramRunResult",
    "EMPTY_IDS",
    "ProgramSpec",
    "PROGRAM_REGISTRY",
    "register_program",
    "available_programs",
    "build_program",
    "program_params",
    "BellmanFordProgram",
    "DeltaSteppingProgram",
    "PageRankProgram",
    "ConnectedComponentsProgram",
    "TriangleCountingProgram",
    "WeightTable",
    "generate_weights",
    "suggest_delta",
]


@dataclass(frozen=True)
class ProgramSpec:
    """Registry entry: how to build (and describe) one program."""

    name: str
    factory: Callable
    description: str
    #: BFS dispatches to the scheduler's native ``run``/``run_batch``
    #: path instead of ``run_program`` (early-exit pull, MSBFS lanes).
    native_bfs: bool = False

    @property
    def params(self) -> tuple[str, ...]:
        """The program's parameters: its factory's keywords after
        ``part``.  A ``root`` among them makes it a traversal from a
        source vertex (required by serving; the CLI defaults it to the
        max-degree hub)."""
        return tuple(inspect.signature(self.factory).parameters)[1:]


PROGRAM_REGISTRY: dict[str, ProgramSpec] = {}


def register_program(spec: ProgramSpec) -> ProgramSpec:
    """Register a program under its name (rejects duplicates)."""
    if spec.name in PROGRAM_REGISTRY:
        raise ValueError(f"program already registered for {spec.name!r}")
    PROGRAM_REGISTRY[spec.name] = spec
    return spec


def available_programs() -> tuple[str, ...]:
    return tuple(sorted(PROGRAM_REGISTRY))


def build_program(name: str, part, **params) -> VertexProgram:
    """Build a registered program for ``part``.

    ``params`` are forwarded to the factory and must be among the
    spec's :attr:`~ProgramSpec.params` (``root``, ``weights``,
    ``delta``, ``damping``, ...).  Raises ``ValueError`` for unknown
    names, for any other keyword (before the factory runs) and for
    ``"bfs"`` (which runs natively through ``engine.run(root)``, not the
    program path).
    """
    spec = PROGRAM_REGISTRY.get(name)
    if spec is None:
        raise ValueError(
            f"unknown program {name!r} (available: "
            f"{', '.join(available_programs())})"
        )
    if spec.native_bfs:
        raise ValueError(
            "bfs runs natively through engine.run(root); "
            "build_program only constructs vertex programs"
        )
    unknown = sorted(set(params) - set(spec.params))
    if unknown:
        raise ValueError(
            f"program {name!r} takes no {', '.join(unknown)} "
            f"(accepted: {', '.join(spec.params) or 'none'})"
        )
    return spec.factory(part, **params)


def program_params(
    name: str, setup, *, weight_seed: int, unit_weights: bool = False,
    **given,
) -> dict:
    """The keywords program ``name`` runs with on a generated graph.

    ``given`` are explicit parameters (``None`` values are dropped).  A
    ``root`` parameter defaults to ``setup.root``, the max-degree hub.
    A ``weights`` parameter gets the seeded table
    ``generate_weights(edges, seed=weight_seed)`` aligned to
    ``setup.src`` / ``setup.dst``, unless ``unit_weights``.
    """
    spec = PROGRAM_REGISTRY[name]
    params = {k: v for k, v in given.items() if v is not None}
    if "root" in spec.params:
        params.setdefault("root", setup.root)
    if "weights" in spec.params and not unit_weights:
        params.update(
            weights=generate_weights(setup.src.size, seed=weight_seed),
            edge_src=setup.src, edge_dst=setup.dst,
        )
    return params


# ----------------------------------------------------------------------
# built-in registrations
# ----------------------------------------------------------------------


def _bfs_factory(part, *, root):  # pragma: no cover - guarded above
    raise ValueError("bfs runs natively through engine.run(root)")


def _weight_table(part, weights, edge_src, edge_dst, context):
    """The SSSP factories' edge-weight lookup (``None``: unit weights)."""
    if weights is None:
        return None
    if edge_src is None or edge_dst is None:
        raise ValueError("weights require edge_src/edge_dst for alignment")
    return WeightTable(
        part.num_vertices, weights, edge_src, edge_dst, context=context
    )


def _sssp_factory(
    part,
    *,
    root: int = 0,
    weights=None,
    edge_src=None,
    edge_dst=None,
    max_iterations: int = 10_000,
):
    program = BellmanFordProgram(
        root, _weight_table(part, weights, edge_src, edge_dst, "sssp")
    )
    program.max_iterations = int(max_iterations)
    return program


def _delta_factory(
    part,
    *,
    root: int = 0,
    weights=None,
    edge_src=None,
    edge_dst=None,
    delta=None,
    max_buckets: int = 1_000_000,
):
    weight_of = _weight_table(
        part, weights, edge_src, edge_dst, "delta-stepping"
    )
    if delta is None:
        sample = np.ones(1) if weights is None else weights
        delta = suggest_delta(np.asarray(sample, dtype=np.float64), part.degrees)
    return DeltaSteppingProgram(root, weight_of, delta, max_buckets=max_buckets)


def _pagerank_factory(
    part,
    *,
    damping: float = 0.85,
    tol: float = 1e-8,
    max_iterations: int = 100,
):
    return PageRankProgram(
        damping=damping, tol=tol, max_iterations=max_iterations
    )


def _cc_factory(part):
    return ConnectedComponentsProgram()


def _triangles_factory(part):
    return TriangleCountingProgram()


register_program(
    ProgramSpec(
        name="bfs",
        factory=_bfs_factory,
        description="Graph500 BFS (native scheduler path, MSBFS-batchable)",
        native_bfs=True,
    )
)
register_program(
    ProgramSpec(
        name="sssp",
        factory=_sssp_factory,
        description="Bellman-Ford SSSP (unit weights unless provided)",
    )
)
register_program(
    ProgramSpec(
        name="sssp-delta",
        factory=_delta_factory,
        description="delta-stepping SSSP (buckets as staged frontiers)",
    )
)
register_program(
    ProgramSpec(
        name="pagerank",
        factory=_pagerank_factory,
        description="damped PageRank power iteration",
    )
)
register_program(
    ProgramSpec(
        name="cc",
        factory=_cc_factory,
        description="connected components by min-label propagation",
    )
)
register_program(
    ProgramSpec(
        name="triangles",
        factory=_triangles_factory,
        description="exact triangle counting by arc-wise intersection",
    )
)

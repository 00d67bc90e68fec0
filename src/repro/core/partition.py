"""3-level degree-aware 1.5D graph partitioning (paper §4.1).

Pipeline (mirrors the paper's in-place preprocessing):

1. compute undirected degrees;
2. classify vertices: **E** (degree >= ``e_threshold``), **H** (degree >=
   ``h_threshold``), **L** (the rest);
3. give E and H vertices new dense IDs ordered by degree descending (the
   "new ID among the higher degree vertices" relabeling) — used for
   delegate bitmap sizing;
4. split the symmetrized arc set into the six components and place each
   arc on its owning mesh rank (see :mod:`repro.core.subgraphs` for the
   placement table);
5. freeze each component into its push/pull access structures.

Steps 2-3 are :func:`vertex_layout` and step 4 is :func:`place_arcs`;
:mod:`repro.dynamic`'s incremental repair runs the same two per batch.

Degenerate settings reproduce the paper's §4.1 observations: with
``h_threshold == e_threshold`` there are no H vertices and the scheme
collapses toward 1D-with-heavy-delegates; with a threshold of 1 every
vertex is delegated and it collapses toward 2D.

Two placement modes
-------------------

``placement="cyclic"`` (the default, and the paper's static pipeline)
deals E-endpoint EH2EH arcs over the mesh by their *position* in the
global arc array, and assigns EH-space columns/rows by dense degree-
descending re-ID.  Both choices depend on the edge list's order and on
the full degree ranking, so the placement of untouched arcs shifts when
edges are inserted or deleted — fine for a frozen graph, fatal for
incremental repair.

``placement="stable"`` replaces both order-dependent choices with
content hashes (a splitmix64 mix of the endpoint IDs): every arc and
every EH vertex lands on a rank that is a pure function of its own
content and the current degree classes.  Inserting or deleting an edge
then moves only that edge's arcs (plus the incident arcs of vertices
whose class changed), which is the property :mod:`repro.dynamic`'s
incremental-vs-rebuild equivalence gate is built on.  The spread
quality is the same in expectation — a hash deal is statistically the
same deal as a cyclic one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.subgraphs import COMPONENT_ORDER, SubgraphComponent
from repro.graphs.csr import symmetrize_edges
from repro.graphs.stats import degrees_from_edges
from repro.runtime.mesh import ProcessMesh

__all__ = [
    "VertexClass",
    "CLASS_CODES",
    "class_count",
    "PartitionedGraph",
    "partition_graph",
    "classify_vertices",
    "eh_placement",
    "vertex_layout",
    "place_arcs",
    "mix64",
]

#: Valid values of ``partition_graph(..., placement=)``.
PLACEMENT_MODES = ("cyclic", "stable")


def mix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer: a high-quality 64-bit mix.

    Used by the stable placement mode to derive content-deterministic
    mesh coordinates from vertex and arc identities.
    """
    z = np.asarray(x).astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class VertexClass:
    """Degree-class codes stored in :attr:`PartitionedGraph.vclass`."""

    L = 0
    H = 1
    E = 2


#: Columns of a ``[..., class]`` count array (``VertexSet.counts``, the
#: ``LaneState`` counts) that make up each degree class.
CLASS_CODES = {
    "E": [VertexClass.E],
    "H": [VertexClass.H],
    "L": [VertexClass.L],
    "EH": [VertexClass.E, VertexClass.H],
}


def class_count(counts: np.ndarray, cls: str) -> int:
    """Population of degree class ``cls`` in a ``[class]`` count array —
    the integer a popcount of the set over the class mask would give."""
    return sum(int(counts[code]) for code in CLASS_CODES[cls])


#: Source/destination degree class of each component, used by the
#: direction heuristics.  "EH" means the merged E+H class.
COMPONENT_CLASSES = {
    "EH2EH": ("EH", "EH"),
    "E2L": ("E", "L"),
    "L2E": ("L", "E"),
    "H2L": ("H", "L"),
    "L2H": ("L", "H"),
    "L2L": ("L", "L"),
}

#: Components whose arcs stay on one node for both directions (§4.2).
NODE_LOCAL_COMPONENTS = frozenset({"EH2EH", "E2L", "L2E"})


@dataclass
class PartitionedGraph:
    """A graph partitioned by the 3-level degree-aware 1.5D scheme."""

    mesh: ProcessMesh
    num_vertices: int
    e_threshold: int
    h_threshold: int
    #: Undirected degree per vertex.
    degrees: np.ndarray
    #: Per-vertex class code (:class:`VertexClass`).
    vclass: np.ndarray
    #: The six components, keyed by name.
    components: dict[str, SubgraphComponent]
    #: E and H vertex IDs, each sorted by degree descending.
    e_ids: np.ndarray
    h_ids: np.ndarray
    #: Per-vertex mesh column/row of the EH-space placement (-1 for L).
    #: EH vertices are re-IDed by degree descending and dealt cyclically
    #: over the mesh, which is what spreads hub adjacency evenly (§4.1's
    #: "given a new ID among the higher degree vertices"); stable
    #: placement hashes the vertex id instead.
    eh_col: np.ndarray
    eh_row: np.ndarray
    #: EH delegate population per mesh column / row (bitmap sizes).
    col_eh_counts: np.ndarray
    row_eh_counts: np.ndarray
    #: L vertices per rank (block distribution).
    l_per_rank: np.ndarray
    #: Placement mode the partition was built with ("cyclic" or
    #: "stable"); incremental repair requires "stable".
    placement: str = "cyclic"

    # ------------------------------------------------------------------

    @property
    def num_e(self) -> int:
        return int(self.e_ids.size)

    @property
    def num_h(self) -> int:
        return int(self.h_ids.size)

    @property
    def num_eh(self) -> int:
        return self.num_e + self.num_h

    @property
    def num_l(self) -> int:
        return self.num_vertices - self.num_eh

    @property
    def total_arcs(self) -> int:
        return sum(c.num_arcs for c in self.components.values())

    def class_masks(self) -> dict[str, np.ndarray]:
        """Boolean masks for E, H, L, and merged EH."""
        is_e = self.vclass == VertexClass.E
        is_h = self.vclass == VertexClass.H
        return {"E": is_e, "H": is_h, "L": self.vclass == VertexClass.L, "EH": is_e | is_h}

    def class_sizes(self) -> dict[str, int]:
        return {k: int(v.sum()) for k, v in self.class_masks().items()}

    def component_load_vectors(self) -> dict[str, np.ndarray]:
        """Per-rank arc counts per component (Figure 13's distributions)."""
        return {name: c.arcs_per_rank.copy() for name, c in self.components.items()}

    def core_fraction(self) -> float:
        """Fraction of arcs in the EH2EH core subgraph (paper: >60% of
        edges are between E/H vertices in Graph500 graphs)."""
        if self.total_arcs == 0:
            return 0.0
        return self.components["EH2EH"].num_arcs / self.total_arcs


def classify_vertices(
    degrees: np.ndarray, *, e_threshold: int, h_threshold: int
) -> np.ndarray:
    """Per-vertex class codes from undirected degrees (step 2)."""
    vclass = np.zeros(degrees.size, dtype=np.int8)
    vclass[degrees >= h_threshold] = VertexClass.H
    vclass[degrees >= e_threshold] = VertexClass.E
    return vclass


def eh_placement(
    vclass: np.ndarray,
    degrees: np.ndarray,
    mesh: ProcessMesh,
    *,
    placement: str = "cyclic",
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(e_ids, h_ids, eh_col, eh_row)`` for the current classes.

    ``e_ids``/``h_ids`` are always sorted by degree descending (dense
    re-ID order, used for delegate bitmap sizing).  The EH-space mesh
    coordinates depend on the mode: cyclic deals the degree-descending
    re-IDs over columns/rows (order-dependent under degree drift),
    stable hashes each vertex ID (a pure function of the vertex, so a
    reclassification moves only that vertex's delegates).
    """
    num_vertices = int(vclass.size)

    # Dense re-IDs by degree descending (stable on vertex id).
    def by_degree_desc(ids: np.ndarray) -> np.ndarray:
        if ids.size == 0:
            return ids
        order = np.lexsort((ids, -degrees[ids]))
        return ids[order]

    e_ids = by_degree_desc(np.flatnonzero(vclass == VertexClass.E))
    h_ids = by_degree_desc(np.flatnonzero(vclass == VertexClass.H))
    eh_order = np.concatenate([e_ids, h_ids])

    if placement == "stable":
        is_eh = vclass >= VertexClass.H
        hashed = mix64(np.arange(num_vertices, dtype=np.int64))
        eh_col = np.where(
            is_eh, (hashed % np.uint64(mesh.cols)).astype(np.int64), -1
        )
        eh_row = np.where(
            is_eh,
            ((hashed // np.uint64(mesh.cols)) % np.uint64(mesh.rows)).astype(
                np.int64
            ),
            -1,
        )
        return e_ids, h_ids, eh_col, eh_row

    # Cyclic: dense IDs by degree descending, dealt cyclically over
    # columns (and row-cyclically within a column's deal) so the
    # heaviest vertices' delegate load spreads evenly over the mesh.
    eh_index = np.full(num_vertices, -1, dtype=np.int64)
    if eh_order.size:
        eh_index[eh_order] = np.arange(eh_order.size, dtype=np.int64)
    eh_col = np.where(eh_index >= 0, eh_index % mesh.cols, -1)
    eh_row = np.where(eh_index >= 0, (eh_index // mesh.cols) % mesh.rows, -1)
    return e_ids, h_ids, eh_col, eh_row


def vertex_layout(
    degrees: np.ndarray,
    mesh: ProcessMesh,
    *,
    e_threshold: int,
    h_threshold: int,
    placement: str,
) -> dict[str, np.ndarray]:
    """Every per-vertex field of a :class:`PartitionedGraph` (steps 2-3).

    Returns ``degrees``, ``vclass``, ``e_ids``/``h_ids``,
    ``eh_col``/``eh_row``, the EH delegate counts per mesh column / row
    (bitmap sizes) and the L vertices per rank (block distribution) —
    pure functions of the degrees, so the static partition and each
    incremental repair generation derive them the same way.
    """
    if e_threshold < h_threshold:
        raise ValueError(
            f"e_threshold ({e_threshold}) must be >= h_threshold ({h_threshold})"
        )
    if placement not in PLACEMENT_MODES:
        raise ValueError(
            f"unknown placement mode {placement!r}; expected one of "
            f"{PLACEMENT_MODES}"
        )
    vclass = classify_vertices(
        degrees, e_threshold=e_threshold, h_threshold=h_threshold
    )
    e_ids, h_ids, eh_col, eh_row = eh_placement(
        vclass, degrees, mesh, placement=placement
    )
    eh_ids = np.concatenate([e_ids, h_ids])
    l_ids = np.flatnonzero(vclass == VertexClass.L)
    return {
        "degrees": degrees,
        "vclass": vclass,
        "e_ids": e_ids,
        "h_ids": h_ids,
        "eh_col": eh_col,
        "eh_row": eh_row,
        "col_eh_counts": np.bincount(eh_col[eh_ids], minlength=mesh.cols),
        "row_eh_counts": np.bincount(eh_row[eh_ids], minlength=mesh.rows),
        "l_per_rank": np.bincount(
            mesh.owner_of(l_ids, degrees.size), minlength=mesh.num_ranks
        ),
    }


def _component_table() -> np.ndarray:
    """``[source class, destination class] -> COMPONENT_ORDER index``."""
    table = np.empty((3, 3), dtype=np.int64)
    for i, name in enumerate(COMPONENT_ORDER):
        s_cls, d_cls = COMPONENT_CLASSES[name]
        table[np.ix_(CLASS_CODES[s_cls], CLASS_CODES[d_cls])] = i
    return table


_COMPONENT_OF = _component_table()
_EH2EH, _H2L = COMPONENT_ORDER.index("EH2EH"), COMPONENT_ORDER.index("H2L")


def place_arcs(
    a_src: np.ndarray, a_dst: np.ndarray, part: PartitionedGraph
) -> tuple[np.ndarray, np.ndarray]:
    """``(component_index, rank)`` per arc under ``part``'s vertex layout
    (step 4's placement table).

    ``component_index`` indexes :data:`~repro.core.subgraphs.COMPONENT_ORDER`.
    Cyclic placement deals an EH2EH arc by its position in ``a_src``
    (the global symmetrized array when :func:`partition_graph` calls);
    stable placement hashes the endpoint pair instead, so an arc's rank
    never depends on what other arcs exist.
    """
    mesh, cols = part.mesh, part.mesh.cols
    sc, dc = part.vclass[a_src], part.vclass[a_dst]
    comp_of = _COMPONENT_OF[sc, dc]
    o_src = mesh.owner_of(a_src, part.num_vertices)
    o_dst = mesh.owner_of(a_dst, part.num_vertices)

    # Rank per arc, by component placement rule.
    #
    # H endpoints pin an arc to the H vertex's EH-space column (source) or
    # row (destination) — that is where H's delegates live.  E endpoints
    # are delegated on *every* node (§4.1), so their adjacency is free to
    # be dealt cyclically across columns/rows; this is what breaks up the
    # super-hubs' adjacency mass and gives the tight Fig. 13 balance.
    # L endpoints place by block ownership: L2E, L2H and L2L with the
    # source, E2L with the destination, H2L in the destination's row.
    rank = np.where(sc == VertexClass.L, o_src, o_dst)
    m = comp_of == _H2L
    rank[m] = o_dst[m] // cols * cols + part.eh_col[a_src[m]]
    core = np.flatnonzero(comp_of == _EH2EH)
    s, d = a_src[core], a_dst[core]
    if part.placement == "stable":
        deal = mix64(mix64(s) + d.astype(np.uint64))
    else:
        deal = core.astype(np.uint64)
    col = (deal % np.uint64(cols)).astype(np.int64)
    row = (deal // np.uint64(cols) % np.uint64(mesh.rows)).astype(np.int64)
    col = np.where(sc[core] == VertexClass.H, part.eh_col[s], col)
    row = np.where(dc[core] == VertexClass.H, part.eh_row[d], row)
    rank[core] = row * cols + col
    return comp_of, rank


def partition_graph(
    src: np.ndarray,
    dst: np.ndarray,
    num_vertices: int,
    mesh: ProcessMesh,
    *,
    e_threshold: int,
    h_threshold: int,
    placement: str = "cyclic",
) -> PartitionedGraph:
    """Partition an undirected edge list into the six 1.5D components.

    Parameters
    ----------
    src, dst:
        Undirected edge list (one entry per edge; self loops dropped).
    num_vertices:
        Vertex count; the mesh's block distribution covers ``[0, n)``.
    mesh:
        The R x C process mesh.
    e_threshold, h_threshold:
        Degree class thresholds, ``e_threshold >= h_threshold``.
    placement:
        ``"cyclic"`` (default, order-dependent deal — the static
        pipeline) or ``"stable"`` (content-hashed deal, required by
        :mod:`repro.dynamic`'s incremental repair; see module docs).
    """
    degrees = degrees_from_edges(src, dst, num_vertices)
    part = PartitionedGraph(
        mesh=mesh,
        num_vertices=num_vertices,
        e_threshold=e_threshold,
        h_threshold=h_threshold,
        components={},
        placement=placement,
        **vertex_layout(
            degrees,
            mesh,
            e_threshold=e_threshold,
            h_threshold=h_threshold,
            placement=placement,
        ),
    )
    a_src, a_dst = symmetrize_edges(src, dst)
    comp_of, rank = place_arcs(a_src, a_dst, part)
    for i, name in enumerate(COMPONENT_ORDER):
        sel = comp_of == i
        part.components[name] = SubgraphComponent(
            name, a_src[sel], a_dst[sel], rank[sel], mesh.num_ranks, num_vertices
        )
    return part

"""2D-partitioned baseline (Yoo'05, Checconi'12, Ueno'17).

The adjacency matrix is partitioned over the R x C mesh: arc ``(u, v)``
lives at rank ``(row(owner(v)), col(owner(u)))``, which is "delegating all
vertices on rows and columns" (§2.1.1).  Traversal needs no per-edge
messages — expansion reads column-replicated source bits and writes
row-replicated destination bits — but every iteration must synchronize
those replicas:

- the frontier bits of each column's vertices allreduce down the column,
- the newly-visited bits of each row's vertices allreduce along the row,

a per-rank volume of ``n/C + n/R ~ |V_local| * sqrt(P)`` bits, the
scalability wall §2.3 quantifies (5.56e10 shared vertices at the paper's
scale).  Parents of all vertices are delegate-collected, so the final
reduction covers the whole vertex set.
"""

from __future__ import annotations

from repro.baselines.common import BaselineEngine
from repro.core.kernels.fifteend import FifteenDContext
from repro.core.subgraphs import SubgraphComponent
from repro.graphs.csr import symmetrize_edges
from repro.machine.costmodel import CollectiveKind

__all__ = ["TwoDimBFS"]


class TwoDimBFS(BaselineEngine):
    """2D (block) partitioning with row/column vertex delegation."""

    scheme = "2D"

    def _build_components(self, src, dst):
        a_src, a_dst = symmetrize_edges(src, dst)
        o_src = self.mesh.owner_of(a_src, self.num_vertices)
        o_dst = self.mesh.owner_of(a_dst, self.num_vertices)
        rank = self.mesh.row_of(o_dst) * self.mesh.cols + self.mesh.col_of(o_src)
        return {
            "2D": SubgraphComponent(
                "2D", a_src, a_dst, rank, self._p, self.num_vertices
            )
        }

    # ------------------------------------------------------------------

    def _col_vertex_bits(self) -> int:
        """Vertices owned by the ranks of one mesh column (max)."""
        per_rank = self.mesh.block_size(self.num_vertices)
        return per_rank * self.mesh.rows

    def _row_vertex_bits(self) -> int:
        per_rank = self.mesh.block_size(self.num_vertices)
        return per_rank * self.mesh.cols

    def charge_iteration_sync(self, ledger, active, visited):
        # Column allreduce of frontier bits (sources), row allreduce of
        # visited/next bits (destinations): the O(|V_local| * sqrt(P)) term.
        mesh = self.mesh
        # (replica bits, ranks splitting the sparse list, participants, scope)
        for bits, sharers, participants, ranks in (
            (self._col_vertex_bits(), mesh.cols, mesh.rows, mesh.col_ranks(0)),
            (self._row_vertex_bits(), mesh.rows, mesh.cols, mesh.row_ranks(0)),
        ):
            ledger.charge_allreduce(
                "other",
                participants,
                FifteenDContext.sync_bytes(bits, -(-len(active) // sharers)),
                mesh.group_traffic_split(ranks),
            )

    def charge_push_messages(self, name, sel, ledger):
        pass  # updates land in row delegates; the sync above carries them

    def charge_pull_prereq(self, name, ledger, active, visited):
        pass  # column bits are already replicated by the sync

    def charge_parent_reduction(self, ledger):
        # All vertices are delegated: parents reduce over rows (each owner
        # collects from its row's replicas).
        ledger.charge_scoped(
            "reduce",
            CollectiveKind.REDUCE_SCATTER,
            self.mesh.cols,
            float(self._row_vertex_bits()) * 8,
            self.mesh.group_traffic_split(self.mesh.row_ranks(0)),
        )

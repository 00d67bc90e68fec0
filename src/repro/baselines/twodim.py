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

from repro.baselines.common import BaselineEngine, BaselineKernel
from repro.core.subgraphs import SubgraphComponent
from repro.graphs.csr import symmetrize_edges
from repro.machine.costmodel import CollectiveKind

__all__ = ["TwoDimBFS"]


class TwoDimBFS(BaselineEngine):
    """2D (block) partitioning with row/column vertex delegation."""

    scheme = "2D"

    def _build_kernels(self, src, dst):
        # Updates land in row delegates and column bits are replicated by
        # the per-iteration sync: the component messages nothing.
        a_src, a_dst = symmetrize_edges(src, dst)
        o_src = self.mesh.owner_of(a_src, self.num_vertices)
        o_dst = self.mesh.owner_of(a_dst, self.num_vertices)
        rank = self.mesh.row_of(o_dst) * self.mesh.cols + self.mesh.col_of(o_src)
        comp = SubgraphComponent(
            "2D", a_src, a_dst, rank, self.ctx.num_ranks, self.num_vertices
        )
        return {"2D": BaselineKernel(self.ctx, comp)}

    def _row_vertex_bits(self) -> int:
        """Vertices owned by the ranks of one mesh row (max)."""
        return self.mesh.block_size(self.num_vertices) * self.mesh.cols

    def begin_iteration(self, ledger, active, visited):
        # Column allreduce of frontier bits (sources), row allreduce of
        # visited/next bits (destinations): the O(|V_local| * sqrt(P)) term.
        ctx, mesh = self.ctx, self.mesh
        col_bits = mesh.block_size(self.num_vertices) * mesh.rows
        # (replica bits, ranks splitting the sparse list, participants, split)
        for bits, sharers, participants, split in (
            (col_bits, mesh.cols, mesh.rows, ctx.split_col),
            (self._row_vertex_bits(), mesh.rows, mesh.cols, ctx.split_row),
        ):
            ledger.charge_allreduce(
                "other",
                participants,
                ctx.sync_bytes(bits, -(-len(active) // sharers)),
                split,
            )

    def end_run(self, ledger, tracer, parent):
        # All vertices are delegated: parents reduce over rows (each owner
        # collects from its row's replicas).
        ledger.charge_scoped(
            "reduce",
            CollectiveKind.REDUCE_SCATTER,
            self.mesh.cols,
            float(self._row_vertex_bits()) * 8,
            self.ctx.split_row,
        )

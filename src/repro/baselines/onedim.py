"""1D-partitioned baselines: vanilla and heavy-delegated.

**Vanilla 1D** (Buluc & Madduri, SC'11): every arc lives at its source's
owner.  Top-down sends one message per frontier arc through a *global*
alltoallv; bottom-up needs the full frontier bitmap on every rank (a
global allgather of n bits) — both patterns scale poorly, and heavy
vertices concentrate whole adjacency lists on single ranks (the load
imbalance §2.1.1 describes).

**1D with heavy delegates** (Pearce'14 / Checconi'14 / Lin'17): vertices
above ``heavy_threshold`` are delegated on every node.  Arcs touching a
heavy endpoint become node-local (delegate bits carry the information),
so only light-light arcs still message.  The price is a per-iteration
global allreduce of the heavy bitmap and a final parent reduction over
*all* heavy vertices — the §2.3 scalability wall: at SCALE 44 the paper
estimates 1.76e10 delegated vertices per node, which no longer fits.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import BaselineEngine, BaselineKernel, GlobalMessageKernel
from repro.core.partition import VertexClass, class_count
from repro.core.subgraphs import SubgraphComponent
from repro.graphs.csr import symmetrize_edges
from repro.machine.costmodel import CollectiveKind

__all__ = ["OneDimBFS", "DelegatedOneDimBFS"]


class OneDimBFS(BaselineEngine):
    """Vanilla 1D partitioning."""

    scheme = "1D"

    def _build_kernels(self, src, dst):
        a_src, a_dst = symmetrize_edges(src, dst)
        rank = self.mesh.owner_of(a_src, self.num_vertices)
        comp = SubgraphComponent(
            "ALL", a_src, a_dst, rank, self.ctx.num_ranks, self.num_vertices
        )
        # Without delegates every vertex is light.
        return {"ALL": GlobalMessageKernel(self.ctx, comp, self.num_vertices)}

    def begin_iteration(self, ledger, active, visited):
        # No delegates: nothing to synchronize beyond the frontier counts
        # (a scalar allreduce folded into the barrier).  Parents are
        # owner-local, so there is no reduction at run end either.
        ledger.charge_collective("other", CollectiveKind.BARRIER, self.ctx.num_ranks)


class DelegatedOneDimBFS(BaselineEngine):
    """1D partitioning with heavy-vertex delegates."""

    scheme = "1D+delegates"

    def _build_kernels(self, src, dst):
        # The literature's rule of thumb (§2.3): ~0.1% of vertices are
        # delegated; pick the degree of the 0.1%-quantile vertex.
        deg_sorted = np.sort(self.degrees)[::-1]
        k = max(1, self.num_vertices // 1000)
        self.heavy_threshold = max(int(deg_sorted[min(k, deg_sorted.size - 1)]), 2)
        heavy = self.degrees >= self.heavy_threshold
        self.heavy_mask = heavy
        self.num_heavy = int(np.count_nonzero(heavy))
        # The run's frontier sets count heavy vertices as H, the rest as L.
        self.vertex_classes = np.where(heavy, VertexClass.H, VertexClass.L)

        a_src, a_dst = symmetrize_edges(src, dst)
        hs = heavy[a_src]
        hd = heavy[a_dst]
        o_src = self.mesh.owner_of(a_src, self.num_vertices)
        o_dst = self.mesh.owner_of(a_dst, self.num_vertices)

        def component(name, sel, rank):
            return SubgraphComponent(
                name, a_src[sel], a_dst[sel], rank[sel], self.ctx.num_ranks,
                self.num_vertices,
            )

        # A heavy source's adjacency is distributed with the destination,
        # so expansion from a delegate is node-local (like the paper's
        # E2L); on a light -> heavy arc the local delegate absorbs the
        # update.  H2X / L2H pulls read the replicated heavy bitmap: free
        # beyond the per-iteration sync.
        h2x = component("H2X", hs, o_dst)
        l2h = component("L2H", ~hs & hd, o_src)
        # light -> light: plain 1D messaging.
        l2l = component("L2L", ~hs & ~hd, o_src)
        return {
            "H2X": BaselineKernel(self.ctx, h2x),
            "L2H": BaselineKernel(self.ctx, l2h),
            "L2L": GlobalMessageKernel(
                self.ctx, l2l, self.num_vertices - self.num_heavy
            ),
        }

    def begin_iteration(self, ledger, active, visited):
        # Global allreduce of the heavy frontier: every node keeps every
        # heavy vertex's state — the delegate set that stops scaling.
        ctx = self.ctx
        ledger.charge_allreduce(
            "other",
            ctx.num_ranks,
            ctx.sync_bytes(self.num_heavy, class_count(active.counts, "H")),
            ctx.split_global,
        )

    def end_run(self, ledger, tracer, parent):
        if self.num_heavy == 0:
            return
        ledger.charge_scoped(
            "reduce",
            CollectiveKind.REDUCE_SCATTER,
            self.ctx.num_ranks,
            float(self.num_heavy) * 8,
            self.ctx.split_global,
        )

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

from repro.baselines.common import BaselineEngine
from repro.core.partition import VertexClass, class_count
from repro.core.subgraphs import SubgraphComponent
from repro.graphs.csr import symmetrize_edges

__all__ = ["OneDimBFS", "DelegatedOneDimBFS"]


class OneDimBFS(BaselineEngine):
    """Vanilla 1D partitioning."""

    scheme = "1D"

    def _build_components(self, src, dst):
        a_src, a_dst = symmetrize_edges(src, dst)
        rank = self.mesh.owner_of(a_src, self.num_vertices)
        return {
            "ALL": SubgraphComponent(
                "ALL", a_src, a_dst, rank, self._p, self.num_vertices
            )
        }

    def charge_iteration_sync(self, ledger, active, visited):
        # No delegates: nothing to synchronize beyond the frontier counts
        # (a scalar allreduce folded into the barrier).
        from repro.machine.costmodel import CollectiveKind

        ledger.charge_collective("other", CollectiveKind.BARRIER, self._p)

    def charge_push_messages(self, name, sel, ledger):
        # One 8-byte message per frontier arc whose destination is remote.
        o_dst = self.mesh.owner_of(sel.dst, self.num_vertices)
        remote = o_dst != sel.rank
        if not np.any(remote):
            return
        send = np.bincount(sel.rank[remote], minlength=self._p)
        self.charge_global_alltoallv(name, send, ledger)
        self.charge_receiver_kernel(name, o_dst[remote], ledger)

    def charge_pull_prereq(self, name, ledger, active, visited):
        # Bottom-up needs every rank to hold the full frontier set.
        self.charge_global_bitmap_allreduce(
            name, ledger, self.num_vertices, len(active)
        )

    def charge_parent_reduction(self, ledger):
        pass  # parents are owner-local in 1D


class DelegatedOneDimBFS(BaselineEngine):
    """1D partitioning with heavy-vertex delegates."""

    scheme = "1D+delegates"

    def __init__(self, src, dst, num_vertices, mesh, machine=None, config=None,
                 tracer=None, metrics=None, *,
                 heavy_threshold: int | None = None):
        self.heavy_threshold = heavy_threshold
        super().__init__(src, dst, num_vertices, mesh, machine, config,
                         tracer, metrics)

    def _build_components(self, src, dst):
        if self.heavy_threshold is None:
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

        comps = {}
        # heavy source: adjacency distributed with the destination, so
        # expansion from a delegate is node-local (like the paper's E2L).
        sel = hs
        comps["H2X"] = SubgraphComponent(
            "H2X", a_src[sel], a_dst[sel], o_dst[sel], self._p,
            self.num_vertices,
        )
        # light -> heavy: the local delegate absorbs the update.
        sel = (~hs) & hd
        comps["L2H"] = SubgraphComponent(
            "L2H", a_src[sel], a_dst[sel], o_src[sel], self._p,
            self.num_vertices,
        )
        # light -> light: plain 1D messaging.
        sel = (~hs) & (~hd)
        comps["L2L"] = SubgraphComponent(
            "L2L", a_src[sel], a_dst[sel], o_src[sel], self._p,
            self.num_vertices,
        )
        return comps

    def charge_iteration_sync(self, ledger, active, visited):
        # Global allreduce of the heavy frontier: every node keeps every
        # heavy vertex's state — the delegate set that stops scaling.
        active_heavy = class_count(active.counts, "H")
        self.charge_global_bitmap_allreduce(
            "other", ledger, self.num_heavy, active_heavy
        )

    def charge_push_messages(self, name, sel, ledger):
        if name != "L2L":
            return  # heavy-endpoint arcs are node-local by placement
        o_dst = self.mesh.owner_of(sel.dst, self.num_vertices)
        remote = o_dst != sel.rank
        if not np.any(remote):
            return
        send = np.bincount(sel.rank[remote], minlength=self._p)
        self.charge_global_alltoallv(name, send, ledger)
        self.charge_receiver_kernel(name, o_dst[remote], ledger)

    def charge_pull_prereq(self, name, ledger, active, visited):
        if name == "L2L":
            # light frontier state must be everywhere for bottom-up.
            light = self.num_vertices - self.num_heavy
            active_light = class_count(active.counts, "L")
            self.charge_global_bitmap_allreduce(name, ledger, light, active_light)
        # H2X / L2H pulls read the replicated heavy bitmap: free beyond
        # the per-iteration sync.

    def charge_parent_reduction(self, ledger):
        from repro.machine.costmodel import CollectiveKind

        if self.num_heavy == 0:
            return
        ledger.charge_scoped(
            "reduce",
            CollectiveKind.REDUCE_SCATTER,
            self._p,
            float(self.num_heavy) * 8,
            self.mesh.group_traffic_split(np.arange(self._p)),
        )

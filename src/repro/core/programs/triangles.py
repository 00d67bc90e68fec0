"""Triangle counting as a one-iteration deferred program.

Per directed arc (u, v) the gather message is ``|N(u) ∩ N(v)|`` — the
number of wedges the arc closes — computed against a deduplicated
self-loop-free adjacency built once at bind time.  The combine sums the
messages per destination; after the single sweep each vertex's triangle
count is half its wedge sum (each triangle at v is seen via both of v's
arcs into it) and the global count is a sixth of the total (3 edges × 2
directions).

The intersection runs as chunked sparse row products, so the sweep costs
O(arcs × average-degree) like the classic algorithm, while the ledger
sees one full push sweep over the six components — the densest (EH2EH)
component carries the hub–hub arcs exactly where the real machine's
intersection traffic would concentrate.
"""

from __future__ import annotations

import numpy as np

from repro.core.partition import PartitionedGraph
from repro.core.programs.base import VertexProgram
from repro.machine.network import MachineSpec

__all__ = ["TriangleCountingProgram", "triangle_count"]


class TriangleCountingProgram(VertexProgram):
    """Exact per-vertex and global triangle counts."""

    name = "triangles"
    #: An intersection message is the destination ID plus an 8-byte count.
    message_bytes = 16
    #: One full sweep suffices: the program is stateless across arcs.
    max_iterations = 1
    #: Rows per sparse intersection batch (bounds peak memory).
    chunk = 4096

    def _init_state(self) -> None:
        import scipy.sparse as sp

        n = self.n
        rows, cols = [], []
        for comp in self.part.components.values():
            if comp.num_arcs == 0:
                continue
            s, d, _ = comp.arcs()
            keep = s != d
            rows.append(s[keep])
            cols.append(d[keep])
        if rows:
            r = np.concatenate(rows)
            c = np.concatenate(cols)
        else:
            r = c = np.array([], dtype=np.int64)
        adj = sp.csr_matrix(
            (np.ones(r.size, dtype=np.int64), (r, c)), shape=(n, n)
        )
        adj.sum_duplicates()
        adj.data = np.minimum(adj.data, 1)
        self._adj = adj
        self.wedges = np.zeros(n)
        self.triangles = np.zeros(n)

    def initial_frontier(self) -> np.ndarray:
        return np.ones(self.n, dtype=bool)

    def gather(self, src, dst):
        # Components store symmetrized multigraph arcs; count each unique
        # non-loop directed arc once.  Endpoint classes fix the component
        # an arc lands in, so per-component dedup is global dedup.
        keep = src != dst
        if not np.any(keep):
            return None
        s, d = src[keep], dst[keep]
        key = s * np.int64(self.n) + d
        _, first = np.unique(key, return_index=True)
        s, d = s[first], d[first]
        counts = np.empty(s.size)
        adj = self._adj
        for i in range(0, s.size, self.chunk):
            sl = slice(i, min(i + self.chunk, s.size))
            counts[sl] = np.asarray(
                adj[s[sl]].multiply(adj[d[sl]]).sum(axis=1)
            ).ravel()
        return s, d, counts

    def combine(self, src, dst, msg):
        np.add.at(self.wedges, dst, msg)
        return None

    def end_run(self) -> None:
        self.triangles = self.wedges / 2.0

    def state_arrays(self):
        return {"triangles": self.triangles}

    @property
    def total_triangles(self) -> int:
        return int(round(self.wedges.sum() / 6.0))

    def info(self):
        return {"total_triangles": self.total_triangles}


def triangle_count(part: PartitionedGraph, *, machine: MachineSpec | None = None):
    """Count triangles over the partitioned graph; returns the
    :class:`~repro.core.programs.base.ProgramRunResult` with per-vertex
    counts in ``state["triangles"]`` and the global count in
    ``info["total_triangles"]``."""
    from repro.core.engine import DistributedBFS

    engine = DistributedBFS(part, machine=machine)
    return engine.run_program(TriangleCountingProgram())

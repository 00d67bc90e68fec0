"""The R x C virtual process mesh (paper §4.1).

Ranks are numbered row-major: rank ``r * C + c`` sits at row ``r``, column
``c``.  With row-major numbering and the machine's contiguous supernode
blocks, a whole mesh row occupies consecutive node IDs — this realizes the
paper's "rows are mapped to supernodes" topology mapping whenever the row
length divides the supernode size, making row collectives intra-supernode
(full NIC bandwidth) while column and global traffic crosses the
oversubscribed fat-tree layer.

Vertices are block-distributed: vertex ``v`` belongs to rank
``v // ceil(n / P)`` (after Graph500 scrambling the blocks are statistically
uniform in degree mass).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.network import MachineSpec

__all__ = ["ProcessMesh"]


@dataclass(frozen=True)
class ProcessMesh:
    """An ``R x C`` mesh of simulated ranks over a machine."""

    rows: int
    cols: int
    machine: MachineSpec | None = None

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("mesh dimensions must be positive")
        if self.machine is not None and self.machine.num_nodes < self.num_ranks:
            raise ValueError(
                f"machine has {self.machine.num_nodes} nodes, mesh needs "
                f"{self.num_ranks}"
            )

    # ------------------------------------------------------------------
    # shape and coordinates
    # ------------------------------------------------------------------

    @property
    def num_ranks(self) -> int:
        return self.rows * self.cols

    def rank_of(self, row: int, col: int) -> int:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(f"coordinates ({row}, {col}) outside mesh")
        return row * self.cols + col

    def coords(self, rank: np.ndarray | int):
        """``(row, col)`` of each rank."""
        rank = np.asarray(rank, dtype=np.int64)
        if np.any((rank < 0) | (rank >= self.num_ranks)):
            raise ValueError("rank out of range")
        return rank // self.cols, rank % self.cols

    def row_of(self, rank: np.ndarray | int) -> np.ndarray:
        return self.coords(rank)[0]

    def col_of(self, rank: np.ndarray | int) -> np.ndarray:
        return self.coords(rank)[1]

    def row_ranks(self, row: int) -> np.ndarray:
        """All ranks in mesh row ``row``."""
        if not 0 <= row < self.rows:
            raise ValueError("row out of range")
        return np.arange(row * self.cols, (row + 1) * self.cols, dtype=np.int64)

    def col_ranks(self, col: int) -> np.ndarray:
        """All ranks in mesh column ``col``."""
        if not 0 <= col < self.cols:
            raise ValueError("col out of range")
        return np.arange(col, self.num_ranks, self.cols, dtype=np.int64)

    # ------------------------------------------------------------------
    # vertex ownership (block distribution)
    # ------------------------------------------------------------------

    def block_size(self, num_vertices: int) -> int:
        """Vertices per rank, rounded up."""
        return -(-num_vertices // self.num_ranks)

    def owner_of(self, vertex: np.ndarray | int, num_vertices: int) -> np.ndarray:
        """Owning rank of each vertex under block distribution."""
        vertex = np.asarray(vertex, dtype=np.int64)
        if np.any((vertex < 0) | (vertex >= num_vertices)):
            raise ValueError("vertex out of range")
        return vertex // self.block_size(num_vertices)

    def vertex_range(self, rank: int, num_vertices: int) -> tuple[int, int]:
        """``[lo, hi)`` interval of vertices owned by ``rank``."""
        if not 0 <= rank < self.num_ranks:
            raise ValueError("rank out of range")
        b = self.block_size(num_vertices)
        lo = min(rank * b, num_vertices)
        return lo, min(lo + b, num_vertices)

    # ------------------------------------------------------------------
    # topology: supernodes
    # ------------------------------------------------------------------

    def supernode_of_rank(self, rank: np.ndarray | int) -> np.ndarray:
        """Supernode of each rank (ranks map 1:1 onto machine nodes)."""
        if self.machine is None:
            # No machine: treat the whole mesh as one supernode.
            return np.zeros_like(np.asarray(rank, dtype=np.int64))
        return self.machine.supernode_of(np.asarray(rank, dtype=np.int64))

    def group_traffic_split(self, group: np.ndarray | list[int]) -> tuple[float, float]:
        """``(intra_frac, inter_frac)`` of a symmetric group collective.

        The canonical supernode split used by every traffic model layer
        (the analytic kernels, the baseline engines, and the functional
        :class:`~repro.runtime.comm.SimCommunicator`): a group wholly
        inside one supernode moves everything at full NIC bandwidth; a
        group spanning supernodes pays the oversubscribed inter rate for
        the fraction of peers outside the *least represented* rank's
        supernode — the worst case that bounds a symmetric collective.
        """
        group = np.asarray(group, dtype=np.int64)
        if group.size <= 1:
            return 1.0, 0.0
        sn = self.supernode_of_rank(group)
        if np.all(sn == sn[0]):
            return 1.0, 0.0
        counts = np.bincount(sn)
        counts = counts[counts > 0]
        worst_same = int(counts.min())
        inter = 1.0 - (worst_same - 1) / max(group.size - 1, 1)
        return 1.0 - inter, inter

    def split_intra_inter(
        self, from_rank: int, bytes_to: np.ndarray
    ) -> tuple[float, float]:
        """Split a per-destination byte vector into intra/inter supernode.

        ``bytes_to[j]`` is what ``from_rank`` sends to rank ``j``; traffic to
        itself is free and excluded.
        """
        bytes_to = np.asarray(bytes_to, dtype=np.float64)
        if bytes_to.shape != (self.num_ranks,):
            raise ValueError("bytes_to must have one entry per rank")
        sn = self.supernode_of_rank(np.arange(self.num_ranks))
        own = sn[from_rank]
        mask_self = np.zeros(self.num_ranks, dtype=bool)
        mask_self[from_rank] = True
        intra = float(bytes_to[(sn == own) & ~mask_self].sum())
        inter = float(bytes_to[sn != own].sum())
        return intra, inter

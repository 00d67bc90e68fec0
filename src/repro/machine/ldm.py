"""LDM layout for CG-aware core-subgraph segmenting (paper Fig. 6/7).

In the bottom-up EH2EH kernel, the frontier bit-vector of the column's E and
H vertices must be randomly readable.  It does not fit into one CPE's 256 KB
LDM, so the paper:

1. segments the core subgraph by destination into 6 pieces (one per CG),
   shrinking each piece's bit-vector to ~2 MB;
2. splits that bit-vector into 1024-byte *lines*, round-robin assigned to
   the 64 CPEs of the CG, so a bit lookup becomes an RMA ``get`` from the
   owning sibling CPE (Fig. 7's offset mapping: high bits = line number,
   middle bits = CPE number, low bits = offset within the line).

:class:`LDMLayout` implements and inverts that mapping; the engine and the
tests use it to verify a segment actually fits and that the mapping is a
bijection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LDMLayout", "SegmentBitVectorMap"]


@dataclass(frozen=True)
class LDMLayout:
    """Round-robin line mapping of a byte range onto a CG's CPE LDMs."""

    line_bytes: int = 1024
    num_cpes: int = 64
    #: LDM bytes a CPE may dedicate to the shared bit-vector; the rest is
    #: needed for DMA staging of edges and send/receive buffers.
    ldm_budget_bytes: int = 96 * 1024

    def __post_init__(self) -> None:
        if self.line_bytes < 1 or self.num_cpes < 1:
            raise ValueError("line_bytes and num_cpes must be positive")
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line_bytes must be a power of two")

    @property
    def capacity_bytes(self) -> int:
        """Largest shared byte range this layout can host."""
        return self.num_cpes * self.ldm_budget_bytes

    @property
    def capacity_bits(self) -> int:
        return self.capacity_bytes * 8

    def locate_byte(self, byte_offset: np.ndarray | int):
        """Map global byte offset(s) to ``(cpe, local_byte_offset)``.

        Lines are striped round-robin: line ``k`` lives on CPE ``k % 64``
        and is that CPE's ``k // 64``-th local line.
        """
        byte_offset = np.asarray(byte_offset, dtype=np.int64)
        line_no = byte_offset // self.line_bytes
        within = byte_offset % self.line_bytes
        cpe = line_no % self.num_cpes
        local = (line_no // self.num_cpes) * self.line_bytes + within
        return cpe, local

    def locate_bit(self, bit_index: np.ndarray | int):
        """Map global bit index(es) to ``(cpe, local_byte_offset, bit_in_byte)``."""
        bit_index = np.asarray(bit_index, dtype=np.int64)
        cpe, local = self.locate_byte(bit_index // 8)
        return cpe, local, bit_index % 8

    def global_byte(self, cpe: np.ndarray | int, local: np.ndarray | int):
        """Inverse of :meth:`locate_byte`."""
        cpe = np.asarray(cpe, dtype=np.int64)
        local = np.asarray(local, dtype=np.int64)
        local_line = local // self.line_bytes
        within = local % self.line_bytes
        line_no = local_line * self.num_cpes + cpe
        return line_no * self.line_bytes + within

    def fits(self, num_bits: int) -> bool:
        """Can a bit-vector of ``num_bits`` be hosted by this layout?"""
        return num_bits <= self.capacity_bits


@dataclass(frozen=True)
class SegmentBitVectorMap:
    """Placement of one core-subgraph segment's bit-vector in a CG.

    Couples an :class:`LDMLayout` with the segment's vertex range so the
    engine can ask which CPE serves a destination vertex and whether the
    lookup is local or an RMA get.
    """

    vertex_lo: int
    vertex_hi: int
    layout: LDMLayout = LDMLayout()

    def __post_init__(self) -> None:
        if self.vertex_hi < self.vertex_lo:
            raise ValueError("vertex range is inverted")
        if not self.layout.fits(self.num_vertices):
            raise ValueError(
                f"segment of {self.num_vertices} bits exceeds the CG's "
                f"{self.layout.capacity_bits}-bit LDM capacity"
            )

    @property
    def num_vertices(self) -> int:
        return self.vertex_hi - self.vertex_lo

    def serving_cpe(self, vertex: np.ndarray | int) -> np.ndarray:
        """CPE number holding each vertex's frontier bit."""
        vertex = np.asarray(vertex, dtype=np.int64)
        if np.any((vertex < self.vertex_lo) | (vertex >= self.vertex_hi)):
            raise ValueError("vertex outside segment range")
        cpe, _, _ = self.layout.locate_bit(vertex - self.vertex_lo)
        return cpe

    def rma_fraction(self, vertices: np.ndarray, reader_cpe: np.ndarray) -> float:
        """Fraction of lookups that need an RMA get (bit not on the reader).

        With 64 CPEs and round-robin lines this is ~63/64 for random
        accesses; the cost model uses the exact measured fraction.
        """
        served = self.serving_cpe(vertices)
        reader_cpe = np.asarray(reader_cpe, dtype=np.int64)
        if served.size == 0:
            return 0.0
        return float(np.mean(served != (reader_cpe % self.layout.num_cpes)))


"""CG-aware core subgraph segmenting (paper §4.3).

The heaviest kernel is the bottom-up EH2EH sub-iteration, whose random
reads touch the activeness bit-vector of the *column's* E and H vertices.
The paper:

- bounds the column E+H population so the bit-vector stays under ~12.5 MB;
- segments the core subgraph by destination into 6 pieces (one per CG),
  ~2 MB of bits each;
- stripes each segment's bit-vector over the 64 CPE LDMs of one CG
  (:class:`repro.machine.ldm.LDMLayout`) and reads it with RMA instead of
  GLD — the 9x kernel speedup of §6.4;
- splits the *source* side into 6 virtual intervals round-robin scheduled
  across the CGs so no two CGs ever write the same sources concurrently.

:class:`SegmentingPlan` validates feasibility for a partition and exposes
the schedule; the engine only applies the segmented pull rate when the
plan is feasible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.partition import PartitionedGraph
from repro.machine.chip import ChipSpec, SW26010_PRO
from repro.machine.ldm import LDMLayout

__all__ = ["SegmentingPlan", "plan_segmenting"]


@dataclass(frozen=True)
class SegmentingPlan:
    """Feasible segmenting of a column's EH bit-vector across the CGs."""

    #: E+H vertices delegated on the busiest column.
    max_column_eh: int
    #: Number of segments (= core groups).
    num_segments: int
    #: Bits each segment must host.
    segment_bits: int
    #: Whether each segment fits the per-CG LDM budget.
    feasible: bool
    #: Source-interval schedule: ``schedule[step][cg]`` is the virtual
    #: source interval CG ``cg`` processes at ``step`` (round-robin, no two
    #: CGs share an interval at any step).
    schedule: tuple[tuple[int, ...], ...]

    @property
    def segment_bytes(self) -> int:
        return -(-self.segment_bits // 8)


def plan_segmenting(
    part: PartitionedGraph,
    *,
    chip: ChipSpec = SW26010_PRO,
    layout: LDMLayout | None = None,
) -> SegmentingPlan:
    """Build the segmenting plan for a partitioned graph.

    The destination bit-vector of a rank's EH2EH block covers the EH
    vertices of the rank's *column*; the plan divides it into one segment
    per CG and checks each against the CG's LDM capacity.
    """
    if layout is None:
        layout = LDMLayout(num_cpes=chip.cpes_per_cg)
    num_segments = chip.num_core_groups
    max_col = int(part.col_eh_counts.max()) if part.col_eh_counts.size else 0
    segment_bits = -(-max_col // num_segments)
    feasible = layout.fits(segment_bits)

    # Round-robin source-interval schedule: at step s, CG g processes
    # interval (g + s) mod num_segments — a Latin square, so every
    # (step, interval) pair is owned by exactly one CG.
    schedule = tuple(
        tuple((g + s) % num_segments for g in range(num_segments))
        for s in range(num_segments)
    )
    return SegmentingPlan(
        max_column_eh=max_col,
        num_segments=num_segments,
        segment_bits=segment_bits,
        feasible=feasible,
        schedule=schedule,
    )

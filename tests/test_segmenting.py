"""Tests for CG-aware core subgraph segmenting."""

from repro.core.partition import partition_graph
from repro.core.segmenting import plan_segmenting
from repro.graph500.rmat import generate_edges
from repro.machine.chip import ChipSpec
from repro.machine.ldm import LDMLayout
from repro.runtime.mesh import ProcessMesh


def make_part(scale=10, rows=2, cols=2, e_thr=128, h_thr=16):
    src, dst = generate_edges(scale, seed=1)
    mesh = ProcessMesh(rows, cols)
    return partition_graph(
        src, dst, 1 << scale, mesh, e_threshold=e_thr, h_threshold=h_thr
    )


class TestPlan:
    def test_six_segments_by_default(self):
        plan = plan_segmenting(make_part())
        assert plan.num_segments == 6

    def test_segment_bits_cover_column(self):
        part = make_part()
        plan = plan_segmenting(part)
        assert plan.segment_bits * plan.num_segments >= plan.max_column_eh
        assert plan.max_column_eh == int(part.col_eh_counts.max())

    def test_small_graph_feasible(self):
        assert plan_segmenting(make_part()).feasible

    def test_infeasible_when_ldm_tiny(self):
        layout = LDMLayout(num_cpes=2, ldm_budget_bytes=1, line_bytes=2)
        part = make_part()
        plan = plan_segmenting(part, layout=layout)
        assert not plan.feasible

    def test_schedule_is_latin_square(self):
        """No two CGs ever process the same source interval (§4.3)."""
        plan = plan_segmenting(make_part())
        for step in plan.schedule:
            assert sorted(step) == list(range(plan.num_segments))
        # and each CG sees every interval exactly once across steps
        for g in range(plan.num_segments):
            seen = [plan.schedule[s][g] for s in range(plan.num_segments)]
            assert sorted(seen) == list(range(plan.num_segments))

    def test_custom_chip_segment_count(self):
        chip = ChipSpec(num_core_groups=4)
        plan = plan_segmenting(make_part(), chip=chip)
        assert plan.num_segments == 4

    def test_segment_bytes(self):
        plan = plan_segmenting(make_part())
        assert plan.segment_bytes == -(-plan.segment_bits // 8)

    def test_paper_scale_column_fits(self):
        """Paper: <=100M column E+H bits -> ~2MB per-CG segments fit the
        64-CPE LDM budget."""
        layout = LDMLayout(num_cpes=64, ldm_budget_bytes=96 * 1024)
        # simulate the paper's bound directly
        segment_bits = -(-100_000_000 // 6)
        assert layout.fits(segment_bits)

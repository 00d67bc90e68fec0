"""Tests for the experiment drivers (small configurations)."""

import numpy as np
import pytest

from repro.analysis.experiments import (
    build_setup,
    run_15d,
    run_ablation,
    run_partition_comparison,
    run_scaling_sweep,
    run_threshold_grid,
    tuned_thresholds,
)


class TestSetup:
    def test_build_setup_shapes(self):
        s = build_setup(10, 2, 2, seed=3)
        assert s.num_vertices == 1024
        assert s.num_edges == 16 * 1024
        assert s.mesh.num_ranks == 4
        assert s.machine.work_scale > 1

    def test_supernode_rows(self):
        s = build_setup(10, 4, 4)
        assert s.mesh.group_traffic_split(s.mesh.row_ranks(0)) == (1.0, 0.0)

    def test_root_kinds(self):
        hub = build_setup(10, 2, 2, root_kind="hub")
        rnd = build_setup(10, 2, 2, root_kind="random")
        degrees = np.bincount(
            np.concatenate([hub.src, hub.dst]), minlength=hub.num_vertices
        )
        assert degrees[hub.root] == degrees.max()
        assert degrees[rnd.root] > 0

    def test_tuned_thresholds_monotone(self):
        pairs = [tuned_thresholds(s) for s in (12, 14, 16, 18, 20)]
        assert all(e >= h for e, h in pairs)
        hs = [h for _, h in pairs]
        assert hs == sorted(hs)


class TestDrivers:
    def test_run_15d_valid(self):
        from repro.graph500.validate import validate_bfs_result
        from repro.graphs.csr import build_csr, symmetrize_edges

        s = build_setup(11, 2, 2)
        part, res = run_15d(s)
        g = build_csr(*symmetrize_edges(s.src, s.dst), s.num_vertices)
        validate_bfs_result(g, s.root, res.parent)

    def test_partition_comparison_rows(self):
        rows = run_partition_comparison(points=((10, 2, 2),))
        assert len(rows) == 4
        methods = {r["method"] for r in rows}
        assert methods == {"1D", "1D+delegates", "2D", "1.5D (ours)"}
        assert all(r["gteps"] > 0 for r in rows)
        ours = next(r for r in rows if r["method"] == "1.5D (ours)")
        vanilla = next(r for r in rows if r["method"] == "1D")
        assert ours["gteps"] > vanilla["gteps"]

    def test_scaling_sweep(self):
        pts = run_scaling_sweep(points=((10, 2, 2), (12, 4, 4)))
        assert [p.nodes for p in pts] == [4, 16]
        assert all(p.gteps > 0 for p in pts)
        # breakdown access works
        assert sum(pts[0].result.time_by_phase().values()) == pytest.approx(
            pts[0].seconds
        )

    def test_threshold_grid_invalid_cells_zero(self):
        rows = run_threshold_grid(
            scale=10,
            rows=2,
            cols=2,
            e_thresholds=(64, 8),
            h_thresholds=(32, 4),
        )
        invalid = [r for r in rows if r["e"] < r["h"]]
        assert invalid and all(r["gteps"] == 0.0 for r in invalid)
        valid = [r for r in rows if r["e"] >= r["h"]]
        assert all(r["gteps"] > 0 for r in valid)

    def test_ablation_levels(self):
        out = run_ablation(scale=11, rows=2, cols=2)
        assert [label for label, _ in out] == ["Baseline", "+ Sub-Iter.", "+ Segment."]
        # segmenting shrinks EH2EH pull time (9x kernel rate)
        base = out[1][1]["EH2EH pull"]
        seg = out[2][1]["EH2EH pull"]
        assert seg <= base

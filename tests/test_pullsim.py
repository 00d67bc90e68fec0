"""Tests for the functional segmented-pull kernel simulator."""

import numpy as np
import pytest

from repro.machine.chip import ChipSpec
from repro.machine.costmodel import NodeKernelRates
from repro.machine.pullsim import (
    simulate_segmented_pull,
    simulate_unsegmented_pull,
)


def make_workload(n_src=4096, n_dst=4096, m=50_000, active_frac=0.3, seed=0):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_src, size=m)
    dst = rng.integers(0, n_dst, size=m)
    candidate = rng.random(n_dst) < 0.5
    active = rng.random(n_src) < active_frac
    return src, dst, candidate, active


class TestFunctional:
    def test_both_kernels_find_same_hits(self):
        src, dst, cand, act = make_workload()
        seg = simulate_segmented_pull(src, dst, 0, 4096, cand, act)
        unseg = simulate_unsegmented_pull(src, dst, cand, act)
        assert np.array_equal(np.sort(seg.hit_dst), np.sort(unseg.hit_dst))
        assert seg.scanned_arcs == unseg.scanned_arcs

    def test_hits_are_correct(self):
        src, dst, cand, act = make_workload(m=5000)
        seg = simulate_segmented_pull(src, dst, 0, 4096, cand, act)
        # every hit: dst was candidate, src active, arc exists
        arcs = set(zip(src.tolist(), dst.tolist()))
        for d, s in zip(seg.hit_dst.tolist(), seg.hit_src.tolist()):
            assert cand[d] and act[s]
            assert (s, d) in arcs
        # completeness: every candidate dst with an active in-neighbor hit
        expect = {
            d for s, d in arcs if cand[d] and act[s]
        }
        assert set(seg.hit_dst.tolist()) == expect

    def test_early_exit_reduces_scans(self):
        # all sources active: exactly one scan per candidate destination
        # group (first arc hits).
        src, dst, cand, _ = make_workload(m=20_000)
        act = np.ones(4096, dtype=bool)
        seg = simulate_segmented_pull(src, dst, 0, 4096, cand, act)
        n_groups = np.unique(dst[cand[dst]]).size
        assert seg.scanned_arcs == n_groups

    def test_no_active_scans_everything(self):
        src, dst, cand, _ = make_workload(m=20_000)
        act = np.zeros(4096, dtype=bool)
        seg = simulate_segmented_pull(src, dst, 0, 4096, cand, act)
        assert seg.scanned_arcs == int(np.count_nonzero(cand[dst]))
        assert seg.hit_dst.size == 0

    def test_empty_arcs(self):
        e = np.array([], dtype=np.int64)
        seg = simulate_segmented_pull(e, e, 0, 100, np.ones(100, bool), np.ones(100, bool))
        assert seg.scanned_arcs == 0

    def test_out_of_range_dst_rejected(self):
        with pytest.raises(ValueError, match="destination range"):
            simulate_segmented_pull(
                np.array([0]), np.array([500]), 0, 100,
                np.ones(1000, bool), np.ones(1000, bool),
            )


class TestEventCounts:
    def test_rma_fraction_near_63_over_64(self):
        src, dst, cand, act = make_workload(m=100_000, active_frac=0.05)
        seg = simulate_segmented_pull(src, dst, 0, 4096, cand, act)
        total = seg.rma_lookups + seg.local_lookups
        assert total == seg.scanned_arcs
        assert seg.rma_lookups / total == pytest.approx(63 / 64, abs=0.02)

    def test_unsegmented_counts_gld(self):
        src, dst, cand, act = make_workload(m=30_000)
        unseg = simulate_unsegmented_pull(src, dst, cand, act)
        assert unseg.gld_lookups == unseg.scanned_arcs
        assert unseg.rma_lookups == 0


class TestModeledSpeedup:
    def test_event_driven_9x(self):
        """The 9x of §6.4 emerges from counted events."""
        src, dst, cand, act = make_workload(m=200_000, active_frac=0.02)
        seg = simulate_segmented_pull(src, dst, 0, 4096, cand, act)
        unseg = simulate_unsegmented_pull(src, dst, cand, act)
        speedup = unseg.modeled_seconds / seg.modeled_seconds
        assert speedup == pytest.approx(9.0, rel=0.2)

    def test_matches_closed_form_rates(self):
        rates = NodeKernelRates()
        src, dst, cand, act = make_workload(m=200_000, active_frac=0.02)
        seg = simulate_segmented_pull(src, dst, 0, 4096, cand, act)
        assert seg.arcs_per_second == pytest.approx(
            rates.pull_rate_segmented(), rel=0.1
        )
        unseg = simulate_unsegmented_pull(src, dst, cand, act)
        assert unseg.arcs_per_second == pytest.approx(
            rates.pull_rate_unsegmented(), rel=0.1
        )

    def test_chip_parameter_sensitivity(self):
        """Slower RMA shrinks the segmenting win, as expected."""
        src, dst, cand, act = make_workload(m=100_000, active_frac=0.02)
        slow_rma = ChipSpec(rma_pipelined_get_ns=150.0)
        seg_fast = simulate_segmented_pull(src, dst, 0, 4096, cand, act)
        seg_slow = simulate_segmented_pull(
            src, dst, 0, 4096, cand, act, chip=slow_rma
        )
        assert seg_slow.modeled_seconds > seg_fast.modeled_seconds

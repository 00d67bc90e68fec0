"""Tests for incremental partition repair (:mod:`repro.dynamic.repair`)."""

import numpy as np
import pytest

from repro.core.preprocessing import construction_ledger
from repro.dynamic.gate import GATE_KINDS, parts_bitwise_equal, run_equivalence_gate
from repro.dynamic.repair import IncrementalGraph
from repro.dynamic.updates import (
    UpdateBatch,
    UpdateSpec,
    apply_updates,
    generate_update_stream,
)
from repro.graph500.rmat import generate_edges
from repro.obs.metrics import MetricsRegistry
from repro.runtime.mesh import ProcessMesh

N = 2**8


def _batch(ins=(), dels=()):
    pairs = list(ins) + list(dels)
    src = np.array([p[0] for p in pairs], dtype=np.int64)
    dst = np.array([p[1] for p in pairs], dtype=np.int64)
    op = np.array([1] * len(ins) + [-1] * len(dels), dtype=np.int8)
    return UpdateBatch(src=src, dst=dst, op=op)


@pytest.fixture()
def inc():
    src, dst = generate_edges(8, seed=5)
    return IncrementalGraph(
        src, dst, N, ProcessMesh(2, 2),
        e_threshold=24, h_threshold=6, compact_every=2,
    )


class TestIncrementalEqualsRebuild:
    def test_every_batch_matches_rebuild(self, inc):
        lo, hi = inc.edges()
        spec = UpdateSpec(kind="mixed", batches=4, size=24)
        for batch in generate_update_stream(lo, hi, N, spec, seed=3):
            inc.apply_batch(batch)
            assert parts_bitwise_equal(inc.graph(), inc.rebuild_reference()) == []

    def test_live_edges_track_apply_updates(self, inc):
        lo, hi = inc.edges()
        spec = UpdateSpec(kind="mixed", batches=3, size=16)
        for batch in generate_update_stream(lo, hi, N, spec, seed=8):
            inc.apply_batch(batch)
            lo, hi = apply_updates(lo, hi, batch, N)
            got_lo, got_hi = inc.edges()
            assert np.array_equal(got_lo, lo)
            assert np.array_equal(got_hi, hi)

    def test_insert_then_delete_same_edge_round_trips(self, inc):
        before = parts_bitwise_equal(inc.graph(), inc.rebuild_reference())
        assert before == []
        ref_lo, ref_hi = inc.edges()
        # Pick a pair that is absent, insert it, then delete it again;
        # the second batch's drop must cancel the overlay's pending add.
        pair = (0, N - 1)
        lo, hi = inc.edges()
        assert not np.any((lo == pair[0]) & (hi == pair[1]))
        inc.apply_batch(_batch(ins=[pair]))
        inc.apply_batch(_batch(dels=[pair]))
        got_lo, got_hi = inc.edges()
        assert np.array_equal(got_lo, ref_lo)
        assert np.array_equal(got_hi, ref_hi)
        assert parts_bitwise_equal(inc.graph(), inc.rebuild_reference()) == []

    def test_noop_updates_change_nothing(self, inc):
        lo, hi = inc.edges()
        existing = (int(lo[0]), int(hi[0]))
        report = inc.apply_batch(
            _batch(ins=[existing], dels=[(0, N - 1)])
        )
        assert report.num_inserted_edges == 0
        assert report.num_deleted_edges == 0
        assert report.delta.is_empty


class TestCompactionCadence:
    def test_compacts_every_n_batches(self, inc):
        lo, hi = inc.edges()
        spec = UpdateSpec(kind="mixed", batches=4, size=8)
        flags = [
            inc.apply_batch(b).compacted
            for b in generate_update_stream(lo, hi, N, spec, seed=4)
        ]
        assert flags == [False, True, False, True]

    def test_graph_forces_pending_compaction(self, inc):
        inc.apply_batch(_batch(ins=[(1, N - 2)]))  # staged, not compacted
        part = inc.graph()
        assert parts_bitwise_equal(part, inc.rebuild_reference()) == []


class TestCostAndMetrics:
    def test_repair_charges_less_than_rebuild(self, inc):
        lo, hi = inc.edges()
        spec = UpdateSpec(kind="mixed", batches=4, size=8)
        stream = generate_update_stream(lo, hi, N, spec, seed=6)
        for batch in stream:
            inc.apply_batch(batch)
        inc.graph()
        assert inc.ledger.total_seconds < (
            inc.rebuild_cost_estimate() * len(stream)
        )

    def test_rebuild_price_is_the_rebuild(self, inc):
        """The gate's rebuild denominator is kernel 1's price of the
        from-scratch rebuild itself, to the bit."""
        lo, hi = inc.edges()
        spec = UpdateSpec(kind="mixed", batches=4, size=24)
        for batch in generate_update_stream(lo, hi, N, spec, seed=3):
            inc.apply_batch(batch)
        inc.graph()
        rebuilt = construction_ledger(inc.rebuild_reference(), inc.machine)
        assert inc.rebuild_cost_estimate() == rebuilt.total_seconds

    def test_dynamic_metric_families(self):
        registry = MetricsRegistry()
        src, dst = generate_edges(8, seed=5)
        inc = IncrementalGraph(
            src, dst, N, ProcessMesh(2, 2),
            e_threshold=24, h_threshold=6, compact_every=1,
            metrics=registry,
        )
        lo, hi = inc.edges()
        spec = UpdateSpec(kind="mixed", batches=2, size=24)
        for batch in generate_update_stream(lo, hi, N, spec, seed=3):
            inc.apply_batch(batch)
        assert registry.counter_total("dynamic_batches") == 2
        assert registry.counter_total("dynamic_updates_applied") > 0
        assert registry.counter_total("dynamic_compactions") > 0


class TestEquivalenceGate:
    def test_gate_passes_on_small_matrix(self):
        report = run_equivalence_gate(
            scale=6, families=("rmat",), batches=2, batch_size=16,
        )
        assert report.ok, report.summary()
        assert report.num_batches == 2 * len(GATE_KINDS)

    def test_gate_patched_path_on_long_diameter_family(self):
        report = run_equivalence_gate(
            families=("ring",), scale=8, batches=3, batch_size=3,
        )
        assert report.ok, report.summary()
        assert report.mode_counts().get("patched", 0) > 0

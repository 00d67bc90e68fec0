"""Tests for OCS-RMA and the MPE bucketing baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.costmodel import NodeKernelRates
from repro.sort.bucket import bucket_partition, mpe_bucket_sort
from repro.sort.ocs import OCSConfig, simulate_ocs_rma


class TestBucketPartition:
    def test_simple(self):
        values = np.array([10, 20, 30, 40])
        buckets = np.array([1, 0, 1, 0])
        out, offsets = bucket_partition(values, buckets, 2)
        assert out.tolist() == [20, 40, 10, 30]
        assert offsets.tolist() == [0, 2, 4]

    def test_stability(self):
        values = np.arange(8)
        buckets = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        out, _ = bucket_partition(values, buckets, 2)
        assert out.tolist() == [0, 2, 4, 6, 1, 3, 5, 7]

    def test_empty_buckets_allowed(self):
        out, offsets = bucket_partition(np.array([1]), np.array([3]), 5)
        assert offsets.tolist() == [0, 0, 0, 0, 1, 1]

    def test_2d_records(self):
        values = np.array([[1, 2], [3, 4], [5, 6]])
        out, offsets = bucket_partition(values, np.array([1, 0, 1]), 2)
        assert out.tolist() == [[3, 4], [1, 2], [5, 6]]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            bucket_partition(np.array([1]), np.array([5]), 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="match"):
            bucket_partition(np.array([1, 2]), np.array([0]), 2)

    @given(st.lists(st.integers(0, 15), max_size=200), st.integers(16, 32))
    @settings(max_examples=50, deadline=None)
    def test_property_is_stable_permutation(self, bucket_list, num_buckets):
        buckets = np.array(bucket_list, dtype=np.int64)
        values = np.arange(buckets.size)
        out, offsets = bucket_partition(values, buckets, num_buckets)
        # permutation
        assert sorted(out.tolist()) == values.tolist()
        # each slice has the right bucket and preserves original order
        for b in range(num_buckets):
            sl = out[offsets[b] : offsets[b + 1]]
            assert np.all(buckets[sl] == b)
            assert np.all(np.diff(sl) > 0) if sl.size > 1 else True


class TestOCSFunctional:
    def test_bucketing_correct(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 2**63 - 1, size=10_000)
        buckets = values & 0xFF
        res = simulate_ocs_rma(values, buckets, 256)
        assert res.num_messages == 10_000
        assert sorted(res.values.tolist()) == sorted(values.tolist())
        for b in range(256):
            sl = res.values[res.offsets[b] : res.offsets[b + 1]]
            assert np.all((sl & 0xFF) == b)

    def test_empty_input(self):
        res = simulate_ocs_rma(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64), 8
        )
        assert res.num_messages == 0
        assert res.num_batches == 0
        assert res.throughput_bytes_per_s == pytest.approx(0.0)

    def test_batch_count_includes_final_flush(self):
        # One message still needs one batch flush.
        res = simulate_ocs_rma(np.array([7]), np.array([0]), 4)
        assert res.num_batches == 1

    def test_batch_count_scales(self):
        cfg = OCSConfig(num_cgs=1)
        n = cfg.messages_per_batch * cfg.producers_per_cg * 4
        values = np.arange(n, dtype=np.int64)
        buckets = np.zeros(n, dtype=np.int64)  # all one bucket
        res = simulate_ocs_rma(values, buckets, 1, config=cfg)
        # each producer sends 4 full batches to consumer 0
        assert res.num_batches == cfg.producers_per_cg * 4

    def test_atomics_only_with_multiple_cgs(self):
        values = np.arange(1000, dtype=np.int64)
        buckets = values % 16
        one = simulate_ocs_rma(values, buckets, 16, config=OCSConfig(num_cgs=1))
        six = simulate_ocs_rma(values, buckets, 16, config=OCSConfig(num_cgs=6))
        assert one.num_atomics == 0
        assert six.num_atomics == six.num_batches > 0

    def test_too_many_cgs_rejected(self):
        with pytest.raises(ValueError, match="CGs"):
            simulate_ocs_rma(
                np.array([1]), np.array([0]), 1, config=OCSConfig(num_cgs=7)
            )

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            OCSConfig(buffer_bytes=4, message_bytes=8)
        with pytest.raises(ValueError):
            OCSConfig(num_cgs=0)
        with pytest.raises(ValueError):
            OCSConfig(producers_per_cg=0)


class TestOCSModeledPerformance:
    """Fig. 14 shape: 6 CGs >> 1 CG >> MPE with ~47% utilization."""

    @staticmethod
    def run(num_cgs, n=1 << 20, seed=0):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 2**63 - 1, size=n)
        return simulate_ocs_rma(
            values, values & 0xFF, 256, config=OCSConfig(num_cgs=num_cgs)
        )

    def test_one_cg_near_paper(self):
        gbps = self.run(1).throughput_bytes_per_s / 1e9
        assert gbps == pytest.approx(12.5, rel=0.2)

    def test_six_cg_near_paper(self):
        gbps = self.run(6).throughput_bytes_per_s / 1e9
        assert gbps == pytest.approx(58.6, rel=0.2)

    def test_utilization_under_half(self):
        util = self.run(6).bandwidth_utilization()
        assert 0.38 < util < 0.50

    def test_speedup_vs_mpe_three_orders(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 2**63 - 1, size=1 << 18)
        mpe = mpe_bucket_sort(values, values & 0xFF, 256)
        ocs = simulate_ocs_rma(values, values & 0xFF, 256)
        speedup = ocs.throughput_bytes_per_s / mpe.throughput_bytes_per_s
        assert 900 < speedup < 2000  # paper: 1443x

    def test_event_model_matches_closed_form(self):
        """The event-driven simulator and NodeKernelRates agree."""
        rates = NodeKernelRates()
        for cgs in (1, 6):
            sim = self.run(cgs).throughput_bytes_per_s
            closed = rates.message_throughput_bytes_per_s(cgs)
            assert sim == pytest.approx(closed, rel=0.1)

    def test_skewed_buckets_slower_than_uniform(self):
        """All messages to one consumer serializes the consumer side."""
        n = 1 << 18
        values = np.arange(n, dtype=np.int64)
        uniform = simulate_ocs_rma(values, values % 256, 256)
        skewed = simulate_ocs_rma(values, np.zeros(n, dtype=np.int64), 256)
        assert skewed.modeled_seconds > uniform.modeled_seconds

    def test_mpe_throughput_near_paper(self):
        rng = np.random.default_rng(1)
        values = rng.integers(0, 2**63 - 1, size=1 << 16)
        res = mpe_bucket_sort(values, values & 0xFF, 256)
        assert res.throughput_bytes_per_s / 1e9 == pytest.approx(0.0406, rel=0.05)

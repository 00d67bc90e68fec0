"""Tests for the LDCache pull-rate model (§3.1.2 / §3.3)."""

from repro.machine.chip import ChipSpec
from repro.machine.costmodel import NodeKernelRates


class TestLDCacheRate:
    def setup_method(self):
        self.rates = NodeKernelRates()

    def test_tiny_working_set_beats_gld(self):
        fast = self.rates.pull_rate_ldcache(1 << 16)
        assert fast > 5 * self.rates.pull_rate_unsegmented()

    def test_monotone_degradation(self):
        sizes = [1 << k for k in range(18, 30, 2)]
        rates = [self.rates.pull_rate_ldcache(s) for s in sizes]
        assert all(b <= a for a, b in zip(rates, rates[1:]))

    def test_collapses_to_gld_at_paper_scale(self):
        """§3.3: millions of vertices per node defeat the cache."""
        big = self.rates.pull_rate_ldcache(100_000_000)
        assert big < 1.1 * self.rates.pull_rate_unsegmented() * 1.05

    def test_segmenting_still_wins_at_scale(self):
        big = self.rates.pull_rate_ldcache(100_000_000)
        assert self.rates.pull_rate_segmented() > 4 * big

    def test_hit_rate_floor(self):
        # working set of 0/1 bits never divides by zero
        assert self.rates.pull_rate_ldcache(1) > 0

    def test_bigger_cache_helps(self):
        big_cache = NodeKernelRates(chip=ChipSpec(ldm_bytes=1024 * 1024))
        ws = 1 << 23
        assert big_cache.pull_rate_ldcache(ws) > self.rates.pull_rate_ldcache(ws)

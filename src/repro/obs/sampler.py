"""Live telemetry sampling: a ring buffer of registry snapshots.

A :class:`TelemetrySampler` periodically reduces a
:class:`~repro.obs.metrics.MetricsRegistry` to one flat snapshot —
per-family counter totals, gauge values, histogram count/sum — plus a
small set of *derived* serving signals (queue depth, batch occupancy,
cache hit rate) and keeps the last :data:`SAMPLE_CAPACITY` snapshots in
a deque.
This is the substrate the ROADMAP's "online self-tuning from the metrics
feedback loop" item needs: a mid-run time-series instead of a single
end-of-run export.

Sampling is read-only and lock-free: registries are only ever mutated by
monotone increments from the serving loop, so a snapshot taken mid-update
is a consistent *recent* state, never a corrupt one.  The sampler never
touches :data:`~repro.obs.metrics.NULL_METRICS`-fed paths — with metrics
disabled there is nothing to sample and no sampler is constructed.

Use :meth:`TelemetrySampler.sample` directly from tests or synchronous
code, or :meth:`start`/:meth:`stop` to run the cadence on an asyncio
loop next to a :class:`~repro.serve.service.TraversalService`.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque

__all__ = ["TelemetrySampler", "DEFAULT_SAMPLE_INTERVAL", "SAMPLE_CAPACITY"]

#: Default sampling cadence (seconds) — coarse enough to be free next to
#: millisecond-scale serving, fine enough to catch queue buildups.
DEFAULT_SAMPLE_INTERVAL = 0.25

#: Snapshots the ring keeps (two minutes at the default cadence).
SAMPLE_CAPACITY = 512


class TelemetrySampler:
    """Snapshots a metrics registry into a bounded ring at a cadence."""

    def __init__(
        self,
        registry,
        *,
        interval: float = DEFAULT_SAMPLE_INTERVAL,
        clock=time.monotonic,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be > 0")
        self.registry = registry
        self.interval = float(interval)
        self._clock = clock
        self._ring: deque[dict] = deque(maxlen=SAMPLE_CAPACITY)
        self._seq = 0
        self._task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # snapshotting
    # ------------------------------------------------------------------

    def sample(self) -> dict:
        """Take one snapshot, append it to the ring, and return it."""
        now = self._clock()
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        reg = self.registry
        for name, kind in reg.families().items():
            insts = [inst for _, inst in reg.samples(name)]
            if kind == "counter":
                counters[name] = float(sum(i.value for i in insts))
            elif kind == "gauge":
                gauges[name] = float(sum(i.value for i in insts))
            elif kind == "histogram":
                histograms[name] = {
                    "count": int(sum(i.count for i in insts)),
                    "sum": float(sum(i.sum for i in insts)),
                }
        snap = {
            "t": now,
            "seq": self._seq,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "derived": self._derive(gauges, histograms),
        }
        self._seq += 1
        self._ring.append(snap)
        return snap

    def _derive(self, gauges: dict, histograms: dict) -> dict:
        reg = self.registry
        cached = reg.counter_total("serve_requests", outcome="cached")
        completed = reg.counter_total("serve_requests", outcome="completed")
        served = cached + completed
        batch = histograms.get("serve_batch_size", {"count": 0, "sum": 0.0})
        return {
            "queue_depth": gauges.get("serve_queue_depth", 0.0),
            "cache_hit_rate": cached / served if served else 0.0,
            "batch_occupancy": (
                batch["sum"] / batch["count"] if batch["count"] else 0.0
            ),
        }

    # ------------------------------------------------------------------
    # ring access
    # ------------------------------------------------------------------

    @property
    def samples(self) -> list[dict]:
        """The retained snapshots, oldest first."""
        return list(self._ring)

    @property
    def latest(self) -> dict | None:
        return self._ring[-1] if self._ring else None

    @property
    def taken(self) -> int:
        """Snapshots ever taken (``>= len(samples)`` once the ring wraps)."""
        return self._seq

    def to_dict(self) -> dict:
        return {
            "interval_seconds": self.interval,
            "capacity": SAMPLE_CAPACITY,
            "taken": self._seq,
            "samples": self.samples,
        }

    # ------------------------------------------------------------------
    # asyncio cadence
    # ------------------------------------------------------------------

    async def start(self) -> None:
        if self._task is not None:
            raise RuntimeError("sampler already started")
        self._task = asyncio.create_task(self._loop())

    async def stop(self) -> None:
        if self._task is None:
            return
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._task = None

    async def _loop(self) -> None:
        while True:
            self.sample()
            await asyncio.sleep(self.interval)

"""Aggregated metrics: labeled counters, gauges, and histograms.

Where the :class:`~repro.obs.tracer.Tracer` records *every* event as a
span, the :class:`MetricsRegistry` keeps *aggregates*: monotonically
increasing counters, point-in-time gauges, fixed-exponential-bucket
histograms, and per-rank accumulation vectors, each labeled by
dimensions like ``component``/``direction``/``kind``/``phase``.  This is
the surface the paper's evaluation tables are cut from — time share by
subgraph (Fig. 10) is ``comm_seconds`` + ``compute_seconds`` summed over
the ``phase`` label, time share by communication type (Fig. 11) is the
same counters cut by ``kind``, and the per-CG load balance of Fig. 13 is
the ``rank_items``/``rank_bytes`` per-rank vectors.

The registry is fed automatically from the runtime's choke points, so
every engine emits the same metric families with zero per-engine code.
The traversal families are folded in once per run, when it ends:
:meth:`~repro.runtime.ledger.TrafficLedger.publish` folds the ledger's
events into the comm/compute families, and the
:class:`~repro.core.kernels.scheduler.LevelSyncScheduler` folds the
level-loop families from the run's iteration records; nothing calls the
registry per charge or per level.  The :class:`~repro.runtime.comm.SimCommunicator` adds
its per-rank byte vectors per collective.  See
``docs/observability.md`` for the family table.

The default everywhere is :data:`NULL_METRICS`, a no-op registry: an
uninstrumented run allocates nothing and stays bit-identical.

Exporters: :func:`to_prometheus_text` (Prometheus text exposition
format) and :func:`registry_to_json` (schema-versioned JSON).
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "RankVector",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "exponential_buckets",
    "to_prometheus_text",
    "registry_to_json",
]

#: Version tag of the JSON metrics export.
METRICS_SCHEMA = "repro.metrics/1"

#: HTTP Content-Type of the text exposition format (what a Prometheus
#: scraper expects from a ``/metrics`` endpoint).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def exponential_buckets(
    start: float = 1.0, factor: float = 2.0, count: int = 40
) -> tuple[float, ...]:
    """Upper bounds ``start * factor**i`` for ``i in range(count)``.

    The implicit final bucket is ``+Inf`` (the Prometheus convention),
    so every observation lands somewhere.
    """
    if start <= 0:
        raise ValueError("bucket start must be positive")
    if factor <= 1.0:
        raise ValueError("bucket growth factor must exceed 1")
    if count < 1:
        raise ValueError("need at least one bucket")
    return tuple(start * factor**i for i in range(count))


#: Default bucket ladder: 1 .. 2**39 (~5.5e11), wide enough for byte and
#: item volumes at any simulated scale.
DEFAULT_BUCKETS = exponential_buckets(1.0, 2.0, 40)


class Counter:
    """Monotonically increasing sum."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += float(amount)


class Gauge:
    """Point-in-time value (last write wins)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-exponential-bucket histogram with exact sum/min/max.

    Bucket ``i`` counts observations ``<= bounds[i]``; the final
    (implicit ``+Inf``) bucket catches overflow.  Percentiles are
    estimated as the upper bound of the bucket containing the requested
    rank — an upper bound on the true percentile, stable across runs.
    """

    __slots__ = ("bounds", "_edges", "bucket_counts", "count", "sum", "min", "max")
    kind = "histogram"

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("bucket bounds must be strictly increasing")
        # The bounds as the array ``observe_many`` searches, made once.
        self._edges = np.array(self.bounds)
        self.bucket_counts = np.zeros(len(self.bounds) + 1, dtype=np.int64)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        # Scalar fast path: bisect on the bounds tuple is ~20x cheaper
        # than routing one value through the vectorized numpy path, and
        # single observations are the telemetry hot path (one per
        # dispatch / request stage).
        v = float(value)
        self.bucket_counts[bisect_left(self.bounds, v)] += 1
        self.count += 1
        self.sum += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    def observe_many(self, values: np.ndarray) -> None:
        """Vectorized observation of a whole array (e.g. a per-rank
        work vector)."""
        v = np.asarray(values, dtype=np.float64).ravel()
        if v.size == 0:
            return
        idx = np.searchsorted(self._edges, v, side="left")
        self.bucket_counts += np.bincount(idx, minlength=self.bucket_counts.size)
        self.count += int(v.size)
        self.sum += float(v.sum())
        self.min = min(self.min, float(v.min()))
        self.max = max(self.max, float(v.max()))

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile rank
        (``q`` in [0, 1]); exact ``max`` for the last bucket."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cum = np.cumsum(self.bucket_counts)
        i = int(np.searchsorted(cum, rank, side="left"))
        if i >= len(self.bounds):
            return self.max
        return min(self.bounds[i], self.max)

    def summary(self) -> dict:
        """The stable scalar digest RunReports embed."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
        }


class RankVector:
    """Per-rank accumulation vector (elementwise sum of added vectors).

    Keeps the exact per-rank totals — rank identity intact — so load
    balance (Fig. 13's max-min spread, max/avg) is computed from true
    totals rather than from lossy buckets.
    """

    __slots__ = ("values",)
    kind = "vector"

    def __init__(self) -> None:
        self.values = np.zeros(0, dtype=np.float64)

    def add(self, values: np.ndarray) -> None:
        v = np.asarray(values, dtype=np.float64).ravel()
        if v.size > self.values.size:
            grown = np.zeros(v.size, dtype=np.float64)
            grown[: self.values.size] = self.values
            self.values = grown
        self.values[: v.size] += v

    def summary(self) -> dict:
        """Exact balance digest over the accumulated per-rank totals."""
        v = self.values
        if v.size == 0 or v.sum() == 0:
            return {"ranks": int(v.size), "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p95": 0.0, "spread": 0.0,
                    "max_over_avg": 0.0}
        mean = float(v.mean())
        return {
            "ranks": int(v.size),
            "sum": float(v.sum()),
            "min": float(v.min()),
            "max": float(v.max()),
            "mean": mean,
            "p50": float(np.percentile(v, 50)),
            "p95": float(np.percentile(v, 95)),
            #: Fig. 13's (max - min) / avg.
            "spread": float((v.max() - v.min()) / mean),
            #: Fig. 13's max / avg - 1.
            "max_over_avg": float(v.max() / mean - 1.0),
        }


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Family:
    """All samples of one metric name (shared type across label sets)."""

    __slots__ = ("name", "kind", "samples")

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        self.kind = kind
        #: label key tuple -> instrument
        self.samples: dict[tuple, object] = {}


class MetricsRegistry:
    """Labeled metric families, fed by the runtime's choke points.

    ``counter``/``gauge``/``histogram``/``vector`` get-or-create one
    instrument per (name, labels) pair; a name is bound to one
    instrument type on first use and mixing types raises.
    """

    enabled = True

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    # ------------------------------------------------------------------
    # instrument accessors
    # ------------------------------------------------------------------

    def _get(self, name: str, kind: str, factory, labels: dict) -> object:
        fam = self._families.get(name)
        if fam is None:
            fam = self._families[name] = _Family(name, kind)
        elif fam.kind != kind:
            raise TypeError(
                f"metric {name!r} is a {fam.kind}, not a {kind}"
            )
        key = _label_key(labels)
        inst = fam.samples.get(key)
        if inst is None:
            inst = fam.samples[key] = factory()
        return inst

    def counter(self, name: str, **labels) -> Counter:
        return self._get(name, "counter", Counter, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(name, "gauge", Gauge, labels)

    def histogram(
        self, name: str, *, buckets: tuple[float, ...] = DEFAULT_BUCKETS, **labels
    ) -> Histogram:
        return self._get(name, "histogram", lambda: Histogram(buckets), labels)

    def vector(self, name: str, **labels) -> RankVector:
        return self._get(name, "vector", RankVector, labels)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def families(self) -> dict[str, str]:
        """name -> instrument kind, for every family seen."""
        return {name: fam.kind for name, fam in sorted(self._families.items())}

    def samples(self, name: str) -> list[tuple[dict[str, str], object]]:
        """(labels, instrument) pairs of one family (empty if unseen)."""
        fam = self._families.get(name)
        if fam is None:
            return []
        return [(dict(key), inst) for key, inst in sorted(fam.samples.items())]

    def counter_total(self, name: str, **label_filter) -> float:
        """Sum a counter family over samples matching the filter."""
        total = 0.0
        for labels, inst in self.samples(name):
            if all(labels.get(k) == str(v) for k, v in label_filter.items()):
                total += inst.value
        return total


class _NullInstrument:
    """Inert counter/gauge/histogram/vector: every write vanishes."""

    __slots__ = ()

    value = 0.0
    count = 0
    sum = 0.0
    min = 0.0
    max = 0.0
    mean = 0.0
    values = np.zeros(0)
    bounds = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values) -> None:
        pass

    def add(self, values) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0

    def summary(self) -> dict:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry:
    """Zero-overhead registry: all instruments are shared no-ops.

    The default for every instrumented component, so unmetered runs take
    the same code paths, allocate nothing, and produce bit-identical
    results (pinned by test).
    """

    enabled = False

    def counter(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, **kwargs) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def vector(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def families(self) -> dict:
        return {}

    def samples(self, name: str) -> list:
        return []

    def counter_total(self, name: str, **label_filter) -> float:
        return 0.0


#: Shared inert registry used as the default everywhere.
NULL_METRICS = NullMetricsRegistry()


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------


def _fmt_value(v: float) -> str:
    if v == math.inf:
        return "+Inf"
    if v == -math.inf:
        return "-Inf"
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _escape_label_value(value: str) -> str:
    """Label-value escaping per the exposition format: backslash,
    double quote, and line feed."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _fmt_labels(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = {**labels, **(extra or {})}
    if not merged:
        return ""
    body = ",".join(
        f'{k}="{_escape_label_value(v)}"' for k, v in sorted(merged.items())
    )
    return "{" + body + "}"


#: Namespace every exported Prometheus metric name starts with.
PROMETHEUS_PREFIX = "repro_"


def to_prometheus_text(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format.

    Metric names carry :data:`PROMETHEUS_PREFIX`.  Counters get the conventional ``_total`` suffix; histograms emit
    cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``;
    per-rank vectors emit one gauge sample per rank under a ``rank``
    label.  Ends with the format-required trailing newline.
    """
    lines: list[str] = []
    for name, kind in registry.families().items():
        metric = PROMETHEUS_PREFIX + name
        if kind == "counter":
            metric += "_total"
        prom_type = {"counter": "counter", "gauge": "gauge",
                     "histogram": "histogram", "vector": "gauge"}[kind]
        lines.append(f"# TYPE {metric} {prom_type}")
        for labels, inst in registry.samples(name):
            if kind in ("counter", "gauge"):
                lines.append(f"{metric}{_fmt_labels(labels)} {_fmt_value(inst.value)}")
            elif kind == "histogram":
                cum = 0
                for bound, n in zip(inst.bounds, inst.bucket_counts):
                    cum += int(n)
                    le = _fmt_labels(labels, {"le": _fmt_value(bound)})
                    lines.append(f"{metric}_bucket{le} {cum}")
                le = _fmt_labels(labels, {"le": "+Inf"})
                lines.append(f"{metric}_bucket{le} {inst.count}")
                lines.append(f"{metric}_sum{_fmt_labels(labels)} {_fmt_value(inst.sum)}")
                lines.append(f"{metric}_count{_fmt_labels(labels)} {inst.count}")
            else:  # vector -> per-rank gauge samples
                for rank, v in enumerate(inst.values):
                    lab = _fmt_labels(labels, {"rank": str(rank)})
                    lines.append(f"{metric}{lab} {_fmt_value(float(v))}")
    return "\n".join(lines) + "\n"


def registry_to_json(registry: MetricsRegistry) -> dict:
    """Schema-versioned JSON document of every family and sample."""
    families = {}
    for name, kind in registry.families().items():
        samples = []
        for labels, inst in registry.samples(name):
            if kind in ("counter", "gauge"):
                samples.append({"labels": labels, "value": inst.value})
            elif kind == "histogram":
                samples.append({
                    "labels": labels,
                    **inst.summary(),
                    "buckets": [
                        [b, int(n)]
                        for b, n in zip(inst.bounds, inst.bucket_counts)
                        if n
                    ],
                    "overflow": int(inst.bucket_counts[-1]),
                })
            else:  # vector
                samples.append({
                    "labels": labels,
                    **inst.summary(),
                    "values": [float(v) for v in inst.values],
                })
        families[name] = {"type": kind, "samples": samples}
    return {"schema": METRICS_SCHEMA, "families": families}

"""Traffic and compute ledger.

Every communication and kernel the simulated BFS performs is recorded here
with its *exact counted volume* and its *modeled time*.  The ledger is the
bridge between the functional simulation and the paper's evaluation
figures:

- Fig. 10's per-subgraph breakdown = compute+comm seconds grouped by the
  event ``phase`` tag (``"EH2EH"``, ``"L2L"``, ...);
- Fig. 11's per-communication-type breakdown
  (:meth:`TrafficLedger.seconds_by_category`) = comm seconds grouped by
  :class:`~repro.machine.costmodel.CollectiveKind`, plus the compute and
  imbalance terms;
- Fig. 9's GTEPS = traversed edges / ``total_seconds``.

When a :class:`~repro.obs.tracer.Tracer` is attached (``tracer=``), every
charge additionally emits a leaf span under the tracer's currently open
span — simulated duration equal to the priced seconds, a ``bytes``
counter for collectives and an ``items`` counter for kernels — so span
aggregates reproduce the ledger's totals exactly.  The default
:data:`~repro.obs.tracer.NULL_TRACER` makes this a no-op.

The ledger is the one record of a run's charges; a
:class:`~repro.obs.metrics.MetricsRegistry` attached as ``metrics=`` is
not called by any charge.  :meth:`TrafficLedger.publish` folds the
events charged since the last publish into the aggregate metric
families, once per run (the scheduler calls it when a run ends, crashed
or not): ``comm_seconds``/``comm_bytes``/``comm_events`` counters
labeled by ``phase`` and collective ``kind``, ``compute_seconds``/
``compute_items``/``compute_events``/``imbalance_seconds`` counters
labeled by ``phase`` and ``kernel``, a ``collective_bytes`` exponential
histogram per kind, and the ``rank_items`` per-rank work vector plus
``rank_load`` histogram behind Fig. 13's load-balance analysis.  The
fold gets each instrument once per label set; float sums are added in
charge order onto the instrument's current value, so the registry reads
what per-charge updates would have left there, to the bit, and its
counter totals equal the ledger's (``counter_total("comm_bytes") ==
total_bytes``).  With the default :data:`~repro.obs.metrics.NULL_METRICS`
publishing is a no-op.

With the tracer disabled (``enabled = False``, as the default is), a
charge records only its event: it validates, prices, consults the fault
injector and appends.  The check reads ``enabled`` on every charge, so a
tracer attached later is honoured.  The events are
:class:`~typing.NamedTuple` records (:class:`CommEvent`,
:class:`ComputeEvent`): immutable, compared by value, and cheap to
build, since every charge builds one.  Pricing reads constants: the
:class:`~repro.machine.costmodel.CostModel` prices each collective kind
and participant count once.

When a :class:`~repro.resilience.faults.FaultInjector` is attached
(``faults=``), the ledger is additionally the fault *consumption* choke
point: every collective charge asks the injector for an outcome — each
drop/corruption records the failed attempt as a full-cost wasted
``CommEvent`` plus an exponential-backoff wait (:meth:`charge_wait`)
before the successful transfer, and straggler faults multiply the
successful attempt's critical-path seconds.  Because both the analytic
engines and the functional :class:`~repro.runtime.comm.SimCommunicator`
charge through here, all seven engine configs inherit fault behaviour
from this one hook.  The default (``faults=None``) skips the injector
entirely and keeps unfaulted runs bit-identical.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.machine.costmodel import CollectiveKind, CostModel
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER

__all__ = ["CommEvent", "ComputeEvent", "TrafficLedger"]


class CommEvent(NamedTuple):
    """One collective operation."""

    phase: str
    kind: CollectiveKind
    participants: int
    max_bytes_intra: float
    max_bytes_inter: float
    total_bytes: float
    seconds: float


class ComputeEvent(NamedTuple):
    """One compute kernel invocation (time of the busiest node)."""

    phase: str
    kernel: str
    max_items: int
    total_items: int
    seconds: float
    #: Idle time of the average node while waiting for the busiest one.
    imbalance_seconds: float = 0.0
    #: The per-node work vector (Fig. 13's per-rank items).
    items: tuple = ()


@dataclass
class TrafficLedger:
    """Accumulates priced communication and compute events."""

    cost_model: CostModel
    comm_events: list[CommEvent] = field(default_factory=list)
    compute_events: list[ComputeEvent] = field(default_factory=list)
    #: Observability sink; while enabled, every charge mirrors into a leaf span.
    tracer: object = field(default=NULL_TRACER, repr=False, compare=False)
    #: Aggregate sink; :meth:`publish` folds the events into its families.
    metrics: object = field(default=NULL_METRICS, repr=False, compare=False)
    #: Optional :class:`~repro.resilience.faults.FaultInjector`; ``None``
    #: (the default) takes the fault-free fast path.
    faults: object = field(default=None, repr=False, compare=False)
    #: ``(comm, compute)`` events already folded into ``metrics``.
    _published: tuple = field(default=(0, 0), init=False, repr=False, compare=False)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _commit_collective(
        self,
        phase: str,
        kind: CollectiveKind,
        participants: int,
        max_bytes_intra: float,
        max_bytes_inter: float,
        total_bytes: float,
        seconds: float,
        wasted: bool = False,
    ) -> None:
        """Append one priced collective event; mirror it to a listening tracer."""
        self.comm_events.append(
            CommEvent(phase, kind, participants, max_bytes_intra,
                      max_bytes_inter, total_bytes, seconds)
        )
        if not self.tracer.enabled:
            return
        name = kind.value
        self.tracer.charge(
            name,
            category="collective",
            sim_seconds=seconds,
            counters={"bytes": total_bytes},
            phase=phase,
            kind=name,
            participants=participants,
            **({"wasted": True} if wasted else {}),
        )

    def charge_collective(
        self,
        phase: str,
        kind: CollectiveKind,
        participants: int,
        max_bytes_intra: float = 0.0,
        max_bytes_inter: float = 0.0,
        total_bytes: float | None = None,
        group=None,
    ) -> float:
        """Price and record one collective; returns its modeled seconds.

        ``group`` is the explicit participating rank set when the caller
        knows it (the functional communicator's row/column groups); it is
        only consulted by the fault injector, never by the cost model.
        With an injector installed, a drop/corruption fault records each
        failed attempt at full cost plus a backoff wait before the
        successful one, and stragglers stretch the successful attempt —
        the returned seconds are the *successful* attempt's only.
        """
        if max_bytes_intra < 0 or max_bytes_inter < 0:
            raise ValueError("byte volumes must be nonnegative")
        if total_bytes is not None and total_bytes < 0:
            raise ValueError("total_bytes must be nonnegative")
        seconds = self.cost_model.collective_time(
            kind, participants, max_bytes_intra, max_bytes_inter
        )
        total = (
            max_bytes_intra + max_bytes_inter
            if total_bytes is None
            else total_bytes
        )
        if self.faults is not None:
            outcome = self.faults.collective(phase, kind, participants, group)
            if outcome is not None:
                for attempt in range(outcome.retries):
                    # The lost transfer burned its full critical path...
                    self._commit_collective(
                        phase, kind, participants, max_bytes_intra,
                        max_bytes_inter, total, seconds, wasted=True,
                    )
                    # ...and the sender backed off before retrying.
                    self.charge_wait(phase, outcome.backoff_seconds(attempt))
                if outcome.straggle_factor != 1.0:
                    seconds = seconds * outcome.straggle_factor
        self._commit_collective(
            phase, kind, participants, max_bytes_intra, max_bytes_inter,
            total, seconds,
        )
        return seconds

    def charge_scoped(
        self,
        phase: str,
        kind: CollectiveKind,
        participants: int,
        nbytes: float,
        split: tuple[float, float],
    ) -> float:
        """One collective over a scope (a row, a column, the whole mesh)
        in which each of ``participants`` ranks moves ``nbytes``;
        ``split`` is the scope's (intra, inter)-supernode traffic share
        (``ProcessMesh.group_traffic_split``)."""
        return self.charge_collective(
            phase,
            kind,
            participants,
            nbytes * split[0],
            nbytes * split[1],
            total_bytes=nbytes * participants,
        )

    def charge_allreduce(
        self, phase: str, participants: int, nbytes: float, split: tuple[float, float]
    ) -> None:
        """Allreduce of ``nbytes`` per rank over a scope, priced as the
        reduce-scatter + allgather pair of the same bytes a
        bandwidth-optimal implementation runs (each charged as
        :meth:`charge_scoped` would)."""
        intra, inter = nbytes * split[0], nbytes * split[1]
        total = nbytes * participants
        for kind in (CollectiveKind.REDUCE_SCATTER, CollectiveKind.ALLGATHER):
            self.charge_collective(phase, kind, participants, intra, inter, total)

    def charge_wait(self, phase: str, seconds: float) -> float:
        """Record pure waiting time (retry backoff, restore stalls).

        Priced as a zero-byte single-participant barrier with explicit
        seconds — it never consults the fault injector, so waits cannot
        recursively fault.
        """
        if seconds < 0:
            raise ValueError("wait seconds must be nonnegative")
        self._commit_collective(
            phase, CollectiveKind.BARRIER, 1, 0.0, 0.0, 0.0, seconds
        )
        return seconds

    def charge_compute(
        self,
        phase: str,
        kernel: str,
        per_node_items: np.ndarray | list[int],
        seconds_for_max: float,
    ) -> float:
        """Record a kernel: time is the busiest node's, imbalance is the gap.

        ``per_node_items`` is the exact per-node work vector (arcs scanned,
        messages produced...); ``seconds_for_max`` prices the busiest node.
        """
        if seconds_for_max < 0:
            raise ValueError("seconds_for_max must be nonnegative")
        items = np.asarray(per_node_items, dtype=np.int64)
        values = items.tolist()
        if values and min(values) < 0:
            raise ValueError("per-node item counts must be nonnegative")
        if self.faults is not None:
            # A straggling rank stretches the busiest-node critical path.
            factor = self.faults.compute_factor(phase, items)
            if factor != 1.0:
                seconds_for_max = seconds_for_max * factor
        max_items = max(values, default=0)
        total_items = sum(values)
        mean_items = total_items / len(values) if values else 0.0
        imbalance = (
            seconds_for_max * (1.0 - mean_items / max_items) if max_items else 0.0
        )
        self.compute_events.append(
            ComputeEvent(phase, kernel, max_items, total_items,
                         seconds_for_max, imbalance, tuple(values))
        )
        if not self.tracer.enabled:
            return seconds_for_max
        self.tracer.charge(
            kernel,
            category="kernel",
            sim_seconds=seconds_for_max,
            counters={"items": float(total_items),
                      "imbalance_seconds": imbalance},
            phase=phase,
        )
        return seconds_for_max

    def publish(self) -> None:
        """Fold the events charged (or merged) since the last publish into
        the registry's families; a no-op on a disabled registry.

        Each instrument is got from the registry once, on its label set's
        first event, and then updated event by event in charge order, so
        every float sum rounds as per-charge updates would have.  The
        per-rank work vectors, integers, fold in one numpy pass a phase.
        """
        m = self.metrics
        if not m.enabled:
            return
        done_comm, done_compute = self._published
        self._published = (len(self.comm_events), len(self.compute_events))
        comm = _Once(lambda key: [
            m.counter(name, phase=key[0], kind=key[1].value)
            for name in ("comm_seconds", "comm_bytes", "comm_events")
        ])
        sizes = _Once(lambda kind: m.histogram("collective_bytes", kind=kind.value))
        for e in self.comm_events[done_comm:]:
            seconds, nbytes, count = comm[e.phase, e.kind]
            seconds.inc(e.seconds)
            nbytes.inc(e.total_bytes)
            count.inc()
            sizes[e.kind].observe(e.total_bytes)

        compute = _Once(lambda key: [
            m.counter(name, phase=key[0], kernel=key[1])
            for name in ("compute_seconds", "compute_items", "compute_events")
        ])
        idle = _Once(lambda phase: m.counter("imbalance_seconds", phase=phase))
        loads = defaultdict(list)  # (phase, nodes) -> per-node work rows
        for c in self.compute_events[done_compute:]:
            seconds, items, count = compute[c.phase, c.kernel]
            seconds.inc(c.seconds)
            items.inc(c.total_items)
            count.inc()
            idle[c.phase].inc(c.imbalance_seconds)
            if c.items:
                loads[c.phase, len(c.items)].append(c.items)
        for (phase, _), rows in loads.items():
            # Per-rank work: exact totals (Fig. 13 balance) + histogram.
            work = np.array(rows, dtype=np.int64)
            m.vector("rank_items", phase=phase).add(work.sum(axis=0))
            m.histogram("rank_load", phase=phase).observe_many(work)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def comm_seconds(self) -> float:
        return float(sum(e.seconds for e in self.comm_events))

    @property
    def compute_seconds(self) -> float:
        return float(sum(e.seconds for e in self.compute_events))

    @property
    def total_seconds(self) -> float:
        return self.comm_seconds + self.compute_seconds

    @property
    def imbalance_seconds(self) -> float:
        return float(sum(e.imbalance_seconds for e in self.compute_events))

    @property
    def total_bytes(self) -> float:
        return float(sum(e.total_bytes for e in self.comm_events))

    def seconds_by_phase(self) -> dict[str, float]:
        """Phase tag -> total (comm + compute) seconds (Fig. 10)."""
        acc: dict[str, float] = defaultdict(float)
        for e in self.comm_events:
            acc[e.phase] += e.seconds
        for c in self.compute_events:
            acc[c.phase] += c.seconds
        return dict(acc)

    def seconds_by_category(self) -> dict[str, float]:
        """Fig. 11: pure compute, imbalance/latency, and comm seconds per
        collective kind (named by ``kind.value``)."""
        out = {
            "compute": self.compute_seconds - self.imbalance_seconds,
            "imbalance/latency": self.imbalance_seconds,
        }
        for kind, secs in self.comm_seconds_by_kind().items():
            out[kind.value] = secs
        return out

    def comm_seconds_by_kind(self) -> dict[CollectiveKind, float]:
        """Collective kind -> seconds (Fig. 11's comm categories)."""
        acc: dict[CollectiveKind, float] = defaultdict(float)
        for e in self.comm_events:
            acc[e.kind] += e.seconds
        return dict(acc)

    def bytes_by_kind(self) -> dict[CollectiveKind, float]:
        acc: dict[CollectiveKind, float] = defaultdict(float)
        for e in self.comm_events:
            acc[e.kind] += e.total_bytes
        return dict(acc)

    def merge(self, other: "TrafficLedger") -> None:
        """Fold another ledger's events into this one (multi-root runs, a
        recovered run's aborted attempts).  What ``other`` already
        published to this ledger's registry stays published when it lands
        right after this ledger's own published events, so a recovered
        result can be published again without counting twice."""
        done = (len(self.comm_events), len(self.compute_events))
        if other.metrics is self.metrics and self._published == done:
            self._published = (done[0] + other._published[0],
                               done[1] + other._published[1])
        self.comm_events.extend(other.comm_events)
        self.compute_events.extend(other.compute_events)


class _Once(dict):
    """Instruments by label key, each got from the registry on first use."""

    def __init__(self, get) -> None:
        super().__init__()
        self.get_instruments = get

    def __missing__(self, key):
        found = self[key] = self.get_instruments(key)
        return found

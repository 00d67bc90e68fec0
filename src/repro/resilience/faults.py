"""Deterministic fault injection for the simulated runtime.

At the paper's scale (103,912 nodes, 40M cores) component failure is not
an edge case — it is the steady state the communication layer must
survive.  This module injects those failures into the simulation so the
cost of surviving them can be *measured* like any other phase:

- **crash** — a rank dies at the start of BFS iteration ``k``; the run
  aborts with :class:`RankCrashError` and a recovery policy
  (:mod:`repro.resilience.recovery`) decides whether to restore from a
  checkpoint, restart from scratch, or degrade gracefully.
- **straggler** — a slow rank multiplies the charged critical-path time
  of every matching collective/kernel (the slowest participant bounds a
  synchronous collective).
- **drop** / **corrupt** — a collective's payload is lost or corrupted
  on the wire; the transfer is detected (sha256 payload fingerprint for
  corruption) and retried with backoff, so each fault charges the full
  wasted attempt plus the backoff wait to the
  :class:`~repro.runtime.ledger.TrafficLedger`.

Faults are described by a compact spec grammar (see
:func:`parse_fault_spec` and ``docs/resilience.md``)::

    crash:rank=3,iter=2
    straggler:rank=1,factor=4,phase=L2L,iter=0-5
    drop:phase=H2L,count=2,retries=1
    corrupt:phase=L2L,p=0.25

A :class:`FaultInjector` is installed onto a
:class:`~repro.runtime.ledger.TrafficLedger` (``ledger.faults``) by the
:class:`~repro.core.kernels.scheduler.LevelSyncScheduler`, so every
engine — the 1.5D ``DistributedBFS``, the baselines, and the SPMD
``ReplayBFS`` — inherits fault behaviour through the one charge choke
point with zero per-engine code.  The functional payload-corruption
round-trip additionally hooks :class:`~repro.runtime.comm.SimCommunicator`
delivery (see :meth:`FaultInjector.verify_delivery`).

All randomness (probabilistic faults, corruption positions) draws from
one seeded :class:`numpy.random.Generator` threaded down from
``run_graph500`` — the same generator that samples BFS roots — so a
faulty run is bit-reproducible from ``--seed`` alone.

The default everywhere is :data:`NULL_FAULTS`, a no-op injector: an
unfaulted run takes the same code paths and stays bit-identical
(pinned against the committed smoke baseline).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.obs.metrics import NULL_METRICS

__all__ = [
    "Fault",
    "FaultPlan",
    "FaultSpecError",
    "FaultInjector",
    "NullFaultInjector",
    "NULL_FAULTS",
    "RankCrashError",
    "CollectiveOutcome",
    "parse_fault_spec",
]

FAULT_KINDS = ("crash", "straggler", "drop", "corrupt")


class FaultSpecError(ValueError):
    """A fault spec string failed to parse or validate."""


class RankCrashError(RuntimeError):
    """A simulated rank died mid-run.

    Raised by the injector at the iteration boundary where the crash
    fault fires; the scheduler annotates the exception with the partial
    run's ledger and completed-iteration count before re-raising, so a
    recovery policy can account the wasted work.
    """

    def __init__(self, rank: int, iteration: int) -> None:
        super().__init__(f"rank {rank} crashed at iteration {iteration}")
        self.rank = rank
        self.iteration = iteration
        #: Attached by the scheduler: the aborted attempt's ledger.
        self.ledger = None
        #: Attached by the scheduler: iterations completed before death.
        self.completed_iterations = 0

    @property
    def wasted_seconds(self) -> float:
        """Simulated seconds the aborted attempt burned."""
        return self.ledger.total_seconds if self.ledger is not None else 0.0


@dataclass(frozen=True)
class Fault:
    """One injected failure (see the module grammar)."""

    kind: str
    #: Affected rank (crash/straggler); ``None`` = any participant.
    rank: int | None = None
    #: Trigger iteration (crash) or first iteration of the active window.
    iteration: int | None = None
    #: Last iteration of the active window (defaults to ``iteration``).
    last_iteration: int | None = None
    #: Phase filter (collective/kernel tag, e.g. ``L2L``); ``None`` = any.
    phase: str | None = None
    #: Straggler slowdown multiplier.
    factor: float = 4.0
    #: Number of matching events a drop/corrupt fault affects.
    count: int = 1
    #: Failed attempts charged per affected event.
    retries: int = 1
    #: Per-event fault probability (alternative to ``count``).
    probability: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultSpecError(
                f"unknown fault kind {self.kind!r} (one of {', '.join(FAULT_KINDS)})"
            )
        if self.kind == "crash":
            if self.rank is None or self.iteration is None:
                raise FaultSpecError("crash faults need rank= and iter=")
        if self.kind == "straggler" and self.factor <= 1.0:
            raise FaultSpecError("straggler factor must exceed 1")
        if self.count < 1:
            raise FaultSpecError("count must be >= 1")
        if self.retries < 1:
            raise FaultSpecError("retries must be >= 1")
        if self.probability is not None and not 0.0 < self.probability <= 1.0:
            raise FaultSpecError("p must be in (0, 1]")
        if self.rank is not None and self.rank < 0:
            raise FaultSpecError("rank must be nonnegative")

    def window(self) -> tuple[int, int] | None:
        """Active iteration window ``[first, last]`` or ``None`` = always."""
        if self.iteration is None:
            return None
        last = self.last_iteration if self.last_iteration is not None else self.iteration
        return self.iteration, last


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, validated set of faults parsed from one spec string."""

    faults: tuple[Fault, ...]
    spec: str = ""

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def validate(self, num_ranks: int) -> "FaultPlan":
        """Check rank references against a concrete mesh size."""
        for f in self.faults:
            if f.rank is not None and f.rank >= num_ranks:
                raise FaultSpecError(
                    f"fault {f.kind!r} targets rank {f.rank} but the mesh has "
                    f"only {num_ranks} ranks"
                )
        return self


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise FaultSpecError(f"{key}= expects an integer, got {value!r}") from exc


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise FaultSpecError(f"{key}= expects a number, got {value!r}") from exc


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse a ``;``-separated fault spec string into a :class:`FaultPlan`.

    Grammar (full reference in ``docs/resilience.md``)::

        SPEC  := fault (';' fault)*
        fault := KIND [':' key '=' value (',' key '=' value)*]
        KIND  := crash | straggler | drop | corrupt
        keys  := rank | iter (N or A-B) | phase | factor | count
                 | retries | p

    Raises :class:`FaultSpecError` with a actionable message on any
    malformed input — the CLI maps that to exit code 2 plus usage.
    """
    faults: list[Fault] = []
    text = (spec or "").strip()
    if not text:
        raise FaultSpecError("empty fault spec")
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        kind, _, body = clause.partition(":")
        kind = kind.strip().lower()
        kwargs: dict = {}
        if body.strip():
            for item in body.split(","):
                item = item.strip()
                if not item:
                    continue
                key, sep, value = item.partition("=")
                key, value = key.strip().lower(), value.strip()
                if not sep or not value:
                    raise FaultSpecError(
                        f"malformed clause {item!r} in {clause!r} "
                        "(expected key=value)"
                    )
                if key == "rank":
                    kwargs["rank"] = _parse_int(key, value)
                elif key in ("iter", "iteration"):
                    first, sep2, last = value.partition("-")
                    kwargs["iteration"] = _parse_int(key, first)
                    if sep2:
                        kwargs["last_iteration"] = _parse_int(key, last)
                elif key == "phase":
                    kwargs["phase"] = None if value == "*" else value
                elif key == "factor":
                    kwargs["factor"] = _parse_float(key, value)
                elif key == "count":
                    kwargs["count"] = _parse_int(key, value)
                elif key == "retries":
                    kwargs["retries"] = _parse_int(key, value)
                elif key in ("p", "prob", "probability"):
                    kwargs["probability"] = _parse_float(key, value)
                else:
                    raise FaultSpecError(
                        f"unknown key {key!r} in fault clause {clause!r}"
                    )
        try:
            faults.append(Fault(kind=kind, **kwargs))
        except TypeError as exc:
            raise FaultSpecError(f"invalid fault clause {clause!r}: {exc}") from exc
    if not faults:
        raise FaultSpecError("fault spec contains no fault clauses")
    return FaultPlan(faults=tuple(faults), spec=text)


#: Exponential backoff of a retried transfer (simulated seconds): the
#: wait before retry ``a`` (0-based) is ``BACKOFF_BASE_SECONDS *
#: BACKOFF_GROWTH**a``, capped at ``BACKOFF_MAX_SECONDS``.
BACKOFF_BASE_SECONDS = 5e-5
BACKOFF_GROWTH = 2.0
BACKOFF_MAX_SECONDS = 1e-2


@dataclass(frozen=True)
class CollectiveOutcome:
    """What the injector decided for one collective charge."""

    #: Failed attempts to charge before the successful one.
    retries: int = 0
    #: Critical-path inflation from stragglers.
    straggle_factor: float = 1.0
    #: Whether a corruption fault fired (payload round-trip in comm).
    corrupted: bool = False

    @staticmethod
    def backoff_seconds(attempt: int) -> float:
        """Wait before retry ``attempt`` (0-based)."""
        return min(BACKOFF_BASE_SECONDS * BACKOFF_GROWTH**attempt, BACKOFF_MAX_SECONDS)


class FaultInjector:
    """Stateful, deterministic executor of one :class:`FaultPlan`.

    One injector instance spans an entire (possibly multi-attempt,
    multi-root) run: count-limited faults are consumed exactly once, so
    a crash that triggered a restart does not re-fire on the recovered
    attempt — the semantics of a real one-off node failure.
    """

    enabled = True

    def __init__(
        self,
        plan: FaultPlan | str,
        *,
        rng: np.random.Generator | None = None,
        metrics=NULL_METRICS,
    ) -> None:
        self.plan = parse_fault_spec(plan) if isinstance(plan, str) else plan
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.metrics = metrics
        #: Current BFS iteration (-1 outside a scheduler loop).
        self.iteration = -1
        self.dead_ranks: set[int] = set()
        self.faults_fired = 0
        self.retries_total = 0
        self.corruptions_detected = 0
        self._crashes_fired: set[int] = set()
        self._stragglers_counted: set[int] = set()
        self._budget = {
            i: f.count
            for i, f in enumerate(self.plan)
            if f.kind in ("drop", "corrupt") and f.probability is None
        }
        self._pending_corruption = False

    # ------------------------------------------------------------------
    # scheduler hook: crash faults fire at iteration boundaries
    # ------------------------------------------------------------------

    def begin_iteration(self, iteration: int) -> None:
        """Advance the iteration cursor; raise when a crash fault fires."""
        self.iteration = iteration
        for i, f in enumerate(self.plan):
            if f.kind != "crash" or i in self._crashes_fired:
                continue
            if f.iteration is not None and iteration >= f.iteration:
                self._crashes_fired.add(i)
                self.dead_ranks.add(int(f.rank))
                self.faults_fired += 1
                self.metrics.counter("faults_injected", kind="crash").inc()
                raise RankCrashError(int(f.rank), iteration)

    def end_run(self) -> None:
        self.iteration = -1

    # ------------------------------------------------------------------
    # ledger hook: the single charging choke point
    # ------------------------------------------------------------------

    def _in_window(self, f: Fault) -> bool:
        window = f.window()
        if window is None:
            return True
        if self.iteration < 0:
            return False
        first, last = window
        return first <= self.iteration <= last

    def _matches(self, f: Fault, phase: str) -> bool:
        if f.phase is not None and f.phase != phase:
            return False
        return self._in_window(f)

    def collective(
        self,
        phase: str,
        kind,
        participants: int,
        group: np.ndarray | None = None,
    ) -> CollectiveOutcome | None:
        """Outcome for one collective charge (``None`` = untouched).

        ``group`` is the explicit participant set when the caller knows
        it (the functional :class:`~repro.runtime.comm.SimCommunicator`
        passes its row/column/global groups); a straggler fault only
        inflates collectives its slow rank takes part in.  Analytic
        charges pass ``None`` and are treated as involving every rank.
        """
        retries = 0
        factor = 1.0
        corrupted = False
        for i, f in enumerate(self.plan):
            if f.kind == "crash" or not self._matches(f, phase):
                continue
            if f.kind == "straggler":
                if (
                    f.rank is not None
                    and group is not None
                    and int(f.rank) not in np.asarray(group).tolist()
                ):
                    continue
                factor *= f.factor
                if i not in self._stragglers_counted:
                    self._stragglers_counted.add(i)
                    self.faults_fired += 1
                    self.metrics.counter("faults_injected", kind="straggler").inc()
                continue
            # drop / corrupt: count-budgeted or probabilistic
            if f.probability is not None:
                if self.rng.random() >= f.probability:
                    continue
            else:
                if self._budget.get(i, 0) <= 0:
                    continue
                self._budget[i] -= 1
            retries += f.retries
            corrupted |= f.kind == "corrupt"
            self.faults_fired += 1
            self.metrics.counter("faults_injected", kind=f.kind).inc()
        if retries == 0 and factor == 1.0:
            return None
        if retries:
            self.retries_total += retries
            self.metrics.counter("retries", phase=phase).inc(retries)
        if corrupted:
            self._pending_corruption = True
        return CollectiveOutcome(
            retries=retries,
            straggle_factor=factor,
            corrupted=corrupted,
        )

    def compute_factor(self, phase: str, per_node_items=None) -> float:
        """Straggler inflation of a compute charge's critical path."""
        factor = 1.0
        for i, f in enumerate(self.plan):
            if f.kind != "straggler" or not self._matches(f, phase):
                continue
            if f.rank is not None and per_node_items is not None:
                items = np.asarray(per_node_items)
                # A slow rank only stretches kernels it has work in.
                if f.rank < items.size and items[f.rank] == 0:
                    continue
            factor *= f.factor
            if i not in self._stragglers_counted:
                self._stragglers_counted.add(i)
                self.faults_fired += 1
                self.metrics.counter("faults_injected", kind="straggler").inc()
        return factor

    # ------------------------------------------------------------------
    # comm hook: functional corruption round-trip
    # ------------------------------------------------------------------

    def verify_delivery(self, phase: str, payload: np.ndarray) -> np.ndarray:
        """Corrupt-detect-retransmit round-trip on a real payload.

        Called by :class:`~repro.runtime.comm.SimCommunicator` after the
        (already retry-charged) collective: when the charge carried a
        corruption fault, a copy of the payload is corrupted at an
        rng-chosen byte, the sha256 fingerprints are compared — the
        mismatch *is* the detection — and the pristine data is returned,
        modelling checksum-verified retransmission.
        """
        if not self._pending_corruption:
            return payload
        self._pending_corruption = False
        buf = np.ascontiguousarray(payload)
        raw = buf.tobytes()
        if raw:
            corrupted = bytearray(raw)
            pos = int(self.rng.integers(0, len(corrupted)))
            corrupted[pos] ^= 0xFF
            if (
                hashlib.sha256(bytes(corrupted)).hexdigest()
                == hashlib.sha256(raw).hexdigest()
            ):  # pragma: no cover - xor always changes the digest
                raise AssertionError("corruption not detectable")
        self.corruptions_detected += 1
        self.metrics.counter("corruptions_detected", phase=phase).inc()
        return payload

    # ------------------------------------------------------------------

    def summary(self) -> dict:
        """Scalar digest for reports and the chaos CLI."""
        return {
            "faults_planned": len(self.plan),
            "faults_fired": self.faults_fired,
            "retries": self.retries_total,
            "corruptions_detected": self.corruptions_detected,
            "dead_ranks": sorted(self.dead_ranks),
        }


class NullFaultInjector:
    """Zero-overhead injector: never fires, never allocates.

    The default on every :class:`~repro.runtime.ledger.TrafficLedger`,
    so an unfaulted run takes identical code paths and produces
    bit-identical results (pinned against the smoke baseline).
    """

    enabled = False
    iteration = -1
    dead_ranks: frozenset = frozenset()

    def begin_iteration(self, iteration: int) -> None:
        pass

    def end_run(self) -> None:
        pass

    def collective(self, phase, kind, participants, group=None):
        return None

    def compute_factor(self, phase, per_node_items=None) -> float:
        return 1.0

    def verify_delivery(self, phase, payload):
        return payload

    def summary(self) -> dict:
        return {}


#: Shared inert injector used as the default everywhere.
NULL_FAULTS = NullFaultInjector()

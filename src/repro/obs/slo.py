"""Rolling-window SLO burn-rate monitoring over latency histograms.

An :class:`SLOSpec` states an objective over one stage of the serving
latency surface: "``objective`` of requests complete within
``threshold_seconds``" (e.g. 99% of total latencies under 50 ms),
evaluated over a rolling ``window_seconds``.

The :class:`SLOMonitor` reads the cumulative
``serve_latency_seconds{stage=...}`` histograms a
:class:`~repro.serve.service.TraversalService` feeds, snapshots
``(t, observed, good)`` per spec, and evaluates the classic burn rate::

    error_rate = bad_in_window / observed_in_window
    burn_rate  = error_rate / (1 - objective)

A burn rate of 1.0 spends the error budget exactly as fast as the
objective allows; sustained burn above :data:`BURN_WARN` (or
:data:`BURN_PAGE`) yields ``warn``/``page`` status and a typed
:class:`SLOAlert` record.  Because the source is a bucketed histogram,
the threshold is quantized to the largest bucket bound ``<=
threshold_seconds`` — "good" is counted conservatively (never
overstated), and the quantized value is reported on the spec status.

The monitor holds no locks and writes nothing into the registry; like
the sampler it is a pure reader, safe to run on the serving loop.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import asdict, dataclass

__all__ = [
    "SLOSpec",
    "SLOAlert",
    "SLOMonitor",
    "parse_slo_spec",
    "DEFAULT_SLOS",
    "BURN_WARN",
    "BURN_PAGE",
]

#: Burn rates at which an SLO's status degrades to ``warn`` / ``page``.
BURN_WARN = 1.0
BURN_PAGE = 10.0


@dataclass(frozen=True)
class SLOSpec:
    """One latency objective over one ``serve_latency_seconds`` stage."""

    #: Stage label the histogram is selected by (queue|batch|traversal|total).
    stage: str
    #: Latency threshold a "good" request stays under (seconds).
    threshold_seconds: float
    #: Fraction of requests that must be good (e.g. 0.99).
    objective: float
    #: Rolling evaluation window (seconds).
    window_seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.threshold_seconds <= 0:
            raise ValueError("threshold_seconds must be > 0")
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be in (0, 1)")
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be > 0")

    @property
    def name(self) -> str:
        return (
            f"{self.stage}<{self.threshold_seconds:g}s"
            f"@{100 * self.objective:g}%"
        )


@dataclass
class SLOAlert:
    """A burn-rate threshold crossing, recorded once per transition."""

    slo: str
    severity: str  # "warn" | "page"
    burn_rate: float
    error_rate: float
    window_seconds: float
    at: float
    message: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def parse_slo_spec(text: str) -> SLOSpec:
    """Parse ``stage:threshold_seconds:objective[:window_seconds]``.

    Example: ``total:0.05:0.99:30`` — 99% of total latencies under 50 ms
    over a 30 s window.  This is the CLI's ``--slo`` format.
    """
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(
            f"SLO spec {text!r} must be stage:threshold:objective[:window]"
        )
    stage = parts[0].strip()
    if not stage:
        raise ValueError(f"SLO spec {text!r} has an empty stage")
    threshold = float(parts[1])
    objective = float(parts[2])
    window = float(parts[3]) if len(parts) == 4 else 60.0
    return SLOSpec(
        stage=stage,
        threshold_seconds=threshold,
        objective=objective,
        window_seconds=window,
    )


#: A serviceable default: 99% of requests resolve within 250 ms.
DEFAULT_SLOS = (
    SLOSpec(stage="total", threshold_seconds=0.25, objective=0.99),
)

#: Retained alert records (oldest evicted).
_MAX_ALERTS = 256


class _SpecState:
    """Snapshot ring and last-known severity of one spec."""

    __slots__ = ("spec", "ring", "severity", "quantized")

    def __init__(self, spec: SLOSpec) -> None:
        self.spec = spec
        #: (t, observed, good) cumulative readings, oldest first.
        self.ring: deque[tuple[float, int, int]] = deque()
        self.severity = "ok"
        self.quantized: float | None = None


class SLOMonitor:
    """Evaluates burn rates over a registry's staged latency histograms."""

    def __init__(
        self,
        registry,
        specs=DEFAULT_SLOS,
        *,
        metric: str = "serve_latency_seconds",
        match: dict | None = None,
        clock=time.monotonic,
    ) -> None:
        specs = tuple(specs)
        if not specs:
            raise ValueError("at least one SLOSpec is required")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO specs: {names}")
        self.registry = registry
        self.metric = metric
        #: Extra label constraints every selected histogram must carry
        #: (e.g. ``{"tenant": "t0"}`` narrows a tenant-labeled latency
        #: family to one tenant's series); the ``stage`` label from the
        #: spec is always applied on top.
        self.match = dict(match or {})
        self._clock = clock
        self._states = [_SpecState(s) for s in specs]
        self.alerts: list[SLOAlert] = []

    @property
    def specs(self) -> tuple[SLOSpec, ...]:
        return tuple(st.spec for st in self._states)

    # ------------------------------------------------------------------
    # reading the histograms
    # ------------------------------------------------------------------

    def _read(self, spec: SLOSpec, state: _SpecState) -> tuple[int, int]:
        """Cumulative (observed, good) for one spec's stage histogram."""
        observed = 0
        good = 0
        for labels, hist in self.registry.samples(self.metric):
            if labels.get("stage") != spec.stage:
                continue
            if any(labels.get(k) != v for k, v in self.match.items()):
                continue
            observed += int(hist.count)
            bounds = getattr(hist, "bounds", ())
            # Largest bucket bound <= threshold: counting good at the
            # quantized bound never overstates it.
            idx = -1
            for i, b in enumerate(bounds):
                if b <= spec.threshold_seconds:
                    idx = i
                else:
                    break
            if idx >= 0:
                state.quantized = float(bounds[idx])
                good += int(hist.bucket_counts[: idx + 1].sum())
            else:
                state.quantized = 0.0
        return observed, good

    def observe(self) -> None:
        """Snapshot every spec's cumulative counts (call on a cadence)."""
        now = self._clock()
        for state in self._states:
            observed, good = self._read(state.spec, state)
            ring = state.ring
            ring.append((now, observed, good))
            horizon = now - 2 * state.spec.window_seconds
            while len(ring) > 2 and ring[1][0] <= horizon:
                ring.popleft()

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def _window_delta(self, state: _SpecState, now: float) -> tuple[int, int]:
        """(observed, bad) accumulated within the rolling window."""
        ring = state.ring
        if not ring:
            return 0, 0
        start = now - state.spec.window_seconds
        base = ring[0]
        for snap in ring:
            if snap[0] <= start:
                base = snap
            else:
                break
        latest = ring[-1]
        observed = latest[1] - base[1]
        good = latest[2] - base[2]
        return max(observed, 0), max(observed - good, 0)

    def evaluate(self) -> dict:
        """Evaluate every spec now; returns the status document.

        Takes a fresh snapshot first, so a bare ``evaluate()`` loop is a
        complete monitor.  Severity transitions append to
        :attr:`alerts` (bounded) once per crossing, not per evaluation.
        """
        self.observe()
        now = self._clock()
        slos = []
        worst = "ok"
        rank = {"ok": 0, "warn": 1, "page": 2}
        for state in self._states:
            spec = state.spec
            observed, bad = self._window_delta(state, now)
            error_rate = bad / observed if observed else 0.0
            burn = error_rate / (1.0 - spec.objective)
            severity = "ok"
            if burn >= BURN_PAGE:
                severity = "page"
            elif burn >= BURN_WARN:
                severity = "warn"
            if rank[severity] > rank[state.severity]:
                self._fire(spec, severity, burn, error_rate, now)
            state.severity = severity
            if rank[severity] > rank[worst]:
                worst = severity
            slos.append(
                {
                    "name": spec.name,
                    "stage": spec.stage,
                    "threshold_seconds": spec.threshold_seconds,
                    "quantized_threshold_seconds": state.quantized,
                    "objective": spec.objective,
                    "window_seconds": spec.window_seconds,
                    "observed": observed,
                    "bad": bad,
                    "error_rate": error_rate,
                    "burn_rate": burn,
                    "status": severity,
                }
            )
        return {
            "status": worst,
            "slos": slos,
            "alerts": [a.to_dict() for a in self.alerts],
        }

    def _fire(
        self, spec: SLOSpec, severity: str, burn: float,
        error_rate: float, now: float,
    ) -> None:
        self.alerts.append(
            SLOAlert(
                slo=spec.name,
                severity=severity,
                burn_rate=burn,
                error_rate=error_rate,
                window_seconds=spec.window_seconds,
                at=now,
                message=(
                    f"{spec.name}: burn rate {burn:.2f} "
                    f"(error rate {100 * error_rate:.2f}% over "
                    f"{spec.window_seconds:g}s window)"
                ),
            )
        )
        del self.alerts[:-_MAX_ALERTS]

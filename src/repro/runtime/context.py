"""One run's context: where its spans, metrics and faults go.

Everything that happens to a traversal is priced at one choke point —
the scheduler's level loop and the ledger it builds — and a
:class:`RunContext` is everything that choke point needs besides the
graph: the tracer its spans land in, the metrics registry its families
feed, the fault injector consulted at each level, the checkpointer that
snapshots it, and the request trace id its root span carries.

Engines build one from their public ``tracer=`` / ``metrics=`` keywords
(:attr:`~repro.core.kernels.scheduler.SchedulerHost.context`), the
scheduler derives each run's from it (:meth:`RunContext.derive`), and
:func:`~repro.resilience.recovery.build_resilience` hands back the
run's injector and checkpointer as one — below the public entry points
nothing passes the five separately.  :func:`run_context` is the one
place a ``None`` becomes its null sink.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.resilience.faults import NULL_FAULTS, FaultInjector

__all__ = ["NULL_CONTEXT", "RunContext", "run_context"]


@dataclass(frozen=True)
class RunContext:
    """Sinks, resilience hooks and request identity of one run."""

    tracer: Tracer = NULL_TRACER
    metrics: MetricsRegistry = NULL_METRICS
    faults: FaultInjector = NULL_FAULTS
    #: A :class:`~repro.resilience.checkpoint.LevelCheckpointer` that
    #: snapshots the run at its cadence; ``None`` takes no snapshots.
    checkpointer: object = None
    #: The request id(s) the run serves, ``","``-joined for a batch; a
    #: label on the root span, never read by the loop.
    trace_id: str | None = None

    def derive(self, faults=None, checkpointer=None, trace_id=None) -> RunContext:
        """This context's sinks carrying one run's hooks and identity."""
        return run_context(self.tracer, self.metrics, faults, checkpointer, trace_id)


#: The context of an untraced, unmetered, fault-free run.
NULL_CONTEXT = RunContext()


def run_context(tracer=None, metrics=None, faults=None, checkpointer=None, trace_id=None):
    """A :class:`RunContext` with each ``None`` sink replaced by its
    null one (the no-op tracer, registry and injector)."""
    return RunContext(
        NULL_TRACER if tracer is None else tracer,
        NULL_METRICS if metrics is None else metrics,
        NULL_FAULTS if faults is None else faults,
        checkpointer, trace_id,
    )

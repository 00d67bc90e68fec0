"""One run context (:mod:`repro.runtime.context`) below the public entry
points.

The tracer, the metrics registry, the fault injector, the checkpointer
and the request trace id reach the scheduler's level loop as one
:class:`RunContext`.  The behavioural half — trace ids on the serving
engine's spans, bit-identical fault-free runs — is pinned where those
subsystems are tested; this file holds the shape: the context's own
contract, and source walks that fail the next time a layer re-spells
one of the five as a parameter of its own.
"""

import ast
import inspect
from pathlib import Path

import pytest

from repro.core import DistributedBFS
from repro.core.kernels.scheduler import LevelSyncScheduler
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.resilience.faults import NULL_FAULTS
from repro.runtime.context import NULL_CONTEXT, RunContext, run_context
from repro.serve.core import ServingCore
from repro.serve.service import TraversalService

SRC_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Layers below the public entry points, where a ``None`` sink must come
#: from the one normaliser rather than a local ``x if x is not None``.
NORMALISED = ("core", "serve", "cluster", "graph500", "resilience")

#: Names that carry a run's resilience options into a call site.
RESILIENCE_NAMES = {"faults", "injector", "checkpointer", "checkpoint_every"}

#: Calls that start a traversal.
TRAVERSALS = {
    "run", "run_batch", "run_program",
    "run_with_recovery", "run_program_with_recovery", "run_batch_with_recovery",
}


def sources(*packages):
    roots = [SRC_ROOT / p for p in packages] or [SRC_ROOT]
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            yield path.relative_to(SRC_ROOT), path.read_text()


def names_in(node) -> set[str]:
    """Every bare name and attribute name read under ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def called(nodes) -> set[str]:
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                fn = sub.func
                out.add(fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", ""))
    return out


# ----------------------------------------------------------------------
# the context itself
# ----------------------------------------------------------------------


class TestRunContext:
    def test_null_context_is_the_null_sinks(self):
        assert NULL_CONTEXT == RunContext()
        assert NULL_CONTEXT.tracer is NULL_TRACER
        assert NULL_CONTEXT.metrics is NULL_METRICS
        assert NULL_CONTEXT.faults is NULL_FAULTS
        assert NULL_CONTEXT.checkpointer is None
        assert NULL_CONTEXT.trace_id is None

    def test_the_normaliser_nulls_only_what_is_missing(self):
        assert run_context() == NULL_CONTEXT
        tracer, metrics = Tracer(), MetricsRegistry()
        ctx = run_context(tracer, metrics, trace_id="req-000001")
        assert ctx.tracer is tracer and ctx.metrics is metrics
        assert ctx.faults is NULL_FAULTS and ctx.trace_id == "req-000001"

    def test_derive_keeps_sinks_and_replaces_run_hooks(self):
        tracer = Tracer()
        engine_ctx = run_context(tracer)
        run = engine_ctx.derive(trace_id="req-000007")
        assert run.tracer is tracer and run.metrics is NULL_METRICS
        assert run.trace_id == "req-000007"
        # A run's hooks do not leak into the next run of the engine.
        assert engine_ctx.derive().trace_id is None

    def test_frozen(self):
        with pytest.raises(AttributeError):
            NULL_CONTEXT.trace_id = "x"

    def test_engines_fold_their_keywords_into_one_context(self, engine):
        assert engine.context == NULL_CONTEXT
        assert engine.tracer is NULL_TRACER and engine.metrics is NULL_METRICS
        tracer, metrics = Tracer(), MetricsRegistry()
        traced = DistributedBFS(
            engine.part, machine=engine.machine, tracer=tracer, metrics=metrics
        )
        assert traced.context == run_context(tracer, metrics)
        assert traced.tracer is tracer and traced.metrics is metrics


@pytest.fixture(scope="module")
def engine():
    from repro.core.setup import build_setup

    setup = build_setup(8, 2, 2, seed=3)
    return DistributedBFS(setup.partition(), machine=setup.machine)


# ----------------------------------------------------------------------
# the invariants, as source walks
# ----------------------------------------------------------------------


class TestOneContextInvariants:
    def test_no_span_attrs_anywhere(self):
        offenders = [str(rel) for rel, text in sources() if "span_attrs" in text]
        assert offenders == []

    def test_no_local_null_sink_normalisation(self):
        offenders = []
        for rel, text in sources(*NORMALISED):
            for node in ast.walk(ast.parse(text)):
                if not isinstance(node, ast.IfExp):
                    continue
                branches = names_in(node.body) | names_in(node.orelse)
                if branches & {"NULL_TRACER", "NULL_METRICS"}:
                    offenders.append(f"{rel}:{node.lineno}")
        assert offenders == [], (
            "normalise through repro.runtime.context.run_context: "
            + ", ".join(offenders)
        )

    @pytest.mark.parametrize(
        "cls, gone",
        [
            (ServingCore, {"tracer"}),
            (TraversalService, {"tracer"}),
            (LevelSyncScheduler, {"tracer", "metrics"}),
        ],
    )
    def test_no_sink_parameters_below_the_public_entry_points(self, cls, gone):
        params = set(inspect.signature(cls.__init__).parameters)
        assert not params & gone, f"{cls.__name__} takes {sorted(params & gone)}"

    def test_no_plain_versus_recovered_fork_around_a_traversal(self):
        offenders = []
        for rel, text in sources():
            for node in ast.walk(ast.parse(text)):
                if not isinstance(node, ast.If):
                    continue
                if not names_in(node.test) & RESILIENCE_NAMES:
                    continue
                if called(node.body + node.orelse) & TRAVERSALS:
                    offenders.append(f"{rel}:{node.lineno}")
        assert offenders == [], (
            "every run takes the one recovery path (build_resilience + "
            "run_*_with_recovery): " + ", ".join(offenders)
        )

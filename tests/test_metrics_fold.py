"""The registry is folded once per run from the ledger and the records.

A charge records its event in the ledger and nothing else; the level
loop records each level in its :class:`IterationRecord`.  When the run
ends, both are folded into the registry with one accessor call per
``(family, labels)``.  A counting registry pins the three halves of that
contract:

- no accessor is called from inside a charge or the level loop;
- a run gets each instrument at most once;
- a registry with ``enabled = False`` is never called at all.

The fault injector and the checkpointer count into the same registry
when they act, mid-run (:data:`HOOK_FAMILIES`); a faulted, checkpointed
run pins that they are the only exceptions.

The fold must leave the registry exactly as per-charge updates would
have: :func:`per_charge_registry` keeps those updates as the reference.
"""

import sys
from collections import Counter

import numpy as np
import pytest

from repro.core import DistributedBFS, generate_weights, partition_graph
from repro.core.programs import build_program
from repro.graph500.rmat import generate_edges
from repro.machine.costmodel import CollectiveKind, CostModel
from repro.machine.network import MachineSpec
from repro.obs.metrics import MetricsRegistry, registry_to_json
from repro.resilience import FaultInjector, LevelCheckpointer
from repro.runtime.ledger import TrafficLedger
from repro.runtime.mesh import ProcessMesh

from test_ledger import _FAULTS, _charge_script

SCALE = 10
N = 1 << SCALE
#: Frames no accessor call may come from.
CHARGE_PATH = {"charge_collective", "charge_compute", "_component", "execute"}
#: Families the fault injector and the checkpointer count as they act.
HOOK_FAMILIES = {"faults_injected", "retries", "checkpoints", "checkpoint_bytes"}


class CountingRegistry(MetricsRegistry):
    """Records each accessor call's family, labels and calling frames."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = []

    def _note(self, name, labels) -> None:
        frames, frame = set(), sys._getframe(2)
        while frame is not None:
            frames.add(frame.f_code.co_name)
            frame = frame.f_back
        self.calls.append((name, tuple(sorted(labels.items())), frames))

    def counter(self, name, **labels):
        self._note(name, labels)
        return super().counter(name, **labels)

    def gauge(self, name, **labels):
        self._note(name, labels)
        return super().gauge(name, **labels)

    def histogram(self, name, **labels):
        self._note(name, labels)
        return super().histogram(name, **labels)

    def vector(self, name, **labels):
        self._note(name, labels)
        return super().vector(name, **labels)


class DisabledRegistry(CountingRegistry):
    enabled = False


@pytest.fixture(scope="module")
def graph():
    src, dst = generate_edges(SCALE, seed=3)
    machine = MachineSpec(num_nodes=4, nodes_per_supernode=2)
    part = partition_graph(
        src, dst, N, ProcessMesh(2, 2, machine=machine),
        e_threshold=64, h_threshold=8,
    )
    return src, dst, part, machine


def runs(graph, registry):
    """A BFS root, a 16-lane batch, a batch of one, a program and a
    faulted, checkpointed BFS root, each yielded once it has run."""
    src, dst, part, machine = graph
    engine = DistributedBFS(part, machine=machine, metrics=registry)
    roots = np.flatnonzero(part.degrees > 0)
    engine.run(int(roots[0]))
    yield "bfs"
    engine.run_batch(roots[:16])
    yield "batch"
    engine.run_batch(roots[:1])
    yield "batch of one"
    program = build_program(
        "sssp", part, root=int(np.argmax(part.degrees)), edge_src=src,
        edge_dst=dst, weights=generate_weights(src.size, seed=8),
    )
    engine.run_program(program)
    yield "program"
    engine.run(
        int(roots[0]),
        faults=FaultInjector(_FAULTS, rng=np.random.default_rng(5), metrics=registry),
        checkpointer=LevelCheckpointer(every=1, mesh=part.mesh, metrics=registry),
    )
    yield "faulted"


def test_each_run_gets_each_instrument_once_and_only_at_its_end(graph):
    registry = CountingRegistry()
    for run in runs(graph, registry):
        calls, registry.calls = registry.calls, []
        hooks = [c for c in calls if c[0] in HOOK_FAMILIES]
        assert bool(hooks) == (run == "faulted"), run
        calls = [c for c in calls if c[0] not in HOOK_FAMILIES]
        assert calls, run
        for name, labels, frames in calls:
            assert frames & {"publish", "_publish"}, (run, name, labels)
            assert not frames & CHARGE_PATH, (run, name, labels)
        repeated = {
            key: n for key, n in Counter(c[:2] for c in calls).items() if n > 1
        }
        assert repeated == {}, run


def test_disabled_registry_is_never_called(graph):
    registry = DisabledRegistry()
    for run in runs(graph, registry):
        assert [c for c in registry.calls if c[0] not in HOOK_FAMILIES] == [], run


def per_charge_registry(ledger) -> MetricsRegistry:
    """The registry per-charge updates build, one event at a time."""
    m = MetricsRegistry()
    for e in ledger.comm_events:
        kind = e.kind.value
        m.counter("comm_seconds", phase=e.phase, kind=kind).inc(e.seconds)
        m.counter("comm_bytes", phase=e.phase, kind=kind).inc(e.total_bytes)
        m.counter("comm_events", phase=e.phase, kind=kind).inc()
        m.histogram("collective_bytes", kind=kind).observe(e.total_bytes)
    for c in ledger.compute_events:
        m.counter("compute_seconds", phase=c.phase, kernel=c.kernel).inc(c.seconds)
        m.counter("compute_items", phase=c.phase, kernel=c.kernel).inc(c.total_items)
        m.counter("compute_events", phase=c.phase, kernel=c.kernel).inc()
        m.counter("imbalance_seconds", phase=c.phase).inc(c.imbalance_seconds)
        if c.items:
            m.vector("rank_items", phase=c.phase).add(np.array(c.items))
            m.histogram("rank_load", phase=c.phase).observe_many(np.array(c.items))
    return m


@pytest.mark.parametrize("faulted", [False, True])
def test_fold_equals_per_charge_updates(faulted):
    """Fractional bytes, ragged work vectors and two publishes: the fold
    still reads exactly what per-charge updates would have."""
    faults = FaultInjector(_FAULTS, rng=np.random.default_rng(5)) if faulted else None
    ledger = TrafficLedger(
        CostModel(MachineSpec(num_nodes=64, nodes_per_supernode=16)),
        metrics=MetricsRegistry(), faults=faults,
    )
    _charge_script(ledger)
    ledger.publish()
    ledger.charge_collective("L2L", CollectiveKind.ALLGATHER, 3, 0.1, 0.2)
    _charge_script(ledger)
    ledger.publish()
    ledger.publish()
    assert registry_to_json(ledger.metrics) == registry_to_json(
        per_charge_registry(ledger)
    )

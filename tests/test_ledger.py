"""Tests for the traffic ledger."""

import numpy as np
import pytest

from repro.machine.costmodel import CollectiveKind, CostModel
from repro.machine.network import MachineSpec
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.resilience.faults import FaultInjector
from repro.runtime.ledger import TrafficLedger


@pytest.fixture
def ledger():
    return TrafficLedger(CostModel(MachineSpec(num_nodes=64)))


class TestChargeCollective:
    def test_returns_positive_seconds(self, ledger):
        t = ledger.charge_collective("EH2EH", CollectiveKind.ALLGATHER, 8, 1e6, 0)
        assert t > 0
        assert ledger.comm_seconds == pytest.approx(t)

    def test_events_recorded(self, ledger):
        ledger.charge_collective("L2L", CollectiveKind.ALLTOALLV, 64, 1e3, 1e3)
        ledger.charge_collective("L2L", CollectiveKind.ALLTOALLV, 64, 1e3, 1e3)
        assert len(ledger.comm_events) == 2
        assert ledger.comm_events[0].phase == "L2L"

    def test_total_bytes_default(self, ledger):
        ledger.charge_collective("x", CollectiveKind.P2P, 2, 100.0, 50.0)
        assert ledger.total_bytes == pytest.approx(150.0)

    def test_total_bytes_override(self, ledger):
        ledger.charge_collective("x", CollectiveKind.P2P, 2, 100.0, 0.0, total_bytes=999.0)
        assert ledger.total_bytes == pytest.approx(999.0)


class TestChargeCompute:
    def test_records_max_and_total(self, ledger):
        ledger.charge_compute("EH2EH", "pull", [10, 30, 20], 0.5)
        ev = ledger.compute_events[0]
        assert ev.max_items == 30
        assert ev.total_items == 60
        assert ev.seconds == 0.5

    def test_imbalance_zero_when_balanced(self, ledger):
        ledger.charge_compute("x", "k", [5, 5, 5], 1.0)
        assert ledger.imbalance_seconds == pytest.approx(0.0)

    def test_imbalance_positive_when_skewed(self, ledger):
        ledger.charge_compute("x", "k", [0, 0, 30], 1.0)
        assert ledger.compute_events[0].imbalance_seconds == pytest.approx(2 / 3)

    def test_empty_items(self, ledger):
        ledger.charge_compute("x", "k", [], 0.0)
        assert ledger.compute_events[0].max_items == 0


class TestQueries:
    def test_seconds_by_phase_combines_comm_and_compute(self, ledger):
        ledger.charge_collective("A", CollectiveKind.BARRIER, 4)
        ledger.charge_compute("A", "k", [1], 2.0)
        ledger.charge_compute("B", "k", [1], 3.0)
        by_phase = ledger.seconds_by_phase()
        assert by_phase["A"] > 2.0
        assert by_phase["B"] == pytest.approx(3.0)

    def test_comm_seconds_by_kind(self, ledger):
        ledger.charge_collective("A", CollectiveKind.ALLGATHER, 8, 1e6, 0)
        ledger.charge_collective("B", CollectiveKind.ALLGATHER, 8, 1e6, 0)
        ledger.charge_collective("A", CollectiveKind.ALLTOALLV, 8, 1e6, 0)
        by_kind = ledger.comm_seconds_by_kind()
        assert set(by_kind) == {CollectiveKind.ALLGATHER, CollectiveKind.ALLTOALLV}

    def test_total_seconds(self, ledger):
        ledger.charge_collective("A", CollectiveKind.BARRIER, 4)
        ledger.charge_compute("A", "k", [1], 2.0)
        assert ledger.total_seconds == pytest.approx(
            ledger.comm_seconds + ledger.compute_seconds
        )

    def test_merge(self, ledger):
        other = TrafficLedger(ledger.cost_model)
        other.charge_compute("A", "k", [1], 1.0)
        ledger.merge(other)
        assert len(ledger.compute_events) == 1

    def test_bytes_by_kind(self, ledger):
        ledger.charge_collective("A", CollectiveKind.ALLTOALLV, 4, 10.0, 5.0)
        assert ledger.bytes_by_kind()[CollectiveKind.ALLTOALLV] == pytest.approx(15.0)


class _RaisingSink:
    """A disabled tracer/registry that fails the test if it is ever called."""

    enabled = False

    def _called(self, *args, **kwargs):
        raise AssertionError("a disabled sink was called")

    charge = counter = gauge = histogram = vector = _called


_FAULTS = "drop:phase=L2L,p=0.5,retries=2;straggler:rank=2,phase=EH2EH,factor=3"
_COMPUTE_VECTORS = [
    np.zeros(0, dtype=np.int64),
    np.full(16, 7, dtype=np.int64),
    np.array([0, 0, 30, 1] * 4, dtype=np.int64),
    [3, 0, 5, 1],
    np.array([9, 4, 0, 2], dtype=np.int32),
]


def _charge_script(ledger):
    """Every charge method, every collective kind and every vector shape."""
    split = (0.25, 0.75)
    for phase in ("EH2EH", "L2L"):
        for i, kind in enumerate(CollectiveKind):
            ledger.charge_collective(phase, kind, 2 + i, 100.0 * i, 30.0)
            ledger.charge_collective(
                phase, kind, np.int64(16), 8.0, 0.0, total_bytes=128.0
            )
            ledger.charge_scoped(phase, kind, 4, 64.0, split)
        ledger.charge_allreduce(phase, 8, 256.0, split)
        ledger.charge_wait(phase, 1e-5)
        for j, items in enumerate(_COMPUTE_VECTORS):
            ledger.charge_compute(phase, f"k{j}", items, 1e-6 * (j + 1))


def _faults(faulted):
    return FaultInjector(_FAULTS, rng=np.random.default_rng(5)) if faulted else None


class TestSinksOff:
    """With both sinks disabled a charge records its event and nothing else."""

    def _cost(self):
        return CostModel(MachineSpec(num_nodes=64, nodes_per_supernode=16))

    @pytest.mark.parametrize("faulted", [False, True])
    def test_disabled_sinks_are_never_called(self, faulted):
        led = TrafficLedger(
            self._cost(),
            tracer=_RaisingSink(),
            metrics=_RaisingSink(),
            faults=_faults(faulted),
        )
        _charge_script(led)
        assert led.comm_events and led.compute_events

    @pytest.mark.parametrize("faulted", [False, True])
    def test_events_equal_with_and_without_sinks(self, faulted):
        bare = TrafficLedger(self._cost(), faults=_faults(faulted))
        tracer, registry = Tracer(), MetricsRegistry()
        seen = TrafficLedger(
            self._cost(), tracer=tracer, metrics=registry, faults=_faults(faulted)
        )
        _charge_script(bare)
        _charge_script(seen)
        seen.publish()
        assert bare.comm_events == seen.comm_events
        assert bare.compute_events == seen.compute_events
        assert registry.counter_total("comm_bytes") == seen.total_bytes
        assert tracer.counter_total("bytes") == seen.total_bytes
        assert len(tracer.spans) == len(seen.comm_events) + len(seen.compute_events)
        assert any(sp.attrs.get("wasted") for sp in tracer.spans) == faulted

    def test_exact_ints_from_every_vector_shape(self):
        led = TrafficLedger(self._cost())
        for items in _COMPUTE_VECTORS:
            led.charge_compute("x", "k", items, 1.0)
        for items, ev in zip(_COMPUTE_VECTORS, led.compute_events):
            arr = np.asarray(items, dtype=np.int64)
            assert type(ev.max_items) is int and type(ev.total_items) is int
            assert ev.max_items == (int(arr.max()) if arr.size else 0)
            assert ev.total_items == int(arr.sum())

    @pytest.mark.parametrize("observed", [False, True])
    def test_negative_inputs_still_raise(self, observed):
        sinks = {"tracer": Tracer(), "metrics": MetricsRegistry()} if observed else {}
        led = TrafficLedger(self._cost(), **sinks)
        A = CollectiveKind.ALLGATHER
        with pytest.raises(ValueError):
            led.charge_collective("x", A, 4, -1.0, 0.0)
        with pytest.raises(ValueError):
            led.charge_collective("x", A, 4, 0.0, -1.0)
        with pytest.raises(ValueError):
            led.charge_collective("x", A, 4, 1.0, 1.0, total_bytes=-1.0)
        with pytest.raises(ValueError):
            led.charge_compute("x", "k", [1, -1, 2], 1.0)
        with pytest.raises(ValueError):
            led.charge_compute("x", "k", [1, 2], -1.0)
        with pytest.raises(ValueError):
            led.charge_wait("x", -1e-6)
        assert not led.comm_events and not led.compute_events

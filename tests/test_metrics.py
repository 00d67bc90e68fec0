"""Tests for BFSRunResult metrics and figure-shaped queries."""

import numpy as np
import pytest

from repro.core import BFSConfig, DistributedBFS, partition_graph
from repro.core.metrics import BFSRunResult
from repro.graph500.rmat import generate_edges
from repro.graph500.spec import Graph500Problem
from repro.machine.costmodel import CostModel
from repro.machine.network import MachineSpec
from repro.runtime.ledger import TrafficLedger
from repro.runtime.mesh import ProcessMesh


@pytest.fixture(scope="module")
def run_result():
    scale = 11
    src, dst = generate_edges(scale, seed=3)
    machine = MachineSpec(num_nodes=4, nodes_per_supernode=2)
    mesh = ProcessMesh(2, 2, machine=machine)
    part = partition_graph(
        src, dst, 1 << scale, mesh, e_threshold=128, h_threshold=16
    )
    engine = DistributedBFS(
        part, machine=machine, config=BFSConfig(e_threshold=128, h_threshold=16)
    )
    root = int(np.argmax(part.degrees))
    return engine, engine.run(root)


class TestBasics:
    def test_counts(self, run_result):
        engine, res = run_result
        assert res.num_iterations == len(res.iterations)
        assert 0 < res.num_visited <= engine.part.num_vertices
        assert res.num_input_edges == engine.part.total_arcs // 2

    def test_gteps_with_and_without_problem(self, run_result):
        _, res = run_result
        own = res.simulated_gteps()
        prob = res.simulated_gteps(Graph500Problem(scale=11))
        assert own > 0 and prob > 0

    def test_gteps_zero_time(self):
        ledger = TrafficLedger(CostModel(MachineSpec()))
        res = BFSRunResult(
            root=0,
            parent=np.array([0]),
            iterations=[],
            ledger=ledger,
            total_seconds=0.0,
            num_input_edges=10,
        )
        assert res.simulated_gteps() == 0.0


class TestFigureQueries:
    def test_activation_trace_fractions(self, run_result):
        engine, res = run_result
        trace = res.activation_trace(engine.part.class_sizes())
        for cls in ("E", "H", "L"):
            assert len(trace[cls]) == res.num_iterations
            assert all(0.0 <= x <= 1.0 for x in trace[cls])
        # activations sum to (nearly) the whole class for reachable classes
        assert sum(trace["E"]) == pytest.approx(1.0, abs=0.05)

    def test_time_by_phase_sums_to_total(self, run_result):
        _, res = run_result
        assert sum(res.time_by_phase().values()) == pytest.approx(
            res.total_seconds, rel=1e-9
        )

    def test_time_by_category_sums_to_total(self, run_result):
        _, res = run_result
        assert sum(res.time_by_category().values()) == pytest.approx(
            res.total_seconds, rel=1e-9
        )

    def test_time_by_direction_sums_to_total(self, run_result):
        _, res = run_result
        assert sum(res.time_by_direction().values()) == pytest.approx(
            res.total_seconds, rel=1e-9
        )

    def test_category_names_match_fig11(self, run_result):
        _, res = run_result
        cats = set(res.time_by_category())
        assert {"compute", "imbalance/latency"} <= cats
        assert "alltoallv" in cats or "allgather" in cats

    def test_directions_of_unknown_component(self, run_result):
        _, res = run_result
        assert set(res.directions_of("nope")) == {"-"}

    def test_iteration_records_have_directions(self, run_result):
        _, res = run_result
        for rec in res.iterations:
            assert set(rec.directions) == {
                "EH2EH", "E2L", "L2E", "H2L", "L2H", "L2L",
            }

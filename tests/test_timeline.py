"""Tests for the per-iteration timeline diagnostics."""

import numpy as np
import pytest

from repro.analysis.timeline import (
    iteration_component_seconds_from_trace,
    render_timeline,
)
from repro.core import BFSConfig, DistributedBFS, partition_graph
from repro.graph500.rmat import generate_edges
from repro.machine.network import MachineSpec
from repro.obs import Tracer
from repro.runtime.mesh import ProcessMesh


@pytest.fixture(scope="module")
def traced():
    scale = 11
    src, dst = generate_edges(scale, seed=1)
    machine = MachineSpec(num_nodes=4, nodes_per_supernode=2)
    mesh = ProcessMesh(2, 2, machine=machine)
    part = partition_graph(src, dst, 1 << scale, mesh, e_threshold=128, h_threshold=16)
    tracer = Tracer()
    engine = DistributedBFS(
        part,
        machine=machine,
        config=BFSConfig(e_threshold=128, h_threshold=16),
        tracer=tracer,
    )
    return engine.run(int(np.argmax(part.degrees))), tracer


@pytest.fixture(scope="module")
def result(traced):
    return traced[0]


@pytest.fixture(scope="module")
def rows(traced):
    return iteration_component_seconds_from_trace(traced[1])


class TestIterationSeconds:
    def test_rows_match_iterations(self, result, rows):
        assert len(rows) == result.num_iterations

    def test_total_conserved(self, result, rows):
        """Span sums must conserve the run's total time exactly."""
        total = sum(sum(r.values()) for r in rows)
        assert total == pytest.approx(result.total_seconds, rel=1e-9)

    def test_phase_totals_conserved(self, result, rows):
        by_phase_timeline = {}
        for row in rows:
            for k, v in row.items():
                by_phase_timeline[k] = by_phase_timeline.get(k, 0.0) + v
        for phase, seconds in result.time_by_phase().items():
            assert by_phase_timeline.get(phase, 0.0) == pytest.approx(
                seconds, rel=1e-9
            )

    def test_no_negative_cells(self, rows):
        for row in rows:
            assert all(v >= 0 for v in row.values())

    def test_empty_trace(self):
        assert iteration_component_seconds_from_trace(Tracer()) == []


class TestRender:
    def test_render_shape(self, traced):
        result, tracer = traced
        text = render_timeline(result, tracer)
        lines = text.splitlines()
        assert len(lines) == result.num_iterations + 2  # header + rule
        assert "EH2EH" in lines[0]
        assert "iteration total" in lines[0]

    def test_directions_present(self, traced):
        text = render_timeline(*traced)
        assert "push" in text.lower()
        assert "pull" in text.lower()

    def test_cli_flag(self, capsys):
        from repro.cli import main

        rc = main(["bfs", "--scale", "10", "--mesh", "2x2", "--timeline"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "iteration total" in out

    def test_replayed_iterations_supersede_the_crashed_attempt(self, capsys):
        """A crash replays iterations, so the trace holds more iteration
        spans than the result has rows; the matrix keeps one row each."""
        from repro.cli import main

        rc = main([
            "bfs", "--scale", "10", "--mesh", "2x2", "--timeline",
            "--faults", "crash:rank=1,iter=2",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        matrix = out[out.index("iteration total"):].splitlines()[2:]
        assert [int(line.split()[0]) for line in matrix] == [0, 1, 2, 3]

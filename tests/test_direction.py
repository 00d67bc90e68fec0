"""Tests for sub-iteration direction heuristics."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import BFSConfig
from repro.core.direction import (
    ClassState,
    choose_component_direction,
    choose_whole_iteration_direction,
)
from repro.core.engine import DistributedBFS
from repro.core.partition import COMPONENT_CLASSES, partition_graph
from repro.core.vertexset import VertexSet
from repro.graph500.rmat import generate_edges
from repro.machine.network import MachineSpec
from repro.runtime.mesh import ProcessMesh


def make_ratios(**kwargs):
    """ratios dict: class -> (active_ratio, unvisited_ratio)."""
    base = {"E": (0.0, 1.0), "H": (0.0, 1.0), "L": (0.0, 1.0), "EH": (0.0, 1.0)}
    base.update(kwargs)
    return base


class TestComponentDirection:
    def setup_method(self):
        self.cfg = BFSConfig(local_pull_threshold=0.05)

    def test_node_local_push_when_sparse(self):
        ratios = make_ratios(EH=(0.01, 0.9))
        assert choose_component_direction("EH2EH", ratios, self.cfg) == "push"

    def test_node_local_pull_when_dense(self):
        ratios = make_ratios(EH=(0.3, 0.5))
        assert choose_component_direction("EH2EH", ratios, self.cfg) == "pull"

    def test_node_local_ignores_destination(self):
        # dst nearly all visited but src sparse -> still push
        ratios = make_ratios(E=(0.01, 0.0), L=(0.0, 0.01))
        assert choose_component_direction("E2L", ratios, self.cfg) == "push"

    def test_cross_node_pull_when_few_unvisited(self):
        ratios = make_ratios(H=(0.5, 0.0), L=(0.5, 0.1))
        assert choose_component_direction("H2L", ratios, self.cfg) == "pull"

    def test_cross_node_push_when_many_unvisited(self):
        ratios = make_ratios(L=(0.05, 0.9))
        assert choose_component_direction("L2L", ratios, self.cfg) == "push"

    def test_l2h_pulls_after_dense_eh_subiteration(self):
        """Paper §4.2: once EH2EH activated nearly all H, L2H flips to
        pull because unvisited-H is tiny."""
        ratios = make_ratios(L=(0.2, 0.7), H=(0.9, 0.02))
        assert choose_component_direction("L2H", ratios, self.cfg) == "pull"

    def test_classes_used_per_component(self):
        # L2E is node-local with source class L
        cfg = BFSConfig(local_pull_threshold=0.5)
        ratios = make_ratios(L=(0.6, 0.5), E=(0.0, 1.0))
        assert choose_component_direction("L2E", ratios, cfg) == "pull"
        ratios = make_ratios(L=(0.4, 0.5))
        assert choose_component_direction("L2E", ratios, cfg) == "push"


class TestClassState:
    def test_measures_ratios(self):
        masks = {
            "E": np.array([True, False, False, False]),
            "L": np.array([False, True, True, True]),
        }
        state = ClassState(masks)
        active = np.array([True, True, False, False])
        visited = np.array([True, True, False, False])
        ratios = state.measure(active, visited)
        assert ratios["E"] == (1.0, 0.0)
        assert ratios["L"] == (pytest.approx(1 / 3), pytest.approx(2 / 3))

    def test_empty_class(self):
        state = ClassState({"E": np.zeros(4, dtype=bool)})
        ratios = state.measure(np.ones(4, bool), np.ones(4, bool))
        assert ratios["E"] == (0.0, 0.0)


@lru_cache(maxsize=None)
def small_partition(e_threshold: int, h_threshold: int):
    src, dst = generate_edges(9, seed=7)
    machine = MachineSpec(num_nodes=4, nodes_per_supernode=2)
    mesh = ProcessMesh(2, 2, machine=machine)
    part = partition_graph(
        src, dst, 1 << 9, mesh, e_threshold=e_threshold, h_threshold=h_threshold
    )
    return part, machine


class TestEngineDecision:
    """The engine decides from the running counts of the component's
    two classes; on any state it must pick what the stateless rule picks
    over ``ClassState.measure`` of the masks."""

    @settings(max_examples=60, deadline=None)
    @given(
        # (E, H) thresholds: every class populated, E empty, E and H empty.
        thresholds=st.sampled_from([(64, 8), (1 << 20, 8), (1 << 20, 1 << 20)]),
        seed=st.integers(0, 2**32 - 1),
        visited_density=st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]),
        active_density=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        local_pull_threshold=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
        cross_pull_bias=st.sampled_from([0.5, 1.0, 4.0, 1e6]),
    )
    def test_counts_decide_as_the_masks(
        self, thresholds, seed, visited_density, active_density,
        local_pull_threshold, cross_pull_bias,
    ):
        part, machine = small_partition(*thresholds)
        config = BFSConfig(
            local_pull_threshold=local_pull_threshold,
            cross_pull_bias=cross_pull_bias,
        )
        engine = DistributedBFS(part, machine=machine, config=config)
        rng = np.random.default_rng(seed)
        n = part.num_vertices
        visited = rng.random(n) < visited_density
        active = visited & (rng.random(n) < active_density)
        active_set = VertexSet.from_mask(active, part.vclass)
        visited_set = VertexSet.from_mask(visited, part.vclass)
        measured = engine.ctx.class_state.measure(active, visited)
        for name in COMPONENT_CLASSES:
            assert engine.component_direction(
                name, active_set, visited_set
            ) == choose_component_direction(name, measured, config)


class TestWholeIterationDirection:
    def test_push_when_frontier_small(self):
        degrees = np.full(100, 10, dtype=np.int64)
        active = np.zeros(100, bool)
        active[0] = True
        visited = active.copy()
        cfg = BFSConfig()
        assert (
            choose_whole_iteration_direction(active, visited, degrees, cfg) == "push"
        )

    def test_pull_when_frontier_arcs_dominate(self):
        degrees = np.ones(100, dtype=np.int64)
        degrees[:50] = 100
        active = np.zeros(100, bool)
        active[:50] = True
        visited = active.copy()
        cfg = BFSConfig()
        assert (
            choose_whole_iteration_direction(active, visited, degrees, cfg) == "pull"
        )

    def test_push_when_everything_visited(self):
        degrees = np.full(10, 5, dtype=np.int64)
        active = np.ones(10, bool)
        visited = np.ones(10, bool)
        cfg = BFSConfig()
        assert (
            choose_whole_iteration_direction(active, visited, degrees, cfg) == "push"
        )

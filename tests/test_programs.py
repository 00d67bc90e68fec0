"""The vertex-program layer: one scheduler, every algorithm.

Four contracts are pinned here:

1. **Golden bit-for-bit** — the re-mounted programs reproduce the
   pre-refactor bespoke loops' exact outputs
   (``tests/golden/programs_golden.json``).
2. **External exactness** — CC/TC/SSSP agree with scipy's independent
   implementations on the same graph.
3. **Engine-feature inheritance** — programs emit the documented
   spans/metrics and are servable through ``TraversalService``
   (checkpointing and crash recovery are pinned for every traversal
   mode at once in ``test_level_loop.py``).
4. **The documentation runs** — the ``docs/programs.md`` tutorial block
   executes verbatim, and the CLI error contract holds end to end.
"""

import asyncio
import json
import re
from pathlib import Path

import numpy as np
import pytest

from golden.generate_programs import capture
from repro.cli import main
from repro.core import (
    DistributedBFS,
    connected_components,
    partition_graph,
    triangle_count,
)
from repro.core.subgraphs import COMPONENT_ORDER
from repro.core.programs import (
    PROGRAM_REGISTRY,
    ConnectedComponentsProgram,
    ProgramSpec,
    available_programs,
    build_program,
    register_program,
)
from repro.graph500.rmat import generate_edges
from repro.graphs.csr import symmetrize_edges
from repro.machine.network import MachineSpec
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.runtime.mesh import ProcessMesh

REPO = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden" / "programs_golden.json"


def build_system(scale=9, rows=2, cols=2, seed=7):
    src, dst = generate_edges(scale, seed=seed)
    n = 1 << scale
    machine = MachineSpec(num_nodes=rows * cols, nodes_per_supernode=cols)
    mesh = ProcessMesh(rows, cols, machine=machine)
    part = partition_graph(
        src, dst, n, mesh, e_threshold=128, h_threshold=16
    )
    return src, dst, part, machine, mesh


@pytest.fixture(scope="module")
def system():
    return build_system()


def scipy_adjacency(src, dst, n):
    """Binarized symmetric self-loop-free adjacency — the same graph the
    components store (symmetrized multigraph, duplicates collapsed)."""
    import scipy.sparse as sp

    s, d = symmetrize_edges(src, dst)
    keep = s != d
    adj = sp.csr_matrix(
        (np.ones(keep.sum(), dtype=np.int64), (s[keep], d[keep])),
        shape=(n, n),
    )
    adj.sum_duplicates()
    adj.data = np.minimum(adj.data, 1)
    return adj


# ----------------------------------------------------------------------
# 1. golden bit-for-bit
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def current():
    # json round-trip so float repr / list types compare like the file.
    return json.loads(json.dumps(capture()))


class TestGolden:
    def test_metadata_matches(self, golden, current):
        for key in ("scale", "seed", "e_threshold", "h_threshold",
                    "weights_seed", "hub"):
            assert golden[key] == current[key]

    @pytest.mark.parametrize("key", [
        "bellman_ford_unit", "bellman_ford_hub", "bellman_ford_r3",
        "delta_default_hub", "delta_fixed_r3",
        "pagerank", "pagerank_capped",
    ])
    def test_program_matches_golden_bit_for_bit(self, golden, current, key):
        assert current[key] == golden[key], (
            f"{key} diverged from the pre-refactor record — this is a "
            "behaviour change; only regenerate the golden if intentional"
        )


# ----------------------------------------------------------------------
# 2. external exactness (scipy cross-checks)
# ----------------------------------------------------------------------


class TestExactness:
    def test_cc_matches_scipy_partition(self, system):
        from scipy.sparse import csgraph

        src, dst, part, machine, _ = system
        res = connected_components(part, machine=machine)
        labels = res.state["labels"]
        adj = scipy_adjacency(src, dst, part.num_vertices)
        n_comp, sp_labels = csgraph.connected_components(adj, directed=False)
        assert res.info["num_components"] == n_comp
        # Identical partition, and each label is its component's min ID.
        for c in range(n_comp):
            members = np.flatnonzero(sp_labels == c)
            assert np.all(labels[members] == members.min())

    def test_triangles_match_scipy(self, system):
        src, dst, part, machine, _ = system
        res = triangle_count(part, machine=machine)
        adj = scipy_adjacency(src, dst, part.num_vertices)
        expected = int((adj @ adj).multiply(adj).sum()) // 6
        assert res.info["total_triangles"] == expected
        assert int(res.state["triangles"].sum()) == 3 * expected

    def test_unit_sssp_matches_scipy_dijkstra(self, system):
        from scipy.sparse import csgraph

        src, dst, part, machine, _ = system
        hub = int(np.argmax(part.degrees))
        engine = DistributedBFS(part, machine=machine)
        res = engine.run_program(build_program("sssp", part, root=hub))
        adj = scipy_adjacency(src, dst, part.num_vertices)
        ref = csgraph.dijkstra(adj, directed=False, indices=hub,
                               unweighted=True)
        assert np.array_equal(res.state["distance"], ref)

    def test_cc_push_pull_equivalence(self, system):
        _, _, part, machine, _ = system
        engine = DistributedBFS(part, machine=machine)
        by_direction = {}
        for direction in ("push", "pull"):
            prog = ConnectedComponentsProgram()
            prog.forced_direction = direction
            by_direction[direction] = engine.run_program(prog)
        assert np.array_equal(
            by_direction["push"].state["labels"],
            by_direction["pull"].state["labels"],
        )
        # ... but the priced traffic differs: direction is a cost choice,
        # not a semantics choice.
        assert by_direction["push"].converged
        assert by_direction["pull"].converged

    def test_pagerank_is_a_distribution(self, system):
        _, _, part, machine, _ = system
        engine = DistributedBFS(part, machine=machine)
        res = engine.run_program(build_program("pagerank", part))
        ranks = res.state["ranks"]
        assert res.converged
        assert np.all(ranks > 0)
        assert abs(ranks.sum() - 1.0) < 1e-9


# ----------------------------------------------------------------------
# 3a. observability inheritance
# ----------------------------------------------------------------------


class TestObservability:
    def test_program_span_tree_and_metric_families(self, system):
        _, _, part, machine, _ = system
        tracer = Tracer()
        registry = MetricsRegistry()
        engine = DistributedBFS(
            part, machine=machine, tracer=tracer, metrics=registry
        )
        res = engine.run_program(ConnectedComponentsProgram())

        # Root span is `program` (not `bfs`), labeled with the name.
        programs = tracer.find(name="program")
        assert len(programs) == 1
        assert programs[0].attrs["program"] == "cc"
        iterations = tracer.find(category="iteration")
        assert len(iterations) == res.num_iterations
        assert all(sp.parent == programs[0].sid for sp in iterations)
        components = tracer.find(category="component")
        assert components, "no component spans recorded"
        assert {sp.name for sp in components} <= set(COMPONENT_ORDER)
        iteration_sids = {sp.sid for sp in iterations}
        assert all(sp.parent in iteration_sids for sp in components)

        # program_* families, labeled by program name.
        assert registry.counter_total("program_runs", program="cc") == 1
        assert registry.counter_total(
            "program_iterations", program="cc"
        ) == res.num_iterations
        assert registry.counter_total("program_updates", program="cc") > 0
        assert registry.counter_total("program_resumes") == 0
        # The shared families flow too, and bytes reconcile across layers.
        assert registry.counter_total("edges_scanned") > 0
        assert tracer.counter_total("bytes") == res.ledger.total_bytes

    def test_report_from_program_tracks_info_scalars(self, system):
        from repro.obs.report import RUN_REPORT_SCHEMA, report_from_program

        _, _, part, machine, _ = system
        res = connected_components(part, machine=machine)
        report = report_from_program(res)
        assert report.schema == RUN_REPORT_SCHEMA
        assert report.metrics["iterations"] == res.num_iterations
        assert report.metrics["info.num_components"] == (
            res.info["num_components"]
        )
        assert report.metrics["total_bytes"] == res.ledger.total_bytes


# ----------------------------------------------------------------------
# 3c. serving
# ----------------------------------------------------------------------


def run_async(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def serving_engine(system):
    from repro.serve.msbfs import MultiSourceBFS

    _, _, part, machine, _ = system
    return MultiSourceBFS(part, machine=machine)


class TestServicePrograms:
    def test_pagerank_served_and_cached(self, system, serving_engine):
        from repro.serve import TraversalService

        registry = MetricsRegistry()

        async def main_():
            async with TraversalService(
                serving_engine, batch_window=0.0, metrics=registry
            ) as svc:
                first = await svc.submit(program="pagerank")
                second = await svc.submit(program="pagerank")
                return svc, first, second

        svc, first, second = run_async(main_())
        assert first.program == "pagerank" and not first.cached
        assert first.converged and first.info["delta"] < 1e-6
        assert second.cached
        assert np.array_equal(first.state["ranks"], second.state["ranks"])
        assert svc.stats.program_runs == 1
        assert registry.counter_total(
            "serve_programs", program="pagerank", outcome="completed"
        ) == 1
        assert registry.counter_total(
            "serve_programs", program="pagerank", outcome="cached"
        ) == 1

    def test_cc_served_matches_direct_run(self, system, serving_engine):
        from repro.serve import TraversalService

        _, _, part, machine, _ = system
        direct = connected_components(part, machine=machine)

        async def main_():
            async with TraversalService(
                serving_engine, batch_window=0.0
            ) as svc:
                return await svc.submit(program="cc")

        response = run_async(main_())
        assert np.array_equal(
            response.state["labels"], direct.state["labels"]
        )
        assert response.info == direct.info

    def test_program_crash_replay_shares_the_batch_budget_rule(
        self, system, serving_engine
    ):
        """Served programs replay through ``ServingCore.charge_replay``:
        one attempt per crash, typed failure past ``max_replays``."""
        from repro.resilience import FaultInjector
        from repro.serve import TraversalError, TraversalService

        _, _, part, machine, _ = system
        direct = connected_components(part, machine=machine)

        async def main_(spec, max_replays):
            registry = MetricsRegistry()
            async with TraversalService(
                serving_engine, batch_window=0.0, metrics=registry,
                faults=FaultInjector(spec, rng=np.random.default_rng(0)),
                max_replays=max_replays,
            ) as svc:
                try:
                    outcome = await svc.submit(program="cc")
                except TraversalError as exc:
                    outcome = exc
                return svc, registry, outcome

        svc, registry, ok = run_async(main_("crash:rank=1,iter=1", 2))
        assert np.array_equal(ok.state["labels"], direct.state["labels"])
        assert (svc.stats.replays, svc.stats.failed) == (1, 0)
        assert svc.pending == 0

        svc, registry, err = run_async(
            main_("crash:rank=1,iter=1;crash:rank=0,iter=1", 1)
        )
        assert isinstance(err, TraversalError)
        assert err.trace_id == "req-000001" and "'cc'" in str(err)
        assert (svc.stats.replays, svc.stats.failed) == (1, 1)
        assert svc.pending == 0
        assert svc.request_timeline(err.trace_id).status == "failed"
        for outcome, count in (("crashed", 2), ("failed", 1)):
            assert registry.counter_total(
                "serve_programs", program="cc", outcome=outcome
            ) == count

    def test_root_contract_per_program(self, serving_engine):
        from repro.serve import TraversalService

        async def main_():
            async with TraversalService(
                serving_engine, batch_window=0.0
            ) as svc:
                with pytest.raises(ValueError, match="requires a root"):
                    await svc.submit(program="sssp")
                with pytest.raises(ValueError, match="does not take a root"):
                    await svc.submit(3, program="pagerank")
                with pytest.raises(ValueError, match="unknown program"):
                    await svc.submit(3, program="nope")
                with pytest.raises(ValueError, match="root 1000000"):
                    await svc.submit(1_000_000, program="sssp")
                # And a well-formed rooted query works (unit weights).
                return await svc.submit(3, program="sssp")

        response = run_async(main_())
        assert response.root == 3
        assert response.state["distance"][3] == 0.0


# ----------------------------------------------------------------------
# registry contract
# ----------------------------------------------------------------------


class TestRegistry:
    def test_available_programs(self):
        assert available_programs() == (
            "bfs", "cc", "pagerank", "sssp", "sssp-delta", "triangles"
        )

    def test_unknown_name_lists_alternatives(self, system):
        _, _, part, _, _ = system
        with pytest.raises(ValueError, match="unknown program 'nope'"):
            build_program("nope", part)

    def test_bfs_is_native_only(self, system):
        _, _, part, _, _ = system
        assert PROGRAM_REGISTRY["bfs"].native_bfs
        with pytest.raises(ValueError, match="natively"):
            build_program("bfs", part, root=0)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_program(
                ProgramSpec(name="cc", factory=lambda part: None,
                            description="dup")
            )


# ----------------------------------------------------------------------
# 4a. the tutorial in docs/programs.md runs verbatim
# ----------------------------------------------------------------------


class TestTutorial:
    def test_docs_tutorial_block_executes(self, capsys):
        text = (REPO / "docs" / "programs.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", text, re.S)
        assert len(blocks) == 1, (
            "docs/programs.md must keep exactly one ```python block — "
            "the executable tutorial"
        )
        namespace = {"__name__": "programs_md_tutorial"}
        exec(compile(blocks[0], "docs/programs.md", "exec"), namespace)
        result = namespace["result"]
        assert result.converged
        assert namespace["MinLabel"].name == "minlabel"
        assert "components" in capsys.readouterr().out


# ----------------------------------------------------------------------
# 4b. CLI contract
# ----------------------------------------------------------------------


class TestAlgoCli:
    """In-process happy paths; real-interpreter error surfaces."""

    def _run(self, *argv):
        import subprocess
        import sys as _sys

        return subprocess.run(
            [_sys.executable, "-m", "repro", "algo", *argv],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )

    def test_list_renders_registry(self, capsys):
        assert main(["algo", "--list"]) == 0
        out = capsys.readouterr().out
        for name in available_programs():
            assert name in out

    def test_run_program_with_report(self, capsys, tmp_path):
        from repro.obs.report import RunReport

        out = tmp_path / "pr.json"
        rc = main(["algo", "pagerank", "--scale", "8", "--mesh", "2x2",
                   "--report", str(out)])
        assert rc == 0
        assert "pagerank" in capsys.readouterr().out
        report = RunReport.load(out)
        assert report.metrics["iterations"] > 0

    def test_unknown_program_exits_two_with_usage(self):
        proc = self._run("badname", "--scale", "8")
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        assert "usage" in proc.stderr
        assert "badname" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_program_exits_two_with_usage(self):
        proc = self._run("--scale", "8")
        assert proc.returncode == 2
        assert "usage" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_malformed_damping_exits_two(self):
        proc = self._run("pagerank", "--scale", "8", "--damping", "1.5")
        assert proc.returncode == 2
        assert "usage:" in proc.stderr
        assert "damping" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_malformed_delta_exits_two(self):
        proc = self._run("sssp-delta", "--scale", "8", "--delta", "nope")
        assert proc.returncode == 2
        assert "usage:" in proc.stderr
        assert "expected a number" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_negative_delta_exits_two(self):
        proc = self._run("sssp-delta", "--scale", "8", "--delta", "-0.5")
        assert proc.returncode == 2
        assert "usage:" in proc.stderr
        assert "must be positive" in proc.stderr

"""The one graph-to-engine set-up path (:mod:`repro.core.setup`)."""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.core.partition import partition_graph
from repro.core.setup import build_setup, resolve_thresholds, tuned_thresholds
from repro.dynamic.gate import parts_bitwise_equal
from repro.graph500.rmat import generate_edges
from repro.machine.network import MachineSpec
from repro.runtime.mesh import ProcessMesh

SRC_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"


class TestBuilderMatchesTheHandSpelledPath:
    @pytest.mark.parametrize("rows,cols", [(2, 2), (1, 1)])
    @pytest.mark.parametrize("weak_scaled", [True, False])
    def test_partition_and_machine(self, rows, cols, weak_scaled):
        scale, seed = 9, 3
        src, dst = generate_edges(scale, seed=seed)
        p = rows * cols
        machine = MachineSpec(num_nodes=p, nodes_per_supernode=cols)
        if weak_scaled:
            machine = machine.scaled_for(src.size / p)
        mesh = ProcessMesh(rows, cols, machine=machine)
        e_thr, h_thr = tuned_thresholds(scale)
        by_hand = partition_graph(
            src, dst, 1 << scale, mesh, e_threshold=e_thr, h_threshold=h_thr
        )

        setup = build_setup(scale, rows, cols, seed=seed, weak_scaled=weak_scaled)
        assert parts_bitwise_equal(setup.partition(), by_hand) == []
        assert dataclasses.asdict(setup.machine) == dataclasses.asdict(machine)
        assert dataclasses.asdict(setup.mesh.machine) == dataclasses.asdict(machine)
        assert (setup.mesh.rows, setup.mesh.cols) == (rows, cols)
        assert (setup.num_vertices, setup.num_edges) == (1 << scale, src.size)
        assert (setup.machine.work_scale > 1) == weak_scaled

    def test_config_and_incremental_carry_the_setup(self):
        setup = build_setup(8, 2, 2, weak_scaled=False, h_threshold=8)
        config = setup.config(segmenting=False)
        assert (config.e_threshold, config.h_threshold) == (1024, 8)
        assert not config.segmenting
        inc = setup.incremental(compact_every=2)
        assert inc.mesh is setup.mesh
        assert inc.machine == setup.machine
        assert (inc.e_threshold, inc.h_threshold, inc.compact_every) == (1024, 8, 2)

    def test_on_machine_rebuilds_the_mesh(self):
        setup = build_setup(8, 2, 2)
        slow = dataclasses.replace(setup.machine, fat_tree_oversubscription=8.0)
        moved = setup.on_machine(slow)
        assert moved.machine == slow and moved.mesh.machine == slow
        assert moved.src is setup.src and moved.root == setup.root


class TestThresholdResolution:
    def test_none_takes_the_tuned_pair(self):
        assert resolve_thresholds(10) == tuned_thresholds(10) == (1024, 128)

    def test_both_given_are_kept(self):
        assert resolve_thresholds(10, 64, 8) == (64, 8)

    def test_each_alone_keeps_the_other_tuned(self):
        assert resolve_thresholds(10, 256, None) == (256, 128)
        assert resolve_thresholds(10, None, 8) == (1024, 8)

    @pytest.mark.parametrize("e,h", [(4, 64), (64, None), (None, 2048), (8, 0)])
    def test_bad_pair_names_both_values(self, e, h):
        with pytest.raises(ValueError) as exc:
            resolve_thresholds(10, e, h)
        tuned_e, tuned_h = tuned_thresholds(10)
        assert f"e_threshold={tuned_e if e is None else e}" in str(exc.value)
        assert f"h_threshold={tuned_h if h is None else h}" in str(exc.value)

    def test_builder_and_with_thresholds_use_the_resolver(self):
        setup = build_setup(8, 1, 1, h_threshold=8)
        assert (setup.e_threshold, setup.h_threshold) == (1024, 8)
        part = setup.partition()
        assert (part.e_threshold, part.h_threshold) == (1024, 8)
        narrowed = setup.with_thresholds(e_threshold=16)
        assert (narrowed.e_threshold, narrowed.h_threshold) == (16, 8)
        assert setup.with_thresholds() == setup
        with pytest.raises(ValueError):
            setup.with_thresholds(e_threshold=4)
        with pytest.raises(ValueError):
            build_setup(8, 1, 1, e_threshold=64)

    def test_tenant_spec_follows_the_same_rule(self):
        from repro.cluster.tenants import TenantSpec, build_tenant

        tenant = build_tenant(TenantSpec("t", scale=8, h_threshold=8))
        part = tenant.batched.part
        assert (part.e_threshold, part.h_threshold) == (1024, 8)
        with pytest.raises(ValueError):
            build_tenant(TenantSpec("t", scale=8, e_threshold=64))


class TestTenantBuildsItsGraphOnce:
    def test_static_and_dynamic_halves_share_one_edge_array(self, monkeypatch):
        import repro.core.setup as setup_mod
        from repro.cluster.tenants import TenantSpec, build_tenant
        from repro.dynamic.repair import IncrementalGraph

        generated, partitioned, ingested = [], [], []
        real_generate = setup_mod.generate_edges
        real_partition = setup_mod.partition_graph
        real_init = IncrementalGraph.__init__

        def generate(*args, **kwargs):
            out = real_generate(*args, **kwargs)
            generated.append(out)
            return out

        def partition(src, dst, *args, **kwargs):
            partitioned.append((src, dst))
            return real_partition(src, dst, *args, **kwargs)

        def init(self, src, dst, *args, **kwargs):
            ingested.append((src, dst))
            real_init(self, src, dst, *args, **kwargs)

        monkeypatch.setattr(setup_mod, "generate_edges", generate)
        monkeypatch.setattr(setup_mod, "partition_graph", partition)
        monkeypatch.setattr(IncrementalGraph, "__init__", init)

        spec = TenantSpec("t", scale=8, seed=3)
        static = build_tenant(spec)
        assert len(generated) == 1 and static.dynamic is None
        dynamic = build_tenant(spec, dynamic=True)
        assert len(generated) == 2  # one generate_edges per tenant
        assert len(partitioned) == 2 and len(ingested) == 1
        for served, made in zip(partitioned, generated):
            assert served[0] is made[0] and served[1] is made[1]
        assert ingested[0][0] is generated[1][0]
        assert ingested[0][1] is generated[1][1]
        # ...and repair is priced on the machine the tenant serves on.
        assert dynamic.dynamic.machine == dynamic.batched.machine
        assert dynamic.dynamic.mesh is dynamic.batched.part.mesh


def _call_sites(name: str) -> set[str]:
    sites = set()
    for path in SRC_ROOT.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = getattr(func, "id", None) or getattr(func, "attr", None)
            if called == name:
                sites.add(path.relative_to(SRC_ROOT).as_posix())
    return sites


class TestOnePath:
    """The next hand-spelled copy of the set-up path fails here."""

    ALLOWED = {
        "partition_graph":
            {"core/setup.py", "dynamic/repair.py"},
        "tuned_thresholds": {"core/setup.py"},
        "generate_edges": {"core/setup.py", "dynamic/gate.py"},
    }

    @pytest.mark.parametrize("name", sorted(ALLOWED))
    def test_call_sites(self, name):
        assert _call_sites(name) == self.ALLOWED[name]

"""The multi-tenant serve CLI surface, driven as real subprocesses.

Malformed ``--tenants`` / ``--replicas`` / ``--quota`` values must exit
2 with argparse usage on stderr (the contract CI scripts and operators
rely on), and the pinned ``--smoke`` gate must pass end to end —
including the replica-kill drill — in one short run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).parent.parent


def run_cli(*args, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        cwd=REPO,
    )


class TestMalformedFlagsExitTwo:
    @pytest.mark.parametrize(
        "flags",
        [
            ("--tenants", "0"),
            ("--tenants", "-3"),
            ("--tenants", "a:platinum"),
            ("--tenants", "a:gold,a:gold"),
            ("--tenants", ","),
            ("--tenants", "2", "--replicas", "0"),
            ("--tenants", "2", "--replicas", "two"),
            ("--tenants", "2", "--quota", "0"),
            ("--tenants", "2", "--quota", "-5"),
            ("--tenants", "2", "--trace", "trace.json"),
            ("--tenants", "2", "--clients", "3"),
            ("--tenants", "2", "--queue-depth", "5"),
            ("--tenants", "2", "--straggler-ms", "5"),
            ("--tenants", "2", "--expect-slo", "fired"),
        ],
    )
    def test_malformed_value_exits_2_with_usage(self, flags):
        proc = run_cli("serve", *flags)
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()
        # argparse names the offending option in its error line.
        assert flags[-2].lstrip("-").split()[0] in proc.stderr.replace(
            "--", ""
        ) or flags[-2] in proc.stderr


class TestClusterSmoke:
    def test_smoke_gate_passes(self):
        proc = run_cli(
            "serve", "--smoke", "--tenants", "3", "--replicas", "2",
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "cluster gate: PASS" in proc.stdout
        # The drill section confirms the replica kill actually fired.
        assert "replicas live: 1/2" in proc.stdout

    def test_named_tenants_json_out(self, tmp_path):
        out = tmp_path / "cluster.json"
        proc = run_cli(
            "serve", "--tenants", "web:gold,batch:bronze",
            "--scale", "8", "--queries", "40", "--duration", "0.2",
            "--seed", "5", "--validate", "--out", str(out),
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        doc = json.loads(out.read_text())
        assert set(doc["tenants"]) == {"web", "batch"}
        assert doc["report"]["accounted"] == 40
        assert doc["report"]["wrong_parents"] == 0


class _Captured(Exception):
    """Stops a ``serve`` command at the cluster session it would run."""


class TestFlagsReachTheClusterPlane:
    """A multi-tenant ``serve`` flag either takes effect or exits 2 (the
    rows above); these are the ones that take effect."""

    @pytest.fixture
    def session(self, monkeypatch):
        seen = {}

        def capture(registry, workload, **kwargs):
            seen.update(registry=registry, workload=workload, **kwargs)
            raise _Captured

        monkeypatch.setattr("repro.cluster.run_cluster_session", capture)
        return seen

    def test_tenant_and_fault_flags_pass_through(self, session):
        from repro.cli import main
        from repro.obs.slo import SLOSpec
        from repro.resilience.faults import FaultInjector

        with pytest.raises(_Captured):
            main([
                "serve", "--tenants", "2", "--scale", "7", "--mesh", "2x2",
                "--e-threshold", "64", "--h-threshold", "8", "--quota", "5",
                "--slo", "total:0.5:0.9", "--faults", "crash:rank=1,iter=1",
            ])
        specs = [tenant.spec for tenant in session["registry"]]
        assert [(s.e_threshold, s.h_threshold, s.quota) for s in specs] == [
            (64, 8, 5), (64, 8, 5)
        ]
        assert all(
            s.resolved_slos == (SLOSpec("total", 0.5, 0.9),) for s in specs
        )
        assert isinstance(session["faults"], FaultInjector)
        assert [f.kind for f in session["faults"].plan] == ["crash"]

    def test_smoke_workload_defaults_yield_to_given_flags(self, session):
        from repro.cli import main

        with pytest.raises(_Captured):
            main([
                "serve", "--smoke", "--replicas", "1", "--queries", "30",
                "--duration", "0.2", "--hot-fraction", "0", "--hot-set", "3",
            ])
        workload = session["workload"]
        assert workload.num_queries == 30
        assert workload.duration_seconds == 0.2
        # --smoke still pins the graphs: SCALE-9 tenants on 2x2 meshes.
        assert {
            (t.spec.scale, t.spec.rows, t.spec.cols) for t in session["registry"]
        } == {(9, 2, 2)}

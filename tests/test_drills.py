"""The gate drills the CLI dispatches to, called as library functions.

The CLI tests drive each drill's PASS path through ``main()``; these
call the drills directly to show their FAIL paths, and check that every
artifact flag of the CLI fails like ``--trace`` does when its file
cannot be written: ``error: cannot write ...`` on stderr and exit 1,
never a traceback.
"""

import dataclasses

import numpy as np
import pytest

from helpers import ReproInterpreter


class TestChaosMatrix:
    def test_recovered_parents_that_differ_fail_the_gate(self, monkeypatch):
        from repro.graph500 import driver
        from repro.resilience.chaos import run_chaos_matrix

        real = driver.run_graph500

        def diverging(**kwargs):
            report = real(**kwargs)
            if kwargs.get("faults") is not None:
                first = report.results[0]
                report.results[0] = dataclasses.replace(
                    first, parent=np.roll(first.parent, 1)
                )
            return report

        monkeypatch.setattr(driver, "run_graph500", diverging)
        report = run_chaos_matrix(
            ("crash:rank=1,iter=2",), checkpoint_every=1,
            scale=8, rows=2, cols=2, seed=7, num_roots=2,
        )
        assert not report.passed
        (row,) = report.rows
        assert row[0] == "crash:rank=1,iter=2"
        assert row[6] == "DIFF" and row[7] == "ok"
        assert report.render().endswith("chaos gate: FAIL")


class TestDynamicSmoke:
    def test_no_patched_batch_fails_the_gate(self, monkeypatch):
        from repro.dynamic import gate

        def never_patched(real):
            def patch(*args, **kwargs):
                outcome = real(*args, **kwargs)
                if outcome.mode == "patched":
                    outcome = dataclasses.replace(outcome, mode="recomputed")
                return outcome

            return patch

        for name in ("patch_bfs_result", "patch_sssp_result"):
            monkeypatch.setattr(gate, name, never_patched(getattr(gate, name)))
        report = gate.run_dynamic_smoke()
        assert report.ok  # every stream still bit-identical ...
        assert "patched" not in report.mode_counts()
        assert not report.passed  # ... but the patched path never ran
        assert report.verdict().startswith("dynamic gate: FAIL")


_GRAPH = ("--scale", "8", "--mesh", "2x2")


class TestArtifactWriteFailure:
    @pytest.fixture(scope="class", autouse=True)
    def interpreter(self, request, tmp_path_factory):
        blocker = tmp_path_factory.mktemp("artifacts") / "a-file"
        blocker.write_text("not a directory\n")
        request.cls.blocked = blocker / "out.json"
        with ReproInterpreter() as interp:
            request.cls.interp = interp
            yield

    @pytest.mark.parametrize("argv", [
        ("report", *_GRAPH, "--roots", "1", "--out"),
        ("report", *_GRAPH, "--roots", "1", "--prometheus"),
        ("report", *_GRAPH, "--roots", "1", "--metrics-json"),
        ("algo", "pagerank", *_GRAPH, "--report"),
        ("serve", *_GRAPH, "--queries", "8", "--out"),
        ("bench-serve", *_GRAPH, "--batch-sizes", "1,2", "--json"),
    ], ids=lambda argv: f"{argv[0]}{argv[-1]}")
    def test_unwritable_path_exits_one_without_traceback(self, argv):
        proc = self.interp.run(*argv, str(self.blocked))
        assert proc.returncode == 1
        assert f"error: cannot write {self.blocked}" in proc.stderr
        assert "Traceback" not in proc.stderr

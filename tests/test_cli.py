"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main

from helpers import ReproInterpreter

#: The committed RunReport baselines the CI gates compare against.
RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"


class TestParser:
    def test_mesh_parsing(self):
        args = build_parser().parse_args(["bfs", "--mesh", "4x8"])
        assert args.mesh == (4, 8)

    def test_bad_mesh_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bfs", "--mesh", "4by8"])

    def test_zero_mesh_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bfs", "--mesh", "0x8"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_bfs(self, capsys):
        rc = main(["bfs", "--scale", "10", "--mesh", "2x2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sim GTEPS" in out
        assert "per-iteration directions" in out

    def test_bfs_explicit_root(self, capsys):
        rc = main(["bfs", "--scale", "10", "--mesh", "2x2", "--root", "5"])
        assert rc == 0

    def test_graph500(self, capsys):
        rc = main([
            "graph500", "--scale", "10", "--mesh", "2x2", "--roots", "3",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "harmonic_mean_TEPS" in out
        assert "validation: PASSED" in out

    def test_graph500_no_validate(self, capsys):
        rc = main([
            "graph500", "--scale", "10", "--mesh", "2x2", "--roots", "2",
            "--no-validate",
        ])
        assert rc == 0

    def test_graph500_no_validate_reports_skipped(self, capsys):
        rc = main([
            "graph500", "--scale", "10", "--mesh", "2x2", "--roots", "2",
            "--no-validate",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "validation: SKIPPED" in out
        assert "validation: PASSED" not in out

    def test_sweep(self, capsys):
        rc = main(["sweep", "--points", "9:2x2,10:2x2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "weak scaling" in out
        assert "100%" in out

    def test_partitions(self, capsys):
        rc = main(["partitions", "--scale", "10", "--mesh", "2x2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1.5D (ours)" in out
        assert "2D" in out

    def test_ocs(self, capsys):
        rc = main(["ocs", "--mib", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "6 CGs" in out
        assert "utilization" in out

    def test_bfs_trace_export(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "trace.json"
        rc = main([
            "bfs", "--scale", "10", "--mesh", "2x2", "--trace", str(out_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "trace:" in out
        doc = json.loads(out_path.read_text())
        assert doc["traceEvents"]
        assert doc["otherData"]["generator"] == "repro.obs"

    def test_bfs_flame_summary(self, capsys):
        rc = main(["bfs", "--scale", "10", "--mesh", "2x2", "--flame"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "iteration" in out and "share" in out

    def test_graph500_trace_export(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "g5.json"
        rc = main([
            "graph500", "--scale", "10", "--mesh", "2x2", "--roots", "2",
            "--trace", str(out_path),
        ])
        assert rc == 0
        doc = json.loads(out_path.read_text())
        names = {ev["name"] for ev in doc["traceEvents"]}
        assert {"construction", "root", "iteration"} <= names

    def test_threshold_flags(self, capsys):
        rc = main([
            "bfs", "--scale", "10", "--mesh", "2x2",
            "--e-threshold", "64", "--h-threshold", "8",
        ])
        assert rc == 0

    def test_lone_h_threshold_changes_the_classes(self, capsys):
        base = ["bfs", "--scale", "10", "--mesh", "2x2"]
        assert main(base) == 0
        tuned = capsys.readouterr().out.splitlines()[0]
        assert main(base + ["--h-threshold", "8"]) == 0
        lone = capsys.readouterr().out.splitlines()[0]
        assert tuned.startswith("classes:") and lone.startswith("classes:")
        assert lone != tuned

    def test_lone_e_threshold_below_tuned_h_exits_two(self, capsys):
        # SCALE 10 tunes H to 128; an E of 64 alone cannot sit below it.
        rc = main(["bfs", "--scale", "10", "--mesh", "2x2", "--e-threshold", "64"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "--e-threshold" in err and "64" in err and "128" in err
        assert "usage:" in err

    def test_sssp_delta_stepping(self, capsys):
        rc = main(["algo", "sssp-delta", "--scale", "10", "--mesh", "2x2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "num_buckets" in out and "relaxations" in out

    def test_sssp_bellman_ford(self, capsys):
        rc = main(["algo", "sssp", "--scale", "10", "--mesh", "2x2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sssp:" in out and "iterations" in out
        assert "relaxations" in out and "num_buckets" not in out

    def test_sssp_explicit_delta(self, capsys):
        rc = main([
            "algo", "sssp-delta", "--scale", "9", "--mesh", "2x2",
            "--delta", "0.25",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "delta=0.25" in out
        assert "num_buckets" in out and "relaxations" in out

    def test_sssp_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sssp", "--scale", "9", "--mesh", "2x2"])
        assert exc.value.code == 2
        assert "invalid choice: 'sssp'" in capsys.readouterr().err


class TestResilienceFlags:
    def test_malformed_faults_spec_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["bfs", "--faults", "explode:rank=1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown fault kind" in err and "usage" in err

    def test_out_of_range_rank_exits_two(self, capsys):
        rc = main([
            "graph500", "--scale", "10", "--mesh", "2x2", "--roots", "1",
            "--faults", "crash:rank=99,iter=1", "--checkpoint-every", "1",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "rank 99" in err

    def test_graph500_recovers_from_crash(self, capsys):
        rc = main([
            "graph500", "--scale", "10", "--mesh", "2x2", "--seed", "7",
            "--roots", "2", "--faults", "crash:rank=1,iter=2",
            "--checkpoint-every", "1",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "validation: PASSED" in out
        assert "1 crash(es), 1 restart(s)" in out

    def test_bfs_with_faults(self, capsys):
        rc = main([
            "bfs", "--scale", "10", "--mesh", "2x2",
            "--faults", "drop:phase=L2L,count=1,retries=1",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "resilience:" in out

    def test_algo_bfs_recovers_from_crash(self, capsys):
        argv = ["algo", "bfs", "--scale", "10", "--mesh", "2x2"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        rc = main(argv + ["--faults", "crash:rank=1,iter=1",
                          "--checkpoint-every", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "resilience: {'crashes': 1," in out

        def visited(text):
            return text.split("visited ", 1)[1].split(",", 1)[0]

        assert visited(out) == visited(plain)

    def test_chaos_gate_passes(self, capsys):
        rc = main([
            "chaos", "--scale", "10", "--mesh", "2x2", "--seed", "7",
            "--roots", "2", "--matrix", "crash:rank=1,iter=2",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "MATCH" in out and "chaos gate: PASS" in out

    def test_chaos_malformed_matrix_exits_two(self, capsys):
        rc = main(["chaos", "--scale", "10", "--mesh", "2x2",
                   "--matrix", "kaboom"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestMainEntryPoint:
    """``python -m repro`` error surfaces, via the real interpreter (one
    for the class)."""

    @pytest.fixture(scope="class", autouse=True)
    def interpreter(self, request):
        with ReproInterpreter() as interp:
            request.cls.interp = interp
            yield

    def _run(self, *argv):
        return self.interp.run(*argv)

    def test_unknown_subcommand_exits_two_with_usage(self):
        proc = self._run("nosuchcmd")
        assert proc.returncode == 2
        assert "usage:" in proc.stderr
        assert "invalid choice" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_malformed_faults_exits_two_with_usage(self):
        proc = self._run("bfs", "--faults", "drop:count")
        assert proc.returncode == 2
        assert "usage:" in proc.stderr
        assert "expected key=value" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_backend_flag_is_gone(self):
        proc = self._run("bfs", "--scale", "10", "--mesh", "2x2",
                         "--backend", "simulated")
        assert proc.returncode == 2
        assert "usage:" in proc.stderr
        assert "unrecognized arguments: --backend" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "flag", ["--queries", "--queue-depths", "--windows", "--clients"]
    )
    def test_bench_serve_sweep_flags_are_gone(self, flag):
        proc = self._run("bench-serve", "--scale", "10", "--mesh", "2x2",
                         flag, "4")
        assert proc.returncode == 2
        assert "usage:" in proc.stderr
        assert f"unrecognized arguments: {flag}" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ("bfs", "--root", "-5"),
        ("bfs", "--root", "999999"),
        ("algo", "sssp", "--root", "1024"),
        ("algo", "bfs", "--root", "-1"),
        ("bfs", "--scale", "0"),
        ("bfs", "--checkpoint-every", "-1"),
        ("graph500", "--roots", "0"),
        # The batch engine has no per-root checkpoint and only restarts.
        ("graph500", "--batch-roots", "--checkpoint-every", "1"),
        ("graph500", "--batch-roots", "--recovery-mode", "degrade"),
        ("serve", "--clients", "0"),
        ("serve", "--batch-size", "0"),
        ("serve", "--batch-size", "65"),
        ("serve", "--queue-depth", "0"),
        ("serve", "--replicas", "0"),
        ("bfs", "--faults", "crash:rank=1,iter=1", "--max-restarts", "-1"),
        ("serve", "--hot-fraction", "2"),
        ("serve", "--batch-window", "-1"),
        ("serve", "--min-hit-rate", "nan"),
        ("serve", "--min-hit-rate", "-1"),
        ("serve", "--min-hit-rate", "7"),
        ("sweep", "--points", "8:2x2,foo"),
        ("bench-serve", "--batch-sizes", "0"),
        ("bench-serve", "--batch-sizes", "1,x"),
        ("bfs", "--e-threshold", "4", "--h-threshold", "64"),
        ("bfs", "--seed", "-1"),
        ("sweep", "--points", "8:2x2", "--seed", "-1"),
        ("serve", "--seed", "-1"),
        ("serve", "--telemetry-port", "0", "--telemetry-interval", "0"),
        ("serve", "--straggler-ms", "-5"),
        ("serve", "--telemetry-port", "70000"),
        ("serve", "--hot-set", "-3"),
        ("ocs", "--mib", "-1"),
        ("ocs", "--mib", "0"),
        ("mutate", "--updates", "insert", "--batch-size", "0"),
        ("mutate", "--updates", "insert", "--compact-every", "0"),
        # A single-graph SLO flag needs the telemetry plane to read it.
        ("serve", "--slo", "total:0.02:0.9"),
        ("serve", "--expect-slo", "green"),
        # Flags the serving mode in use has no use for are named, not dropped.
        ("serve", "--replicas", "5"),
        ("serve", "--quota", "3"),
        ("serve", "--duration", "9"),
        ("serve", "--smoke", "--trace", "trace.json"),
        ("serve", "--smoke", "--clients", "3"),
        ("serve", "--smoke", "--queue-depth", "5"),
        ("serve", "--smoke", "--straggler-ms", "5"),
        ("serve", "--smoke", "--expect-slo", "fired"),
        ("algo", "pagerank", "--max-iterations", "0"),
        ("algo", "sssp", "--max-iterations", "-1"),
        # A flag the program takes no parameter for is named, not dropped.
        ("algo", "cc", "--damping", "0.5"),
        ("algo", "pagerank", "--root", "3"),
        ("algo", "sssp-delta", "--max-iterations", "3"),
        ("algo", "bfs", "--tol", "0.1"),
    ], ids=lambda argv: "_".join(a.replace("--", "") for a in argv))
    def test_out_of_range_number_exits_two_with_usage(self, argv):
        command, *rest = argv
        # ``sweep`` and ``ocs`` take no graph flags.
        graphless = command in ("sweep", "ocs")
        common = () if graphless else ("--scale", "10", "--mesh", "2x2")
        proc = self._run(command, *common, *rest)
        assert proc.returncode == 2
        assert "usage:" in proc.stderr
        assert rest[-2] in proc.stderr  # the offending flag is named
        assert "Traceback" not in proc.stderr

    def test_unit_weights_without_weights_exits_two(self):
        proc = self._run("algo", "triangles", "--scale", "8", "--mesh", "2x2",
                         "--unit-weights")
        assert proc.returncode == 2
        assert "usage:" in proc.stderr
        assert "--unit-weights" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestServeGate:
    def test_single_graph_gate_names_each_failure(self, capsys, monkeypatch):
        import dataclasses

        from repro.serve import workload

        real = workload.run_serving_session

        def doctored(*args, **kwargs):
            report, service, telem = real(*args, **kwargs)
            failed, wrong = report.outcomes[:2]
            report.outcomes[:2] = [
                dataclasses.replace(failed, error="boom", correct=None),
                dataclasses.replace(wrong, correct=False),
            ]
            return report, service, telem

        monkeypatch.setattr(workload, "run_serving_session", doctored)
        rc = main(["serve", "--scale", "8", "--mesh", "2x2", "--queries", "8",
                   "--validate"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL: 1 queries failed" in out
        assert "FAIL: 1/7 validated parents wrong" in out
        assert out.rstrip().endswith("serve gate: FAIL")


class TestReportAndCompare:
    def _write_report(self, path, **kwargs):
        args = ["report", "--scale", "10", "--mesh", "2x2", "--seed", "7",
                "--roots", "2", "--out", str(path)]
        for flag, value in kwargs.items():
            args += [f"--{flag}", str(value)]
        return main(args)

    def test_report_writes_artifact(self, capsys, tmp_path):
        from repro.obs.report import RUN_REPORT_SCHEMA, RunReport

        out = tmp_path / "run.json"
        rc = self._write_report(out)
        assert rc == 0
        report = RunReport.load(out)
        assert report.schema == RUN_REPORT_SCHEMA
        assert report.metrics["total_bytes"] > 0
        assert report.directions  # per-iteration matrix present

    def test_report_stdout_render(self, capsys):
        rc = main(["report", "--scale", "10", "--mesh", "2x2", "--roots", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "tracked metrics" in out
        assert "direction matrix" in out

    def test_report_prometheus_export(self, capsys, tmp_path):
        out = tmp_path / "run.json"
        prom = tmp_path / "metrics.prom"
        rc = self._write_report(out, prometheus=prom)
        assert rc == 0
        text = prom.read_text()
        assert "# TYPE repro_comm_bytes_total counter" in text
        assert text.endswith("\n")

    def test_report_smoke_matches_helper(self, capsys, tmp_path):
        from repro.obs.report import bfs_smoke_report

        out = tmp_path / "smoke.json"
        rc = main(["report", "--smoke", "--out", str(out)])
        assert rc == 0
        from repro.obs.metrics import MetricsRegistry

        expected = bfs_smoke_report(metrics=MetricsRegistry())
        import json

        assert json.loads(out.read_text()) == expected.to_dict()

    def test_compare_identical_exits_zero(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert self._write_report(a) == 0
        assert self._write_report(b) == 0
        rc = main(["compare", str(a), str(b), "--max-regress", "5%"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out

    def test_compare_regression_exits_nonzero(self, capsys, tmp_path):
        import json

        a, b = tmp_path / "a.json", tmp_path / "bad.json"
        assert self._write_report(a) == 0
        doc = json.loads(a.read_text())
        doc["metrics"]["total_seconds"] *= 1.25
        b.write_text(json.dumps(doc))
        rc = main(["compare", str(a), str(b), "--max-regress", "5%"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "REGRESSED" in out
        assert "total_seconds" in out

    def test_compare_bad_artifact_exits_two(self, capsys, tmp_path):
        bogus = tmp_path / "nope.json"
        bogus.write_text('{"schema": "something.else/9"}')
        rc = main(["compare", str(bogus), str(bogus)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_compare_bad_threshold_exits_two(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        assert self._write_report(a) == 0
        rc = main(["compare", str(a), str(a), "--max-regress", "nope"])
        assert rc == 2
        rc = main(["compare", str(a), str(a), "--max-regress=-3%"])
        assert rc == 2

    @pytest.mark.parametrize("threshold", ["nan", "nan%", "inf", "inf%", "1e400"])
    def test_compare_non_finite_threshold_exits_two(
        self, capsys, tmp_path, threshold
    ):
        import json

        base = RESULTS / "BENCH_bfs_smoke.json"
        doc = json.loads(base.read_text())
        doc["metrics"]["mean_gteps"] *= 0.1
        fell = tmp_path / "fell.json"
        fell.write_text(json.dumps(doc))
        rc = main(["compare", str(base), str(fell), "--max-regress", threshold])
        captured = capsys.readouterr()
        assert rc == 2
        assert "finite" in captured.err
        assert "PASS" not in captured.out

    def _compare_edited(self, tmp_path, base_doc, **metrics):
        import json

        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_text(json.dumps(base_doc))
        base_doc = dict(base_doc, metrics=dict(base_doc["metrics"], **metrics))
        new.write_text(json.dumps(base_doc))
        return main(["compare", str(old), str(new), "--max-regress", "5%"])

    def test_compare_halved_prefixed_gteps_regresses(self, capsys, tmp_path):
        import json

        base = json.loads((RESULTS / "BENCH_programs_smoke.json").read_text())
        gteps = base["metrics"]["program.bfs.gteps"]
        rc = self._compare_edited(
            tmp_path, base, **{"program.bfs.gteps": gteps / 2}
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL: 1 metric(s) regressed past 5%: program.bfs.gteps" in out

    def test_compare_lost_convergence_regresses(self, capsys, tmp_path):
        from repro.obs.report import RunReport

        base = RunReport(
            name="program.pagerank", fingerprint="f", context={},
            metrics={"converged": 1.0, "total_seconds": 1.0},
        ).to_dict()
        rc = self._compare_edited(tmp_path, base, converged=0.0)
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL: 1 metric(s) regressed past 5%: converged" in out

    def test_traced_run_reports_the_same_bytes(self, capsys, tmp_path):
        argv = ["algo", "bfs", "--scale", "10", "--mesh", "2x2"]
        plain, traced, again = (tmp_path / f"{n}.json" for n in "abc")
        assert main(argv + ["--report", str(plain)]) == 0
        for path in (traced, again):
            trace = tmp_path / f"{path.stem}.trace.json"
            assert main(argv + ["--trace", str(trace), "--report", str(path)]) == 0
        assert traced.read_bytes() == plain.read_bytes()
        assert again.read_bytes() == plain.read_bytes()
        assert main(["compare", str(plain), str(traced)]) == 0


class TestMutate:
    def test_stream_passes_equivalence(self, capsys):
        rc = main([
            "mutate", "--scale", "9", "--mesh", "2x2",
            "--updates", "mixed:batches=3,size=16",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "equivalence vs rebuild: PASS" in out
        assert "repair cost" in out

    def test_batch_size_overrides_spec(self, capsys):
        rc = main([
            "mutate", "--scale", "9", "--mesh", "2x2",
            "--updates", "insert:batches=2,size=64", "--batch-size", "4",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "|        4 |" in out  # inserted column shows 4 per batch

    def test_malformed_spec_exits_two_with_usage(self):
        with pytest.raises(SystemExit) as exc:
            main(["mutate", "--updates", "upsert:size=4"])
        assert exc.value.code == 2

    def test_missing_spec_exits_two(self, capsys):
        rc = main(["mutate", "--scale", "9", "--mesh", "2x2"])
        assert rc == 2
        assert "usage" in capsys.readouterr().err

    def test_bad_batch_size_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "mutate", "--scale", "9", "--mesh", "2x2",
                "--updates", "insert", "--batch-size", "0",
            ])
        assert exc.value.code == 2

    def test_smoke_gate(self, capsys):
        rc = main(["mutate", "--smoke"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "dynamic gate: PASS" in out
        assert "patched" in out

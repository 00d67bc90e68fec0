"""Smoke test of the layer bench at ``--tiny`` sizes (scale 10).

Not in the tier-1 ``testpaths``; run it explicitly::

    python -m pytest benchmarks/layers/test_layers_smoke.py
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
TRAVERSALS = ["bfs_rmat16", "bfs_ring16", "msbfs_rmat16"]

#: Metrics that must read the same on every run of one seed (besides
#: every ``*_arcs`` count).
EXACT = {
    "ledger.sim_seconds", "ledger.sim_bytes", "ledger.charges", "msbfs.waves",
    "kernels.scheduler.levels", "kernels.scheduler.subiterations",
    "kernels.scheduler.skips",
}


def run_bench(workload: str, trace: int):
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny",
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    detail, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return detail, result


cached_run = functools.lru_cache(maxsize=None)(run_bench)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_emits_exactly_the_contract_names(workload, trace, kind):
    _, result = cached_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in CONTRACT[kind]]
    for spec in CONTRACT[kind]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        if kind == "end_to_end":
            assert metric["value"] > 0, spec["name"]


@pytest.mark.parametrize("workload", TRAVERSALS)
def test_tracing_does_not_change_the_run_records(workload):
    untraced, _ = cached_run(workload, 0)
    traced, _ = cached_run(workload, 1)
    assert traced["run_records"]
    assert traced["run_records"] == untraced["run_records"]


def test_layer_self_times_cover_the_traversal_span():
    detail, _ = cached_run("bfs_rmat16", 1)
    assert detail["layer_coverage"] >= 0.95


@pytest.mark.parametrize("workload", TRAVERSALS)
def test_exact_counts_repeat(workload):
    _, first = cached_run(workload, 1)
    _, again = run_bench(workload, 1)
    for name, metric in first["metrics"].items():
        if name in EXACT or name.endswith("_arcs"):
            assert metric == again["metrics"][name], name


def test_trace_file_is_written():
    cached_run("bfs_rmat16", 1)
    doc = json.loads((HERE / "out" / "trace_bfs_rmat16.json").read_text())
    assert doc["fields"] == ["name", "start", "end", "parent", "trace_id"]
    assert doc["spans"] and doc["recorded"] >= doc["written"]

"""Pin the layer bench's modeled counts.

Every performance change must leave the simulated result and the
scheduler's decisions where they were: ledger charges, simulated seconds
and bytes, the pull share of the direction choices, levels /
sub-iterations / skips, MSBFS waves and lanes, and each component's push
and pull arcs.  They are first-pass counts that repeat exactly for one
seed whatever the run length, so a traced ``--tiny`` run of the two
traversal workloads is compared with ``golden/layer_counts_tiny.json``.

A change that is *meant* to move them regenerates the file with
``python tests/test_layer_counts.py`` and says so in its PR.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "layer_counts_tiny.json"
WORKLOADS = ["bfs_rmat16", "bfs_ring16", "msbfs_rmat16"]

PINNED = (
    "ledger.charges", "ledger.sim_seconds", "ledger.sim_bytes",
    "direction.pull_share",
    "kernels.scheduler.levels", "kernels.scheduler.subiterations",
    "kernels.scheduler.skips",
    "msbfs.waves", "msbfs.lanes_mean",
)


def layer_counts(workload: str) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "benchmarks" / "layers" / "run.py"),
            "--workload", workload, "--tiny", "--trace", "1",
            "--seed", "7", "--seconds", "1",
        ],
        capture_output=True, text=True, timeout=150, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if name in PINNED
        or (name.startswith("subgraphs.") and name.endswith("_arcs"))
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_modeled_counts_match_golden(workload):
    golden = json.loads(GOLDEN.read_text())[workload]
    assert set(PINNED) <= set(golden) and len(golden) == len(PINNED) + 12
    assert layer_counts(workload) == golden


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({w: layer_counts(w) for w in WORKLOADS}, indent=2) + "\n"
    )

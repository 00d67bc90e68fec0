"""Pin kernel 1's output: a digest of every array of every partition.

Each case builds a partition (or a baseline's component set, or an
incremental repair generation) and records ``(shape, dtype, sha256 of
tobytes())`` for each of its arrays: the per-vertex fields and every
array attribute of every :class:`~repro.core.subgraphs.SubgraphComponent`.
``golden/partition_digest.json`` holds what each case built, so a
change to how arcs are placed or ordered shows up here as a named
array whose digest moved.

A change that is *meant* to move a partition regenerates the file with
``python tests/test_partition_digest.py`` and says so.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "partition_digest.json"

if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from repro.baselines import DelegatedOneDimBFS, OneDimBFS, TwoDimBFS
from repro.core.partition import partition_graph
from repro.dynamic.repair import IncrementalGraph
from repro.dynamic.updates import UpdateSpec, generate_update_stream
from repro.graph500.rmat import generate_edges
from repro.runtime.mesh import ProcessMesh

SCALE = 10
N = 1 << SCALE
#: Per-vertex fields of a partition (every other field is a scalar or
#: the component dict).
VERTEX_FIELDS = (
    "degrees", "vclass", "e_ids", "h_ids", "eh_col", "eh_row",
    "col_eh_counts", "row_eh_counts", "l_per_rank",
)


def _digest(arr: np.ndarray) -> list:
    arr = np.ascontiguousarray(arr)
    return [list(arr.shape), arr.dtype.str, hashlib.sha256(arr.tobytes()).hexdigest()]


def _components(components: dict) -> dict:
    out = {}
    for name, comp in components.items():
        for attr, value in sorted(vars(comp).items()):
            if isinstance(value, np.ndarray):
                out[f"{name}.{attr}"] = _digest(value)
    return out


def _partition(part) -> dict:
    out = {f: _digest(getattr(part, f)) for f in VERTEX_FIELDS}
    out.update(_components(part.components))
    return out


def _edges():
    return generate_edges(SCALE, seed=1)


def _static(rows, cols, placement, e_threshold=128, h_threshold=16):
    def build():
        src, dst = _edges()
        return _partition(partition_graph(
            src, dst, N, ProcessMesh(rows, cols),
            e_threshold=e_threshold, h_threshold=h_threshold,
            placement=placement,
        ))
    return build


def _baseline(cls, rows, cols):
    def build():
        src, dst = _edges()
        return _components(cls(src, dst, N, ProcessMesh(rows, cols)).components)
    return build


def _incremental():
    """Three mixed batches, compacted once (at the third)."""
    src, dst = _edges()
    inc = IncrementalGraph(
        src, dst, N, ProcessMesh(2, 2),
        e_threshold=128, h_threshold=16, compact_every=3,
    )
    lo, hi = inc.edges()
    stream = generate_update_stream(
        lo, hi, N, UpdateSpec("mixed", batches=3, size=48), seed=5
    )
    compactions = [inc.apply_batch(batch).compacted for batch in stream]
    assert compactions == [False, False, True]
    return _partition(inc.graph())


CASES = {
    **{
        f"s10_{r}x{c}_{placement}": _static(r, c, placement)
        for r, c in ((2, 2), (2, 3))
        for placement in ("cyclic", "stable")
    },
    **{
        f"s10_2x3_{placement}_no_e": _static(2, 3, placement, e_threshold=1 << 20)
        for placement in ("cyclic", "stable")
    },
    "s10_2x2_1d": _baseline(OneDimBFS, 2, 2),
    "s10_2x2_1d_delegated": _baseline(DelegatedOneDimBFS, 2, 2),
    "s10_2x3_2d": _baseline(TwoDimBFS, 2, 3),
    "s10_2x2_incremental_3_batches": _incremental,
}


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_partition_digest(case):
    want = json.loads(GOLDEN.read_text())[case]
    got = CASES[case]()
    assert sorted(got) == sorted(want)
    moved = [k for k in sorted(want) if got[k] != want[k]]
    assert not moved, f"{case}: arrays moved: {moved}"


def test_no_e_cases_have_no_e_vertices():
    assert _static(2, 3, "cyclic", e_threshold=1 << 20)()["e_ids"][0] == [0]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({k: CASES[k]() for k in sorted(CASES)}, indent=1) + "\n"
    )
    print(f"wrote {GOLDEN}")

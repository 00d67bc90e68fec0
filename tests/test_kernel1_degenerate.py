"""Kernel 1 on degenerate inputs, static and incremental.

Hypothesis edge lists carry duplicates, self loops and isolated vertices
over an ``n`` that is rarely a power of two.  They are partitioned on
1×1, 1×N and N×1 meshes (and small R×C ones), under thresholds that
leave E, H or L empty, with both placements; the incremental side then
ingests one mixed batch and must match a from-scratch rebuild.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import CLASS_CODES, COMPONENT_CLASSES, partition_graph
from repro.core.subgraphs import COMPONENT_ORDER
from repro.dynamic.gate import parts_bitwise_equal
from repro.dynamic.repair import IncrementalGraph
from repro.dynamic.updates import UpdateBatch, canonical_edges
from repro.graph500.rmat import generate_edges
from repro.runtime.mesh import ProcessMesh

#: Threshold pairs ``(e, h)`` by what they leave empty, for a graph whose
#: top degree is ``top``.
THRESHOLDS = {
    "mixed": lambda top: (max(top // 2, 2), 2),
    "no E": lambda top: (top + 1, 1),
    "no H": lambda top: (2, 2),
    "no E/H": lambda top: (top + 1, top + 1),
    "all EH": lambda top: (2, 1),
}


@st.composite
def degenerate_graphs(draw):
    """``(src, dst, n)``: an edge list with at least one duplicate edge,
    one self loop and (usually) isolated vertices, ids shuffled."""
    used = draw(st.integers(2, 24))
    isolated = draw(st.integers(0, 4))
    n = used + isolated
    ends = st.integers(0, used - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), min_size=1, max_size=3 * used))
    pairs += [pairs[0], (pairs[-1][0], pairs[-1][0])]
    ring = draw(st.booleans())  # every used vertex gets degree >= 2
    if ring:
        pairs += [(v, (v + 1) % used) for v in range(used)]
    src, dst = np.array(pairs, dtype=np.int64).T
    perm = np.random.default_rng(draw(st.integers(0, 2**16))).permutation(n)
    return perm[src], perm[dst], n


MESHES = st.sampled_from([(1, 1), (1, 3), (4, 1), (2, 2), (2, 3)])


def check_partition(part, mesh, num_arcs):
    """The invariants every partition holds, degenerate or not."""
    assert part.total_arcs == num_arcs
    for name in COMPONENT_ORDER:
        src, dst, rank = part.components[name].arcs()
        s_cls, d_cls = COMPONENT_CLASSES[name]
        assert np.isin(part.vclass[src], CLASS_CODES[s_cls]).all(), name
        assert np.isin(part.vclass[dst], CLASS_CODES[d_cls]).all(), name
        assert ((rank >= 0) & (rank < mesh.num_ranks)).all(), name
    assert part.col_eh_counts.sum() == part.num_eh == part.row_eh_counts.sum()
    assert part.l_per_rank.sum() == part.num_l


@given(
    graph=degenerate_graphs(),
    shape=MESHES,
    thresholds=st.sampled_from(sorted(THRESHOLDS)),
    placement=st.sampled_from(["cyclic", "stable"]),
)
@settings(max_examples=60, deadline=None)
def test_static_partition_invariants(graph, shape, thresholds, placement):
    src, dst, n = graph
    mesh = ProcessMesh(*shape)
    lo, hi = canonical_edges(src, dst, n)
    top = int(np.bincount(np.concatenate([lo, hi]), minlength=n).max())
    e_thr, h_thr = THRESHOLDS[thresholds](top)
    part = partition_graph(
        src, dst, n, mesh, e_threshold=e_thr, h_threshold=h_thr,
        placement=placement,
    )
    # The static pipeline keeps duplicate edges (a multigraph) and drops
    # self loops.
    check_partition(part, mesh, 2 * int(np.count_nonzero(src != dst)))
    # The incremental side keeps the distinct non-loop edges only.
    canonical = partition_graph(
        lo, hi, n, mesh, e_threshold=e_thr, h_threshold=h_thr,
        placement=placement,
    )
    check_partition(canonical, mesh, 2 * lo.size)


@given(
    graph=degenerate_graphs(),
    shape=MESHES,
    thresholds=st.sampled_from(sorted(THRESHOLDS)),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_incremental_batch_matches_rebuild(graph, shape, thresholds, data):
    src, dst, n = graph
    mesh = ProcessMesh(*shape)
    lo, hi = canonical_edges(src, dst, n)
    top = int(np.bincount(np.concatenate([lo, hi]), minlength=n).max())
    e_thr, h_thr = THRESHOLDS[thresholds](top)
    inc = IncrementalGraph(
        src, dst, n, mesh, e_threshold=e_thr, h_threshold=h_thr,
        compact_every=data.draw(st.integers(1, 2)),
    )
    check_partition(inc.graph(), mesh, 2 * lo.size)

    # One mixed batch: delete a prefix of the live edges, insert drawn
    # pairs (present ones are no-ops, absent ones land).
    k = data.draw(st.integers(0, lo.size))
    ends = st.integers(0, n - 1)
    drawn = data.draw(st.lists(st.tuples(ends, ends), max_size=2 * n))
    ins = np.array([(min(u, v), max(u, v)) for u, v in drawn if u != v],
                   dtype=np.int64).reshape(-1, 2)
    batch = UpdateBatch(
        src=np.concatenate([lo[:k], ins[:, 0]]),
        dst=np.concatenate([hi[:k], ins[:, 1]]),
        op=np.concatenate([-np.ones(k, np.int8), np.ones(len(ins), np.int8)]),
    )
    inc.apply_batch(batch)
    assert parts_bitwise_equal(inc.graph(), inc.rebuild_reference()) == []
    check_partition(inc.graph(), mesh, 2 * inc.num_edges)


class TestRepairRejectsNonCanonicalUpdates:
    """A batch whose pair is not ``0 <= src < dst < n`` is refused whole,
    before any state changes (it would otherwise land as a different
    edge, a self loop, or a key its reverse does not match)."""

    @pytest.fixture
    def inc(self):
        src, dst = generate_edges(8, seed=1)
        return IncrementalGraph(
            src, dst, 256, ProcessMesh(2, 2), e_threshold=64, h_threshold=8
        )

    @pytest.mark.parametrize(
        "pair", [(3, 256 + 2), (4, 4), (7, 3), (-1, 5)]
    )
    def test_bad_pair_raises_and_changes_nothing(self, inc, pair):
        lo, hi = inc.edges()
        before = inc.graph()
        # A good update first: the batch is refused as a whole.
        batch = UpdateBatch(
            src=np.array([lo[0], pair[0]], dtype=np.int64),
            dst=np.array([hi[0], pair[1]], dtype=np.int64),
            op=np.array([-1, 1], dtype=np.int8),
        )
        with pytest.raises(ValueError, match=rf"\({pair[0]}, {pair[1]}\)"):
            inc.apply_batch(batch)
        new_lo, new_hi = inc.edges()
        assert np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi)
        assert inc.num_batches == 0
        assert parts_bitwise_equal(inc.graph(), before) == []
        assert parts_bitwise_equal(inc.graph(), inc.rebuild_reference()) == []

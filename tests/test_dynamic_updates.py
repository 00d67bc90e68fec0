"""Tests for the batched edge-update log (:mod:`repro.dynamic.updates`)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.subgraphs import arc_keys, member
from repro.dynamic.updates import (
    UpdateBatch,
    UpdateSpec,
    UpdateSpecError,
    apply_updates,
    canonical_edges,
    generate_update_stream,
    parse_update_spec,
    weights_for_edges,
)


class TestSpecGrammar:
    def test_bare_kind(self):
        spec = parse_update_spec("insert")
        assert spec == UpdateSpec(kind="insert")

    def test_full_spec(self):
        spec = parse_update_spec("mixed:batches=8,size=32,frac=0.25")
        assert spec == UpdateSpec(kind="mixed", batches=8, size=32, frac=0.25)

    def test_whitespace_tolerated(self):
        spec = parse_update_spec("  delete : batches = 2 , size = 128 ")
        assert spec == UpdateSpec(kind="delete", batches=2, size=128)

    @pytest.mark.parametrize("bad", [
        "",
        "upsert",
        "insert:batches",
        "insert:batches=",
        "insert:=4",
        "insert:batches=four",
        "insert:frac=lots",
        "insert:rate=0.5",
        "insert:batches=0",
        "insert:size=-1",
        "mixed:frac=1.5",
    ])
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(UpdateSpecError):
            parse_update_spec(bad)

    def test_spec_error_is_value_error(self):
        # The CLI maps it to exit 2 via argparse; callers can still
        # catch plain ValueError.
        assert issubclass(UpdateSpecError, ValueError)


class TestCanonicalEdges:
    def test_canonicalization(self):
        src = np.array([3, 1, 1, 2, 5])
        dst = np.array([0, 2, 2, 1, 5])  # dup {1,2} both ways, loop {5,5}
        lo, hi = canonical_edges(src, dst, 8)
        assert lo.tolist() == [0, 1]
        assert hi.tolist() == [3, 2]

    def test_apply_is_idempotent(self):
        lo = np.array([0, 2])
        hi = np.array([1, 3])
        batch = UpdateBatch(
            src=np.array([0, 4, 6]),
            dst=np.array([1, 5, 7]),  # {0,1} already present
            op=np.array([1, 1, -1], dtype=np.int8),  # delete {6,7}: absent
        )
        new_lo, new_hi = apply_updates(lo, hi, batch, 8)
        assert new_lo.tolist() == [0, 2, 4]
        assert new_hi.tolist() == [1, 3, 5]


class TestStreamGeneration:
    @pytest.fixture(scope="class")
    def base(self):
        rng = np.random.default_rng(0)
        src = rng.integers(0, 64, size=200)
        dst = rng.integers(0, 64, size=200)
        return canonical_edges(src, dst, 64)

    def test_deterministic(self, base):
        lo, hi = base
        spec = UpdateSpec(kind="mixed", batches=3, size=16)
        a = generate_update_stream(lo, hi, 64, spec, seed=5)
        b = generate_update_stream(lo, hi, 64, spec, seed=5)
        assert len(a) == len(b) == 3
        for x, y in zip(a, b):
            assert np.array_equal(x.src, y.src)
            assert np.array_equal(x.dst, y.dst)
            assert np.array_equal(x.op, y.op)

    def test_seed_changes_stream(self, base):
        lo, hi = base
        spec = UpdateSpec(kind="insert", batches=1, size=16)
        a = generate_update_stream(lo, hi, 64, spec, seed=5)[0]
        b = generate_update_stream(lo, hi, 64, spec, seed=6)[0]
        assert not np.array_equal(a.src, b.src)

    def test_deletes_target_live_inserts_target_absent(self, base):
        lo, hi = base
        spec = UpdateSpec(kind="mixed", batches=4, size=12)
        live_lo, live_hi = lo, hi
        for batch in generate_update_stream(lo, hi, 64, spec, seed=9):
            live = set(zip(live_lo.tolist(), live_hi.tolist()))
            for s, d, op in zip(
                batch.src.tolist(), batch.dst.tolist(), batch.op.tolist()
            ):
                assert s < d
                if op > 0:
                    assert (s, d) not in live
                else:
                    assert (s, d) in live
            live_lo, live_hi = apply_updates(live_lo, live_hi, batch, 64)

    def test_mixed_frac_splits_batch(self, base):
        lo, hi = base
        spec = UpdateSpec(kind="mixed", batches=1, size=16, frac=0.25)
        batch = generate_update_stream(lo, hi, 64, spec, seed=2)[0]
        assert np.count_nonzero(batch.op > 0) == 4
        assert np.count_nonzero(batch.op < 0) == 12

    def test_delete_stream_drains_gracefully(self):
        # More deletions than edges: batches shrink, never go negative.
        lo = np.array([0, 1, 2])
        hi = np.array([1, 2, 3])
        spec = UpdateSpec(kind="delete", batches=3, size=2)
        stream = generate_update_stream(lo, hi, 8, spec, seed=1)
        assert [b.size for b in stream] == [2, 1, 0]


class TestWeights:
    def test_content_hashed_not_positional(self):
        src = np.array([4, 0, 9])
        dst = np.array([7, 3, 2])
        w = weights_for_edges(src, dst, 16)
        # Same edges, different order and orientation: same weights.
        w_perm = weights_for_edges(dst[::-1], src[::-1], 16)
        assert np.array_equal(np.sort(w), np.sort(w_perm))
        assert np.all((w >= 0.0) & (w < 1.0))

    def test_seed_changes_weights(self):
        src = np.array([0, 1])
        dst = np.array([1, 2])
        assert not np.array_equal(
            weights_for_edges(src, dst, 4, seed=1),
            weights_for_edges(src, dst, 4, seed=2),
        )


# ---------------------------------------------------------------------------
# The sorted-key set algebra against the numpy set routines it replaced.
# The oracles below keep those expressions verbatim.
# ---------------------------------------------------------------------------


def oracle_apply_updates(lo, hi, batch, num_vertices):
    keys = arc_keys(lo, hi, num_vertices)
    ins = batch.op > 0
    add = np.unique(arc_keys(batch.src[ins], batch.dst[ins], num_vertices))
    drop = np.unique(
        arc_keys(batch.src[~ins], batch.dst[~ins], num_vertices)
    )
    keys = np.union1d(keys, add)
    keys = np.setdiff1d(keys, drop, assume_unique=True)
    return keys // num_vertices, keys % num_vertices


def oracle_draw_absent_pairs(rng, live, num_vertices, count):
    if count == 0:
        return np.array([], dtype=np.int64)
    picked = []
    have = 0
    for _ in range(64):
        need = count - have
        a = rng.integers(0, num_vertices, size=2 * need + 8, dtype=np.int64)
        b = rng.integers(0, num_vertices, size=2 * need + 8, dtype=np.int64)
        keep = a != b
        keys = arc_keys(
            np.minimum(a[keep], b[keep]), np.maximum(a[keep], b[keep]),
            num_vertices,
        )
        keys = np.unique(keys)
        absent = keys[~member(keys, live)]
        if picked:
            existing = np.concatenate(picked)
            absent = np.setdiff1d(absent, existing, assume_unique=True)
        picked.append(absent[: count - have])
        have += picked[-1].size
        if have >= count:
            break
    else:
        raise RuntimeError("graph too dense")
    return np.sort(np.concatenate(picked))


def oracle_update_stream(src, dst, num_vertices, spec, seed):
    """The stream as drawn against a live set kept by ``np.union1d`` /
    ``np.setdiff1d``; yields each batch's ``(src, dst, op)``."""
    rng = np.random.default_rng(seed)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    keep = src != dst
    lo = np.minimum(src[keep], dst[keep])
    hi = np.maximum(src[keep], dst[keep])
    live = np.unique(arc_keys(lo, hi, num_vertices))
    if spec.kind == "insert":
        n_ins = spec.size
    elif spec.kind == "delete":
        n_ins = 0
    else:
        n_ins = int(round(spec.size * spec.frac))
    out = []
    for _ in range(spec.batches):
        ins_keys = oracle_draw_absent_pairs(rng, live, num_vertices, n_ins)
        n_del_eff = min(spec.size - n_ins, live.size)
        del_keys = (
            np.sort(rng.choice(live, size=n_del_eff, replace=False))
            if n_del_eff
            else np.array([], dtype=np.int64)
        )
        b_keys = np.concatenate([ins_keys, del_keys])
        op = np.concatenate([
            np.ones(ins_keys.size, dtype=np.int8),
            -np.ones(del_keys.size, dtype=np.int8),
        ])
        out.append((b_keys // num_vertices, b_keys % num_vertices, op))
        live = np.setdiff1d(
            np.union1d(live, ins_keys), del_keys, assume_unique=False
        )
    return out


@st.composite
def edge_lists(draw):
    """``(src, dst, n)``: a raw edge list over ``n`` vertices with repeats
    in both orientations and self loops."""
    n = draw(st.integers(2, 24))
    ids = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=60))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    pairs = [(b, a) if draw(st.booleans()) else (a, b) for a, b in pairs]
    src = np.array([p[0] for p in pairs], dtype=np.int64)
    dst = np.array([p[1] for p in pairs], dtype=np.int64)
    return src, dst, n


def assert_same_arrays(got, expect):
    for g, e in zip(got, expect, strict=True):
        assert g.dtype == e.dtype
        assert g.tolist() == e.tolist()


class TestSortedSetAlgebra:
    @settings(max_examples=150, deadline=None)
    @given(graph=edge_lists(), data=st.data())
    def test_apply_updates_matches_union_setdiff(self, graph, data):
        src, dst, n = graph
        lo, hi = canonical_edges(src, dst, n)
        all_pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        # Inserts and deletes drawn from every canonical pair: present
        # and absent edges both ways, repeats, and pairs in both lists.
        pairs = data.draw(st.lists(st.sampled_from(all_pairs), max_size=30))
        ops = data.draw(
            st.lists(st.sampled_from([1, -1]), min_size=len(pairs),
                     max_size=len(pairs))
        )
        batch = UpdateBatch(
            src=np.array([p[0] for p in pairs], dtype=np.int64),
            dst=np.array([p[1] for p in pairs], dtype=np.int64),
            op=np.array(ops, dtype=np.int8),
        )
        assert_same_arrays(
            apply_updates(lo, hi, batch, n),
            oracle_apply_updates(lo, hi, batch, n),
        )

    @settings(max_examples=100, deadline=None)
    @given(
        graph=edge_lists(),
        kind=st.sampled_from(["insert", "delete", "mixed"]),
        batches=st.integers(1, 4),
        size=st.integers(1, 12),
        frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_stream_matches_union_setdiff(
        self, graph, kind, batches, size, frac, seed
    ):
        src, dst, n = graph
        spec = UpdateSpec(kind=kind, batches=batches, size=size, frac=frac)
        try:
            expect = oracle_update_stream(src, dst, n, spec, seed)
        except RuntimeError:
            # Too dense for the insert volume: both sides refuse.
            with pytest.raises(RuntimeError):
                generate_update_stream(src, dst, n, spec, seed=seed)
            return
        got = generate_update_stream(src, dst, n, spec, seed=seed)
        assert len(got) == len(expect)
        for batch, (b_src, b_dst, b_op) in zip(got, expect):
            assert_same_arrays((batch.src, batch.dst, batch.op),
                               (b_src, b_dst, b_op))

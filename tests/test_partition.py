"""Tests for the 3-level degree-aware 1.5D partitioner."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import VertexClass, mix64, partition_graph, place_arcs
from repro.graph500.rmat import generate_edges
from repro.core.subgraphs import COMPONENT_ORDER
from repro.graphs.csr import symmetrize_edges
from repro.runtime.mesh import ProcessMesh

from helpers import random_edge_list


def small_partition(scale=10, rows=2, cols=2, e_thr=128, h_thr=16, seed=1):
    src, dst = generate_edges(scale, seed=seed)
    mesh = ProcessMesh(rows, cols)
    return (
        partition_graph(src, dst, 1 << scale, mesh, e_threshold=e_thr, h_threshold=h_thr),
        src,
        dst,
    )


class TestClassification:
    def test_three_classes_by_threshold(self):
        part, _, _ = small_partition()
        deg = part.degrees
        assert np.all(deg[part.vclass == VertexClass.E] >= 128)
        h_mask = part.vclass == VertexClass.H
        assert np.all((deg[h_mask] >= 16) & (deg[h_mask] < 128))
        assert np.all(deg[part.vclass == VertexClass.L] < 16)

    def test_e_ids_sorted_by_degree_desc(self):
        part, _, _ = small_partition()
        d = part.degrees[part.e_ids]
        assert np.all(np.diff(d) <= 0)

    def test_class_sizes_consistent(self):
        part, _, _ = small_partition()
        sizes = part.class_sizes()
        assert sizes["E"] + sizes["H"] + sizes["L"] == part.num_vertices
        assert sizes["EH"] == sizes["E"] + sizes["H"]
        assert part.num_e == sizes["E"]
        assert part.num_l == sizes["L"]

    def test_invalid_thresholds(self):
        src, dst = random_edge_list(16, 32, seed=0)
        mesh = ProcessMesh(2, 2)
        with pytest.raises(ValueError, match="e_threshold"):
            partition_graph(src, dst, 16, mesh, e_threshold=4, h_threshold=8)

    def test_equal_thresholds_mean_no_h(self):
        part_no_h, _, _ = small_partition(e_thr=64, h_thr=64)
        assert part_no_h.num_h == 0
        # degenerates toward 1D-with-heavy-delegates: no H2L/L2H arcs
        assert part_no_h.components["H2L"].num_arcs == 0
        assert part_no_h.components["L2H"].num_arcs == 0

    def test_threshold_one_means_no_l(self):
        part, _, _ = small_partition(e_thr=128, h_thr=1)
        # every non-isolated vertex is E or H -> 2D-like degenerate form
        deg = part.degrees
        assert np.all(part.vclass[deg > 0] >= VertexClass.H)
        for name in ("E2L", "L2E", "H2L", "L2H", "L2L"):
            assert part.components[name].num_arcs == 0


class TestArcCover:
    def test_components_cover_all_arcs_exactly_once(self):
        part, src, dst = small_partition()
        a_src, a_dst = symmetrize_edges(src, dst)
        total = sum(c.num_arcs for c in part.components.values())
        assert total == a_src.size

    def test_component_class_membership(self):
        part, _, _ = small_partition()
        vc = part.vclass
        expect = {
            "EH2EH": (VertexClass.H, VertexClass.H, VertexClass.E, VertexClass.E),
            "E2L": (VertexClass.E, VertexClass.E, VertexClass.L, VertexClass.L),
            "L2E": (VertexClass.L, VertexClass.L, VertexClass.E, VertexClass.E),
            "H2L": (VertexClass.H, VertexClass.H, VertexClass.L, VertexClass.L),
            "L2H": (VertexClass.L, VertexClass.L, VertexClass.H, VertexClass.H),
            "L2L": (VertexClass.L, VertexClass.L, VertexClass.L, VertexClass.L),
        }
        for name, (smin, smax2, dmin, dmax2) in expect.items():
            comp = part.components[name]
            if comp.num_arcs == 0:
                continue
            s, d, _ = comp.arcs()
            if name == "EH2EH":
                assert np.all(vc[s] >= VertexClass.H)
                assert np.all(vc[d] >= VertexClass.H)
            else:
                assert np.all(vc[s] == smin)
                assert np.all(vc[d] == dmin)

    def test_multiset_of_arcs_preserved(self):
        part, src, dst = small_partition(scale=8)
        a_src, a_dst = symmetrize_edges(src, dst)
        orig = sorted(zip(a_src.tolist(), a_dst.tolist()))
        got = []
        for comp in part.components.values():
            s, d, _ = comp.arcs()
            got.extend(zip(s.tolist(), d.tolist()))
        assert sorted(got) == orig


class TestPlacement:
    def test_eh2eh_2d_placement(self):
        """H endpoints pin arcs to their delegate column/row; E endpoints
        (delegated globally) are dealt freely."""
        part, _, _ = small_partition()
        mesh = part.mesh
        comp = part.components["EH2EH"]
        s, d, r = comp.arcs()
        vc = part.vclass
        h_src = vc[s] == VertexClass.H
        h_dst = vc[d] == VertexClass.H
        assert np.all(mesh.col_of(r[h_src]) == part.eh_col[s[h_src]])
        assert np.all(mesh.row_of(r[h_dst]) == part.eh_row[d[h_dst]])

    def test_e2l_at_l_owner(self):
        part, _, _ = small_partition()
        comp = part.components["E2L"]
        if comp.num_arcs:
            _, d, r = comp.arcs()
            assert np.all(r == part.mesh.owner_of(d, part.num_vertices))

    def test_l2e_l2h_l2l_at_source_owner(self):
        part, _, _ = small_partition()
        for name in ("L2E", "L2H", "L2L"):
            comp = part.components[name]
            if comp.num_arcs:
                s, _, r = comp.arcs()
                assert np.all(r == part.mesh.owner_of(s, part.num_vertices))

    def test_h2l_at_intersection(self):
        """H2L arcs sit in H's column and L's row, so messages stay
        intra-row (§4.1)."""
        part, _, _ = small_partition()
        mesh = part.mesh
        comp = part.components["H2L"]
        if comp.num_arcs:
            s, d, r = comp.arcs()
            o_d = mesh.owner_of(d, part.num_vertices)
            assert np.all(mesh.col_of(r) == part.eh_col[s])
            assert np.all(mesh.row_of(r) == mesh.row_of(o_d))

    def test_delegate_counts(self):
        part, _, _ = small_partition()
        assert int(part.col_eh_counts.sum()) == part.num_eh
        assert int(part.row_eh_counts.sum()) == part.num_eh
        assert int(part.l_per_rank.sum()) == part.num_l

    def test_eh_space_deal_is_balanced(self):
        """The cyclic EH deal keeps per-column delegate counts within 1."""
        part, _, _ = small_partition()
        assert part.col_eh_counts.max() - part.col_eh_counts.min() <= 1
        # heaviest vertices land on distinct columns
        top = part.e_ids[: part.mesh.cols]
        if top.size == part.mesh.cols:
            assert len(set(part.eh_col[top].tolist())) == part.mesh.cols

    def test_eh_coordinates_only_for_eh(self):
        part, _, _ = small_partition()
        l_mask = part.vclass == VertexClass.L
        assert np.all(part.eh_col[l_mask] == -1)
        eh_mask = part.vclass >= VertexClass.H
        assert np.all(part.eh_col[eh_mask] >= 0)
        assert np.all(part.eh_row[eh_mask] >= 0)


class TestLoadBalance:
    def test_fig13_spread_is_small(self):
        """Per-rank edge counts of each component are well balanced."""
        part, _, _ = small_partition(scale=14, rows=4, cols=4, e_thr=512, h_thr=32)
        for name, loads in part.component_load_vectors().items():
            if loads.sum() == 0:
                continue
            spread = (loads.max() - loads.min()) / loads.mean()
            assert spread < 0.65, f"{name} spread {spread:.2f}"

    def test_core_fraction_above_half(self):
        """Graph500 graphs concentrate most edges among E/H (paper: >60%
        in EH2EH alone at production thresholds)."""
        part, _, _ = small_partition(scale=14, e_thr=512, h_thr=32)
        assert part.core_fraction() > 0.5


@given(
    seed=st.integers(0, 1000),
    n_exp=st.integers(4, 8),
    rows=st.integers(1, 3),
    cols=st.integers(1, 3),
    h_thr=st.integers(1, 8),
    e_extra=st.integers(0, 8),
)
@settings(max_examples=40, deadline=None)
def test_property_partition_is_exact_cover(seed, n_exp, rows, cols, h_thr, e_extra):
    n = 1 << n_exp
    src, dst = random_edge_list(n, 4 * n, seed=seed)
    mesh = ProcessMesh(rows, cols)
    part = partition_graph(
        src, dst, n, mesh, e_threshold=h_thr + e_extra, h_threshold=h_thr
    )
    a_src, a_dst = symmetrize_edges(src, dst)
    assert part.total_arcs == a_src.size
    # every arc's rank is within the mesh
    for comp in part.components.values():
        if comp.num_arcs:
            _, _, r = comp.arcs()
            assert r.min() >= 0 and r.max() < mesh.num_ranks


def rule_placement(a_src, a_dst, part):
    """The placement table, arc by arc: ``(component, rank)`` from the
    block owners and the EH coordinates."""
    mesh, n = part.mesh, part.num_vertices
    cols, ranks = mesh.cols, mesh.num_ranks
    owner = [int(mesh.owner_of(v, n)) for v in range(n)]
    L, H = VertexClass.L, VertexClass.H
    comps, out = [], []
    for pos, (s, d) in enumerate(zip(a_src.tolist(), a_dst.tolist())):
        sc, dc = part.vclass[s], part.vclass[d]
        if sc == L:
            name = {L: "L2L", H: "L2H"}.get(dc, "L2E")
            rank = owner[s]
        elif dc == L:
            name = "E2L" if sc == VertexClass.E else "H2L"
            rank = owner[d]
            if sc == H:
                rank = rank // cols * cols + int(part.eh_col[s])
        else:
            name = "EH2EH"
            if part.placement == "stable":
                h = mix64(mix64(np.array([s])) + np.uint64(d))[0]
                deal = int(h % np.uint64(ranks))
            else:
                deal = pos % ranks
            col = int(part.eh_col[s]) if sc == H else deal % cols
            row = int(part.eh_row[d]) if dc == H else deal // cols
            rank = row * cols + col
        comps.append(COMPONENT_ORDER.index(name))
        out.append(rank)
    return np.array(comps, dtype=np.int8), np.array(out, dtype=np.int64)


@given(
    seed=st.integers(0, 1000),
    n=st.integers(1, 90),
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    h_thr=st.integers(1, 10),
    e_extra=st.integers(0, 6),
    placement=st.sampled_from(["cyclic", "stable"]),
)
@settings(max_examples=60, deadline=None)
def test_property_place_arcs_matches_rule_oracle(
    seed, n, rows, cols, h_thr, e_extra, placement
):
    """``place_arcs`` reads each endpoint's pins from per-vertex words;
    it must give every arc, in any order, the rank the placement rules
    give it, on any mesh shape and class mix."""
    src, dst = random_edge_list(n, 4 * n, seed=seed)
    part = partition_graph(
        src, dst, n, ProcessMesh(rows, cols),
        e_threshold=h_thr + e_extra, h_threshold=h_thr, placement=placement,
    )
    a_src, a_dst = random_edge_list(n, 200, seed=seed + 1)
    comp_of, rank = place_arcs(a_src, a_dst, part)
    want_comp, want_rank = rule_placement(a_src, a_dst, part)
    assert comp_of.dtype == np.int8 and rank.dtype == np.int64
    assert comp_of.tolist() == want_comp.tolist()
    assert rank.tolist() == want_rank.tolist()

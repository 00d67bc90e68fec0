"""Fault table for the degraded-run validator.

``validate_partial`` checks a degraded BFS tree with the spec
validator's rules minus full coverage; every broken tree below must be
rejected with ``AssertionError`` (never ``ValueError`` or
``IndexError``), and a complete tree must pass with full coverage.
"""

import numpy as np
import pytest

from repro.graph500.reference import serial_bfs
from repro.graph500.rmat import generate_edges
from repro.graphs.csr import build_csr, symmetrize_edges
from repro.resilience import validate_partial

#: 0-1-2 and 0-3-4-5: two branches from vertex 0.
EDGES = np.array([[0, 1], [1, 2], [0, 3], [3, 4], [4, 5]])
TREE = [0, 0, 1, 0, 3, 4]  # serial BFS from 0
NONE = np.array([], dtype=np.int64)


@pytest.fixture(scope="module")
def graph():
    return build_csr(*symmetrize_edges(EDGES[:, 0], EDGES[:, 1]), 6)


def _tree(changes=None):
    """The BFS tree with ``{vertex: parent}`` overrides."""
    parent = np.array(TREE, dtype=np.int64)
    for v, p in (changes or {}).items():
        parent[v] = p
    return parent


FAULTS = {
    "root-not-its-own-parent": (_tree({0: 1}), NONE),
    "root-excised": (_tree(), np.array([0])),
    "two-cycle": (_tree({1: 2, 2: 1}), NONE),
    "orphan-subtree": (_tree({3: -1}), np.array([3])),
    "out-of-range-parent": (_tree({5: 6}), NONE),
    "tree-edge-missing-from-graph": (_tree({2: 0}), NONE),
    "silent-loss": (_tree({4: -1, 5: -1}), NONE),
}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_fault_rejected(graph, name):
    parent, excised = FAULTS[name]
    with pytest.raises(AssertionError):
        validate_partial(graph, 0, parent, excised)


def test_silent_loss_names_the_lost_vertices(graph):
    parent, excised = FAULTS["silent-loss"]
    with pytest.raises(AssertionError, match="1 non-excised vertices .* never visited"):
        validate_partial(graph, 0, parent, excised)


@pytest.mark.parametrize("changes, excised, counts", [
    # The frontier died at excised vertex 4, so 5 was never reached.
    ({4: -1, 5: -1}, [4], (4, 5, 1, 0)),
    # 4 was reached before its rank died; an excised vertex explains
    # its unreached neighbour whether or not it was reached.
    ({5: -1}, [4], (5, 6, 1, 0)),
])
def test_excised_branch_accepted(graph, changes, excised, counts):
    cov = validate_partial(graph, 0, _tree(changes), np.array(excised))
    assert (cov.reached, cov.reachable, cov.excised, cov.lost) == counts
    assert cov.coverage == pytest.approx(counts[0] / counts[1])


def test_full_tree_accepted():
    # An R-MAT edge list plus a ring, so every vertex is reachable.
    n = 1 << 10
    src, dst = generate_edges(10, seed=3)
    ring = np.arange(n)
    graph = build_csr(*symmetrize_edges(
        np.concatenate([src, ring]), np.concatenate([dst, (ring + 1) % n]),
    ), n)
    root = int(src[0])
    parent = serial_bfs(graph, root)
    cov = validate_partial(graph, root, parent, NONE)
    assert cov.coverage == 1.0
    assert cov.reached == n
    assert cov.excised == 0 and cov.lost == 0

"""Degree statistics for skewed graphs.

Used for three purposes in the reproduction:

1. Figure 2 — the log-binned degree histogram of a Graph500 R-MAT graph,
   showing the characteristic *multi-peak discrete* distribution.
2. Threshold selection (paper §6.2.1) — only thresholds falling *between*
   degree peaks are meaningful, so :func:`degree_peaks` locates the peaks.
3. Load-imbalance quantification — :func:`gini_coefficient` summarizes how
   skewed a per-partition workload is.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "degrees_from_edges",
    "degree_histogram",
    "degree_peaks",
    "gini_coefficient",
]


def degrees_from_edges(
    src: np.ndarray, dst: np.ndarray, num_vertices: int
) -> np.ndarray:
    """Undirected degree of every vertex from an undirected edge list.

    Each edge ``{u, v}`` adds one to both endpoints' degrees.  Self loops are
    excluded (consistent with :func:`repro.graphs.csr.symmetrize_edges`).
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    deg = np.bincount(src, minlength=num_vertices)
    deg += np.bincount(dst, minlength=num_vertices)
    return deg.astype(np.int64)


def degree_histogram(degrees: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact (degree, vertex-count) histogram over nonzero degrees.

    Returns a pair of equal-length arrays ``(unique_degrees, counts)`` sorted
    by degree ascending.  Degree-0 vertices are excluded, matching the
    paper's Figure 2 axes (both log scale, so zero cannot be plotted).
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    nz = degrees[degrees > 0]
    if nz.size == 0:
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    values, counts = np.unique(nz, return_counts=True)
    return values, counts


def degree_peaks(degrees: np.ndarray) -> np.ndarray:
    """Locate the peaks of the log-binned degree distribution.

    Graph500's Kronecker generator yields a degree distribution that is a
    mixture of hypergeometric modes (paper Fig. 2).  The E/H thresholds must
    fall in the valleys between modes; this function finds the mode centers
    so the benchmark harness can derive small-SCALE analogues of the paper's
    threshold grid.

    The histogram has 8 log-spaced bins per decade of degree.  A bin is a
    peak when its log10 count exceeds both neighbors by at least 0.5 *or*
    is a strict local maximum over a 3-bin window.  Returns the peak-center
    degrees, ascending.
    """
    values, counts = degree_histogram(degrees)
    if values.size == 0:
        return np.array([], dtype=np.int64)
    max_deg = float(values.max())
    num_bins = max(int(np.ceil(np.log10(max(max_deg, 10.0)) * 8)), 4)
    edges = np.logspace(0, np.log10(max_deg + 1.0), num_bins + 1)
    bin_counts, _ = np.histogram(
        np.repeat(values, counts).astype(np.float64), bins=edges
    )
    logc = np.log10(bin_counts + 1.0)
    peaks: list[float] = []
    for i in range(len(logc)):
        left = logc[i - 1] if i > 0 else -np.inf
        right = logc[i + 1] if i + 1 < len(logc) else -np.inf
        if logc[i] <= 0:
            continue
        if logc[i] >= left and logc[i] >= right and (
            logc[i] - min(left, right) >= 0.5 or (logc[i] > left and logc[i] > right)
        ):
            peaks.append(float(np.sqrt(edges[i] * edges[i + 1])))
    return np.unique(np.round(peaks).astype(np.int64))


def gini_coefficient(values: np.ndarray) -> float:
    """Gini coefficient of a nonnegative workload vector.

    0 means perfectly balanced, values toward 1 mean concentrated on few
    partitions.  Used by the load-balance analysis around Figure 13.
    """
    v = np.sort(np.asarray(values, dtype=np.float64))
    if v.size == 0:
        return 0.0
    if np.any(v < 0):
        raise ValueError("gini_coefficient requires nonnegative values")
    total = v.sum()
    if total == 0:
        return 0.0
    n = v.size
    # Standard formula: G = (2 * sum(i * v_i) / (n * sum(v))) - (n + 1) / n
    idx = np.arange(1, n + 1, dtype=np.float64)
    return float(2.0 * np.dot(idx, v) / (n * total) - (n + 1.0) / n)

"""Edge-aware vertex-cut load balancing for EH2EH push (paper §5).

In the second or third iteration a small fraction of E/H frontier vertices
carries most of the outgoing edges.  Cutting the frontier into equal
*vertex-count* chunks then leaves some CPEs with most of the edges.  The
paper adopts GraphIt's edge-aware vertex-cut: prefix-sum the frontier
vertices' degrees and cut at equal *accumulated-degree* positions.

:func:`vertex_cut_imbalance` computes the CPE load factor (busiest CPE /
average) under both policies; the engine multiplies the EH2EH push kernel
time by the naive factor when ``edge_aware_balance`` is off, so the
ablation shows exactly the effect §5 describes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["edge_aware_cuts", "vertex_cut_imbalance"]


def edge_aware_cuts(frontier_degrees: np.ndarray, num_workers: int) -> np.ndarray:
    """Cut positions splitting the frontier into equal-degree chunks.

    Returns ``num_workers + 1`` boundaries into the frontier array such
    that each chunk's degree sum is within one vertex's degree of the
    target (the GraphIt prefix-sum construction).
    """
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    frontier_degrees = np.asarray(frontier_degrees, dtype=np.int64)
    if frontier_degrees.size == 0:
        return np.zeros(num_workers + 1, dtype=np.int64)
    return _cuts_from_prefix(_degree_prefix(frontier_degrees), num_workers)


def _degree_prefix(frontier_degrees: np.ndarray) -> np.ndarray:
    """``prefix[i]`` = degree sum of the first ``i`` frontier vertices."""
    prefix = np.empty(frontier_degrees.size + 1, dtype=np.int64)
    prefix[0] = 0
    prefix[1:] = frontier_degrees.cumsum()
    return prefix


@lru_cache(maxsize=None)
def _worker_bounds(num_workers: int) -> tuple[np.ndarray, np.ndarray]:
    """``(arange(W + 1), arange(W + 1) / W)``: the cut indices and the
    cut fractions of ``W`` workers, built once per worker count."""
    index = np.arange(num_workers + 1, dtype=np.int64)
    fractions = np.arange(num_workers + 1, dtype=np.float64) / num_workers
    index.setflags(write=False)
    fractions.setflags(write=False)
    return index, fractions


def _cuts_from_prefix(prefix: np.ndarray, num_workers: int) -> np.ndarray:
    """:func:`edge_aware_cuts` over a non-empty frontier's degree prefix.

    The cuts come out non-decreasing with no further pass: the targets
    are non-decreasing, so their ``searchsorted`` positions are; the
    last target ``fl((W-1)/W) * total`` never exceeds ``total``, so the
    pinned ends keep the order.
    """
    cuts = prefix.searchsorted(_worker_bounds(num_workers)[1] * prefix[-1])
    cuts[0] = 0
    cuts[-1] = prefix.size - 1
    return cuts


def vertex_cut_imbalance(
    frontier_degrees: np.ndarray, num_workers: int, *, edge_aware: bool
) -> float:
    """Load factor (max chunk degree-sum / mean) of a frontier cut.

    ``edge_aware=False`` cuts by vertex count (the naive policy);
    ``edge_aware=True`` cuts by accumulated degree.  Returns 1.0 for an
    empty frontier or a perfectly balanced cut; values above 1 multiply
    the slowest CPE's runtime.
    """
    frontier_degrees = np.asarray(frontier_degrees, dtype=np.int64)
    n = frontier_degrees.size
    if n == 0 or num_workers < 2:
        return 1.0
    prefix = _degree_prefix(frontier_degrees)
    total = int(prefix[-1])
    if total <= 0:
        return 1.0
    if edge_aware:
        cuts = _cuts_from_prefix(prefix, num_workers)
    else:
        cuts = (_worker_bounds(num_workers)[0] * n) // num_workers
    bounds = prefix[cuts]
    mean = total / min(num_workers, n)
    return int((bounds[1:] - bounds[:-1]).max()) / mean

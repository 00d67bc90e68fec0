"""Breakdown assembly for the stacked-share figures (10, 11, 15).

These helpers take per-run dictionaries (from
:class:`~repro.core.metrics.BFSRunResult`) and assemble them into the
series the paper plots: normalized time shares per category across a
scaling sweep, or absolute stacked bars across ablation levels.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["normalize_shares", "stack_series", "ablation_breakdown"]


def normalize_shares(breakdown: Mapping[str, float]) -> dict[str, float]:
    """Scale a category->seconds mapping to fractions summing to 1."""
    total = sum(breakdown.values())
    if total <= 0:
        return {k: 0.0 for k in breakdown}
    return {k: v / total for k, v in breakdown.items()}


def stack_series(
    points: Sequence[tuple[object, Mapping[str, float]]],
) -> tuple[list[object], list[str], dict[str, list[float]]]:
    """Assemble per-point breakdowns into per-category series.

    ``points`` is ``[(x_label, {category: seconds}), ...]`` — e.g. one
    entry per node count in the scaling sweep.  Returns ``(x_labels,
    categories, series)`` where ``series[cat][i]`` is the share of
    ``cat`` at point ``i``; categories are ordered by their
    total contribution, largest first, and missing categories are 0.
    """
    x_labels = [x for x, _ in points]
    totals: dict[str, float] = {}
    for _, bd in points:
        for k, v in bd.items():
            totals[k] = totals.get(k, 0.0) + v
    categories = sorted(totals, key=lambda k: -totals[k])
    series: dict[str, list[float]] = {c: [] for c in categories}
    for _, bd in points:
        row = normalize_shares(bd)
        for c in categories:
            series[c].append(float(row.get(c, 0.0)))
    return x_labels, categories, series


def ablation_breakdown(
    runs: Sequence[tuple[str, Mapping[str, float]]]
) -> tuple[list[str], list[str], dict[str, list[float]]]:
    """Fig. 15-style absolute stacked bars: one bar per ablation level.

    ``runs`` is ``[(level_label, time_by_direction_dict), ...]``.
    Categories keep the figure's canonical order when present.
    """
    canonical = ["EH2EH pull", "others pull", "EH2EH push", "others push", "other"]
    labels = [label for label, _ in runs]
    seen: list[str] = [c for c in canonical if any(c in bd for _, bd in runs)]
    for _, bd in runs:
        for k in bd:
            if k not in seen:
                seen.append(k)
    series = {c: [float(bd.get(c, 0.0)) for _, bd in runs] for c in seen}
    return labels, seen, series

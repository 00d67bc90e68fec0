"""Plain-text rendering of experiment results.

The evaluation harness prints every table and figure as ASCII (and
optionally CSV) so results are inspectable in a terminal and diffable in
CI — no plotting dependency.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence

__all__ = ["ascii_table", "ascii_bar_chart", "format_seconds", "write_csv"]


def format_seconds(seconds: float) -> str:
    """Human-scaled time formatting (s / ms / us / ns)."""
    if seconds < 0:
        raise ValueError("seconds must be nonnegative")
    if seconds == 0:
        return "0 s"
    for unit, factor in (("s", 1.0), ("ms", 1e-3), ("us", 1e-6)):
        if seconds >= factor:
            return f"{seconds / factor:.3g} {unit}"
    return f"{seconds / 1e-9:.3g} ns"


def ascii_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """Render rows as a boxed, column-aligned table."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row length does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "+-" + "-+-".join("-" * w for w in widths) + "-+"
    out = []
    if title:
        out.append(title)
    out.append(sep)
    out.append("| " + " | ".join(h.ljust(w) for h, w in zip(headers, widths)) + " |")
    out.append(sep)
    for row in str_rows:
        out.append(
            "| " + " | ".join(c.rjust(w) for c, w in zip(row, widths)) + " |"
        )
    out.append(sep)
    return "\n".join(out)


#: Characters in the longest bar of an :func:`ascii_bar_chart`.
BAR_WIDTH = 50


def ascii_bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    *,
    title: str | None = None,
    log: bool = False,
    unit: str = "",
) -> str:
    """Horizontal bar chart, the longest bar :data:`BAR_WIDTH` characters;
    ``log=True`` uses log10-scaled bar lengths (Figure 14 spans three
    decades)."""
    import math

    labels = list(labels)
    values = [float(v) for v in values]
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    if any(v < 0 for v in values):
        raise ValueError("bar values must be nonnegative")
    out = []
    if title:
        out.append(title)
    if not values:
        return "\n".join(out + ["(empty)"])
    if log:
        floors = [math.log10(max(v, 1e-12)) for v in values]
        lo = min(floors) - 0.5
        hi = max(max(floors), lo + 1e-9)
        scaled = [(f - lo) / (hi - lo) for f in floors]
    else:
        peak = max(values) or 1.0
        scaled = [v / peak for v in values]
    lw = max(len(x) for x in labels)
    for label, value, s in zip(labels, values, scaled):
        bar = "#" * max(int(round(s * BAR_WIDTH)), 1 if value > 0 else 0)
        out.append(f"{label.rjust(lw)} | {bar} {value:.4g}{unit}")
    return "\n".join(out)


def write_csv(
    path: str | Path, headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> Path:
    """Write rows to CSV; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        for row in rows:
            writer.writerow(list(row))
    return path

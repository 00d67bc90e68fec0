"""Analysis and reporting: turning run metrics into the paper's figures.

- :mod:`repro.analysis.reporting` — ASCII tables, bar charts, and CSV
  writers (the benchmark harness has no plotting dependency).
- :mod:`repro.analysis.breakdown` — stacked time-share series over a
  scaling sweep (Figures 10/11) and ablation bars (Figure 15).
- :mod:`repro.analysis.experiments` — the high-level experiment drivers
  shared by the benchmarks and examples (one function per table/figure).
"""

from repro.analysis.breakdown import (
    ablation_breakdown,
    normalize_shares,
    stack_series,
)
from repro.analysis.reporting import (
    ascii_bar_chart,
    ascii_table,
    format_seconds,
    write_csv,
)
from repro.analysis.timeline import render_timeline

__all__ = [
    "render_timeline",
    "ascii_table",
    "ascii_bar_chart",
    "format_seconds",
    "write_csv",
    "stack_series",
    "normalize_shares",
    "ablation_breakdown",
]

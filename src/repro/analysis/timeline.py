"""Per-iteration timeline diagnostics for a BFS run.

The figures aggregate over whole runs; when *tuning* (thresholds, direction
biases) you want to see where each iteration's time went and which
direction each component chose.  :func:`render_timeline` turns one
:class:`~repro.core.metrics.BFSRunResult` into a compact text matrix:

```
iter  frontier   EH2EH     E2L   ...     L2L   | iteration total
   0         1   push .   push .         push .| 1.2 us
   2    140817   PULL #   push :         PULL #| 8.7 us
```

One cell per (iteration, component): the direction (upper-case when the
component dominated that iteration) and a density glyph for its share of
the iteration's compute+message time.

The seconds come from the traced run's spans and are *exact*: every
ledger charge is a leaf span under its iteration/component span, so
:func:`iteration_component_seconds_from_trace` just sums subtrees.  The
same span tree also reproduces the figure aggregates —
:func:`phase_seconds_from_trace` (Fig. 10) and
:func:`category_seconds_from_trace` (Fig. 11) match the ledger's
``seconds_by_phase`` / ``seconds_by_category`` groupings.
"""

from __future__ import annotations

from collections import defaultdict

from repro.analysis.reporting import format_seconds
from repro.core.metrics import BFSRunResult
from repro.core.subgraphs import COMPONENT_ORDER

__all__ = [
    "iteration_component_seconds_from_trace",
    "phase_seconds_from_trace",
    "category_seconds_from_trace",
    "render_timeline",
]

#: Leaf-span categories emitted by ledger charges.
_LEAF_CATEGORIES = ("collective", "kernel")

_GLYPHS = " .:=#"


def _ledger_leaves(tracer):
    """Ledger-charge leaf spans, each with its ancestor chain resolved."""
    by_sid = {sp.sid: sp for sp in tracer.spans}
    for sp in tracer.spans:
        if sp.category not in _LEAF_CATEGORIES or not sp.closed:
            continue
        ancestors = []
        cursor = sp
        while cursor.parent is not None:
            cursor = by_sid[cursor.parent]
            ancestors.append(cursor)
        yield sp, ancestors


def phase_seconds_from_trace(tracer) -> dict[str, float]:
    """Fig. 10 grouping from spans: phase tag -> simulated seconds.

    Sums every ledger-charge leaf by its ``phase`` attr; equals the
    ledger's :meth:`~repro.runtime.ledger.TrafficLedger.seconds_by_phase`
    for the traced run(s).
    """
    acc: dict[str, float] = defaultdict(float)
    for sp, _ in _ledger_leaves(tracer):
        phase = sp.attrs.get("phase")
        if phase is not None:
            acc[phase] += sp.sim_seconds
    return dict(acc)


def category_seconds_from_trace(tracer) -> dict[str, float]:
    """Fig. 11 grouping from spans: compute / imbalance / collective kind.

    Mirrors :meth:`~repro.runtime.ledger.TrafficLedger.seconds_by_category`:
    kernel leaves split into pure compute and their recorded imbalance;
    collective leaves group by their ``kind`` attr.
    """
    out: dict[str, float] = {"compute": 0.0, "imbalance/latency": 0.0}
    for sp, _ in _ledger_leaves(tracer):
        if sp.category == "kernel":
            imbalance = sp.counters.get("imbalance_seconds", 0.0)
            out["compute"] += sp.sim_seconds - imbalance
            out["imbalance/latency"] += imbalance
        else:
            kind = sp.attrs.get("kind", "collective")
            out[kind] = out.get(kind, 0.0) + sp.sim_seconds
    return out


def iteration_component_seconds_from_trace(tracer) -> list[dict[str, float]]:
    """Exact per-iteration component seconds from a traced run's spans.

    Each ledger-charge leaf is assigned to the component span it executed
    under (or, for delegate syncs and reductions, to its phase bucket
    within the enclosing iteration).  End-of-run charges outside any
    iteration — the §5 delayed parent reduction — land on the last
    iteration.  When the tracer holds several BFS runs, iterations
    concatenate in run order.
    """
    iteration_index: dict[int, int] = {}  # iteration span sid -> row
    rows: list[dict[str, float]] = []
    for sp in tracer.spans:
        if sp.category == "iteration":
            iteration_index[sp.sid] = len(rows)
            rows.append(defaultdict(float))
    if not rows:
        return []
    for sp, ancestors in _ledger_leaves(tracer):
        component = next(
            (a.name for a in ancestors if a.category == "component"), None
        )
        iter_sid = next(
            (a.sid for a in ancestors if a.category == "iteration"), None
        )
        key = component or sp.attrs.get("phase", "other")
        if iter_sid is not None:
            rows[iteration_index[iter_sid]][key] += sp.sim_seconds
        else:
            rows[-1][key] += sp.sim_seconds  # delayed reduction et al.
    return [dict(row) for row in rows]


def render_timeline(result: BFSRunResult, tracer) -> str:
    """Text matrix: iterations x components with direction + time share.

    ``tracer`` is the :class:`~repro.obs.tracer.Tracer` the run was
    traced with; cell times are exact span sums.  Rows are matched to
    the result by iteration index, so an iteration replayed after an
    injected crash supersedes its abandoned first attempt.
    """
    indices = [
        sp.attrs["index"] for sp in tracer.spans if sp.category == "iteration"
    ]
    latest = dict(zip(indices, iteration_component_seconds_from_trace(tracer)))
    header = (
        "iter  frontier  "
        + "  ".join(f"{name:>7s}" for name in COMPONENT_ORDER)
        + "  | iteration total"
    )
    out = [header, "-" * len(header)]
    for rec in result.iterations:
        row = latest[rec.index]
        total = sum(row.values()) or 1e-30
        cells = []
        for name in COMPONENT_ORDER:
            seconds = row.get(name, 0.0)
            share = seconds / total
            glyph = _GLYPHS[min(int(share * len(_GLYPHS)), len(_GLYPHS) - 1)]
            direction = rec.directions.get(name, "-")
            label = {"push": "push", "pull": "pull", "-": "  - "}[direction]
            if share >= 0.5:
                label = label.upper()
            cells.append(f"{label} {glyph}")
        out.append(
            f"{rec.index:4d}  {rec.frontier_size:8d}  "
            + "  ".join(f"{c:>7s}" for c in cells)
            + f"  | {format_seconds(total)}"
        )
    return "\n".join(out)

"""Trace exporters: Chrome ``trace_event`` JSON and flame text.

Two views of one :class:`~repro.obs.tracer.Tracer`:

- :func:`to_chrome_trace` / :func:`write_chrome_trace` — the Chrome
  ``trace_event`` JSON format (the "JSON Array with metadata" variant),
  loadable in ``chrome://tracing`` or https://ui.perfetto.dev.  Spans
  become complete (``"ph": "X"``) events; by default timestamps are the
  *simulated* clock, so the rendered timeline is the modeled machine's —
  the per-iteration structure behind the paper's Fig. 10/11 breakdowns —
  not the simulator's own wall time (pass ``clock="wall"`` for that).
- :func:`render_flame` — a flame-graph-style text summary aggregated by
  span name path, inclusive simulated seconds, counts, and counters.

Every file artifact the package writes (RunReports, traces, metric
exports, benchmark JSON) goes through :func:`write_artifact`, which
raises :class:`ArtifactError` naming the path when the write fails.

All exporters skip still-open spans (a trace is normally exported after
the traced run returns, when every span is closed).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.obs.tracer import Span, Tracer

__all__ = [
    "ArtifactError",
    "write_artifact",
    "write_json",
    "build_track_table",
    "to_chrome_trace",
    "write_chrome_trace",
    "render_flame",
]


class ArtifactError(OSError):
    """A file artifact that could not be written; the message names its
    path and the reason."""


def write_artifact(path, text: str) -> Path:
    """Write ``text`` to ``path``, creating missing parent directories;
    returns the path.  Raises :class:`ArtifactError` on failure."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise ArtifactError(
            f"cannot write {path}: {exc.strerror or exc}"
        ) from exc
    return path


def write_json(path, doc) -> Path:
    """:func:`write_artifact` of ``doc`` as indented, key-sorted JSON."""
    return write_artifact(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _closed_spans(tracer: "Tracer") -> list["Span"]:
    return [sp for sp in tracer.spans if sp.closed]


def _span_path(tracer: "Tracer") -> dict[int, str]:
    """sid -> '/'-joined name path from the root (names, not indices)."""
    by_sid = {sp.sid: sp for sp in tracer.spans}
    paths: dict[int, str] = {}
    for sp in tracer.spans:
        if sp.parent is None or sp.parent not in paths:
            paths[sp.sid] = sp.name
        else:
            paths[sp.sid] = f"{paths[sp.parent]}/{sp.name}"
    del by_sid
    return paths


# ----------------------------------------------------------------------
# Chrome trace_event JSON
# ----------------------------------------------------------------------


#: Track groups (Chrome ``pid``) in fixed order: the main process, one
#: lane per mesh rank, one lane per served request.  A span lands in the
#: most specific group its attrs name.
_TRACK_GROUPS = ("main", "rank", "request")


def _track_key(span: "Span") -> tuple[str, object]:
    """(group, lane value) a span renders on, from its attrs."""
    attrs = span.attrs
    if "rank" in attrs:
        return ("rank", attrs["rank"])
    if "trace_id" in attrs:
        return ("request", attrs["trace_id"])
    return ("main", 0)


def _lane_sort_key(value) -> tuple:
    """Numeric lanes in numeric order, everything else lexicographic."""
    try:
        return (0, float(value), "")
    except (TypeError, ValueError):
        return (1, 0.0, str(value))


def build_track_table(spans) -> dict[tuple[str, object], tuple[int, int]]:
    """Deterministic (group, lane) -> (pid, tid) assignment.

    The table depends only on the *set* of tracks present — lanes are
    sorted within their group — so the same run always renders on the
    same tracks regardless of completion order.
    """
    lanes: dict[str, set] = {g: set() for g in _TRACK_GROUPS}
    for sp in spans:
        group, lane = _track_key(sp)
        lanes[group].add(lane)
    table: dict[tuple[str, object], tuple[int, int]] = {}
    for pid, group in enumerate(_TRACK_GROUPS):
        for tid, lane in enumerate(sorted(lanes[group], key=_lane_sort_key)):
            table[(group, lane)] = (pid, tid)
    return table


def _track_metadata_events(table) -> list[dict]:
    """Chrome ``M``-phase events naming every pid/tid the table uses."""
    events = []
    named_pids = set()
    for (group, lane), (pid, tid) in sorted(
        table.items(), key=lambda kv: kv[1]
    ):
        if pid not in named_pids:
            named_pids.add(pid)
            label = "repro" if group == "main" else f"{group}s"
            events.append(
                {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                 "args": {"name": label}}
            )
        label = "main" if group == "main" else f"{group} {lane}"
        events.append(
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
             "args": {"name": label}}
        )
    return events


def to_chrome_trace(tracer: "Tracer", *, clock: str = "sim") -> dict:
    """Render the span tree as a Chrome ``trace_event`` document.

    ``clock="sim"`` (default) places events on the simulated timeline;
    ``clock="wall"`` uses host wall time relative to the first span.
    Timestamps are microseconds, as the format requires.  Every event
    carries its attrs and counters in ``args`` (plus the other clock's
    duration), so nothing recorded is lost in export.

    Tracks: spans tagged with a ``rank``/``trace_id`` attr render on
    their own lane (one Chrome thread per rank or request) via
    :func:`build_track_table`, so concurrent work shows side by side
    instead of stacked on one row.  Untagged spans stay on the main
    track.
    """
    if clock not in ("sim", "wall"):
        raise ValueError(f"clock must be 'sim' or 'wall', got {clock!r}")
    spans = _closed_spans(tracer)
    table = build_track_table(spans)
    events = _track_metadata_events(table)
    wall0 = min((sp.wall_start for sp in spans), default=0.0)
    for sp in spans:
        if clock == "sim":
            ts, dur = sp.sim_start * 1e6, sp.sim_seconds * 1e6
            other = {"wall_us": round(sp.wall_seconds * 1e6, 3)}
        else:
            ts = (sp.wall_start - wall0) * 1e6
            dur = sp.wall_seconds * 1e6
            other = {"sim_us": round(sp.sim_seconds * 1e6, 6)}
        args = {**sp.attrs, **sp.counters, **other}
        pid, tid = table[_track_key(sp)]
        events.append(
            {
                "name": sp.name,
                "cat": sp.category,
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": round(ts, 6),
                "dur": round(dur, 6),
                "args": args,
            }
        )
    tracks = {
        f"{pid}/{tid}": ("main" if group == "main" else f"{group} {lane}")
        for (group, lane), (pid, tid) in table.items()
    }
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "clock": clock,
            "tracks": tracks,
        },
    }


def write_chrome_trace(tracer: "Tracer", path, *, clock: str = "sim") -> int:
    """Write the Chrome trace JSON to ``path``; returns the span count
    (track-naming metadata events are not counted)."""
    doc = to_chrome_trace(tracer, clock=clock)
    write_artifact(path, json.dumps(doc))
    return sum(1 for ev in doc["traceEvents"] if ev["ph"] == "X")


# ----------------------------------------------------------------------
# flame-style text summary
# ----------------------------------------------------------------------


def _fmt_seconds(seconds: float) -> str:
    for unit, factor in (("s", 1.0), ("ms", 1e-3), ("us", 1e-6)):
        if seconds >= factor:
            return f"{seconds / factor:.2f} {unit}"
    return f"{seconds / 1e-9:.1f} ns"


def render_flame(tracer: "Tracer", *, min_share: float = 0.0) -> str:
    """Flame-style text tree: inclusive simulated seconds by name path.

    Repeated spans with the same path (all iterations, all components of
    one kind) fold into one row with a count.  ``min_share`` hides rows
    below that fraction of the total simulated time.
    """
    spans = _closed_spans(tracer)
    if not spans:
        return "(no spans recorded)"
    paths = _span_path(tracer)
    agg: dict[str, dict] = {}
    for sp in spans:
        row = agg.setdefault(
            paths[sp.sid],
            {"count": 0, "sim": 0.0, "wall": 0.0, "depth": sp.depth},
        )
        row["count"] += 1
        row["sim"] += sp.sim_seconds
        row["wall"] += sp.wall_seconds
    total = sum(r["sim"] for p, r in agg.items() if r["depth"] == 0) or 1e-30
    width = max(len("span"), max(2 * r["depth"] + len(p.rsplit("/", 1)[-1]) for p, r in agg.items()))
    out = [
        f"{'span':<{width}}  {'count':>6}  {'sim time':>10}  {'share':>6}  {'wall':>10}",
        "-" * (width + 40),
    ]
    for path in sorted(agg):  # depth-first: paths sort under their parents
        row = agg[path]
        share = row["sim"] / total
        if share < min_share and row["depth"] > 0:
            continue
        label = "  " * row["depth"] + path.rsplit("/", 1)[-1]
        out.append(
            f"{label:<{width}}  {row['count']:>6}  {_fmt_seconds(row['sim']):>10}"
            f"  {100 * share:>5.1f}%  {_fmt_seconds(row['wall']):>10}"
        )
    return "\n".join(out)

"""In-memory span recorder for the traced benchmark run.

A span is ``[name, start, end, parent, trace_id]``: ``parent`` is the
index of the span that was open on the same thread when this one began
(-1 for a root), ``trace_id`` names the traversal or request batch the
span belongs to (``bfs-N``, ``batch-N``) and is inherited from the parent
unless given.  Spans stay in memory; :meth:`SpanRecorder.write` dumps
them when the run ends.

Exact work counts are kept beside the spans (``counts``), incremented
at the same boundaries, so ratios such as pull hits per scanned arc are
measured where the work happens.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import nullcontext

__all__ = ["SpanRecorder", "maybe_span"]

NAME, START, END, PARENT, TRACE = range(5)


class _OpenSpan:
    __slots__ = ("rec", "row", "index")

    def __init__(self, rec: "SpanRecorder", name: str, trace_id) -> None:
        self.rec = rec
        self.row = [name, 0.0, 0.0, -1, trace_id]

    def __enter__(self) -> "_OpenSpan":
        rec, row = self.rec, self.row
        stack = rec._stack()
        if stack:
            row[PARENT] = stack[-1]
            if row[TRACE] is None:
                row[TRACE] = rec.spans[stack[-1]][TRACE]
        with rec._lock:
            self.index = len(rec.spans)
            rec.spans.append(row)
        stack.append(self.index)
        row[START] = rec.clock()
        return self

    def __exit__(self, *exc) -> None:
        self.row[END] = self.rec.clock()
        self.rec._stack().pop()


class SpanRecorder:
    """Collects spans and counts from every thread of one benchmark run."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, trace_id=None) -> _OpenSpan:
        return _OpenSpan(self, name, trace_id)

    # -- aggregates ------------------------------------------------------

    def aggregate(self) -> dict[str, dict]:
        """Per span name: ``calls``, ``total`` seconds and ``self``
        seconds (duration minus the part its child spans cover)."""
        child_time = defaultdict(float)
        for row in self.spans:
            if row[PARENT] >= 0:
                child_time[row[PARENT]] += row[END] - row[START]
        out: dict[str, dict] = {}
        for index, row in enumerate(self.spans):
            agg = out.setdefault(row[NAME], {"calls": 0, "total": 0.0, "self": 0.0})
            duration = row[END] - row[START]
            agg["calls"] += 1
            agg["total"] += duration
            agg["self"] += duration - child_time.get(index, 0.0)
        return out

    def durations(self, name: str) -> list[float]:
        return [r[END] - r[START] for r in self.spans if r[NAME] == name]

    def write(self, path, *, limit: int = 20000, **header) -> None:
        """Dump the first ``limit`` spans (the aggregates cover all of
        them; a ring traversal alone records tens of thousands)."""
        doc = {
            **header,
            "fields": ["name", "start", "end", "parent", "trace_id"],
            "recorded": len(self.spans),
            "written": min(limit, len(self.spans)),
            "counts": dict(self.counts),
            "spans": self.spans[:limit],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh)


def maybe_span(rec: SpanRecorder | None, name: str, trace_id=None):
    """``rec.span(...)`` when tracing, a no-op context otherwise."""
    return rec.span(name, trace_id) if rec is not None else nullcontext()

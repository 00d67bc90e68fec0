"""Timing seams: how the traced run sees inside each layer without
editing ``src/``.

Every class here wraps calls into a layer's *public* functions in
spans of one :class:`~spans.SpanRecorder`:

- :class:`TimingBackend` mirrors ``_FifteenDKernel.execute*`` — public
  body call, then public ``commit_*`` — with a span around each half;
- :class:`TimingLedger` spans every ``charge_*`` (the children that
  make a commit's *self* time exclude ledger pricing);
- :class:`TracedBFS` / :class:`TracedMSBFS` override the
  ``SchedulerHost`` hooks and span the whole traversal, whose self time
  is the scheduler's level loop;
- :class:`TimingCache` and :class:`TracedIncrementalGraph` are the
  serving seams passed through ``cache=`` and ``dynamic=``
  (:class:`SnapshotGraph`, its base, is a guard, not a timer).

Replacing these with spans inside the program is a later issue.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.engine import DistributedBFS
from repro.dynamic.repair import IncrementalGraph
from repro.obs.metrics import NULL_METRICS
from repro.runtime.backends.base import ExecutionBackend
from repro.runtime.ledger import TrafficLedger
from repro.serve.cache import ResultCache
from repro.serve.msbfs import MultiSourceBFS

__all__ = [
    "TimingBackend",
    "TimingLedger",
    "TracedBFS",
    "TracedMSBFS",
    "TimingCache",
    "SnapshotGraph",
    "TracedIncrementalGraph",
]


class TimingBackend(ExecutionBackend):
    """In-process backend that times body and commit separately."""

    name = "timing"

    def __init__(self, rec) -> None:
        self.rec = rec

    def execute(self, kernel, direction, active, visited, ledger, record):
        rec, name = self.rec, kernel.name
        if direction == "push":
            comp = kernel.body_spec().component
            with rec.span(f"subgraphs.{name}.push_body"):
                sel = comp.push_select(active)
            rec.counts[f"subgraphs.{name}.push_arcs"] += sel.num_arcs
            with rec.span(f"kernels.{name}.push_commit"):
                return kernel.commit_push(sel, active, visited, ledger, record)
        with rec.span(f"subgraphs.{name}.pull_body"):
            body = kernel.pull_body(active, visited)
        self._count_pull(kernel, body)
        with rec.span(f"kernels.{name}.pull_commit"):
            return kernel.commit_pull(body, active, visited, ledger, record)

    def execute_lanes(self, kernel, direction, group_lanes, lanes, ledger, record):
        rec, name = self.rec, kernel.name
        if direction == "push":
            comp = kernel.body_spec().component
            with rec.span(f"subgraphs.{name}.push_body"):
                sel = comp.push_select(
                    (lanes.active & np.uint64(group_lanes)) != 0
                )
            rec.counts[f"subgraphs.{name}.push_arcs"] += sel.num_arcs
            with rec.span(f"kernels.{name}.push_commit"):
                return kernel.commit_push_lanes(
                    sel, group_lanes, lanes, ledger, record
                )
        with rec.span(f"subgraphs.{name}.pull_body"):
            body = kernel.lanes_pull_body(group_lanes, lanes)
        self._count_pull(kernel, body)
        with rec.span(f"kernels.{name}.pull_commit"):
            return kernel.commit_pull_lanes(
                body, group_lanes, lanes, ledger, record
            )

    def execute_program(self, kernel, program, direction, active, ledger, record):
        return kernel.execute_program(program, direction, active, ledger, record)

    def _count_pull(self, kernel, body) -> None:
        counts, name = self.rec.counts, kernel.name
        if kernel.body_spec().pull_kind == "query":
            # L2L's query/reply pull has no early exit: every arc of an
            # unvisited source is scanned, hits are found in the commit.
            counts[f"subgraphs.{name}.pull_arcs"] += body.num_arcs
            return
        counts[f"subgraphs.{name}.pull_arcs"] += body.scanned_arcs
        counts["subgraphs.scan_arcs"] += body.scanned_arcs
        # A lane scan is shared: count a destination hit once, however
        # many lanes it answers (its hit messages are exactly that).
        counts["subgraphs.scan_hits"] += (
            body.num_hits if hasattr(body, "num_hits") else body.num_messages
        )


@dataclass
class TimingLedger(TrafficLedger):
    """A ledger whose charges are spans (and counted)."""

    rec: object = None

    def charge_collective(self, *args, **kwargs):
        self.rec.counts["ledger.charges"] += 1
        with self.rec.span("ledger.charge"):
            return super().charge_collective(*args, **kwargs)

    def charge_compute(self, *args, **kwargs):
        self.rec.counts["ledger.charges"] += 1
        with self.rec.span("ledger.charge"):
            return super().charge_compute(*args, **kwargs)


class _TracedHost:
    """``SchedulerHost`` hook overrides shared by both traced engines."""

    rec = None

    def make_ledger(self, tracer, metrics=NULL_METRICS):
        return TimingLedger(
            self.cost, tracer=tracer, metrics=metrics, rec=self.rec
        )

    def _count_level(self, record) -> None:
        counts = self.rec.counts
        counts["kernels.scheduler.levels"] += 1
        for direction in record.directions.values():
            if direction == "-":
                counts["kernels.scheduler.skips"] += 1
                continue
            # A batched wave may run both directions ("push|pull").
            for part in direction.split("|"):
                counts["kernels.scheduler.subiterations"] += 1
                counts[f"direction.{part}"] += 1


class TracedBFS(_TracedHost, DistributedBFS):
    """``DistributedBFS`` with spans around its scheduler hooks."""

    def __init__(self, part, rec, **kwargs) -> None:
        self.rec = rec
        self.traversals = 0
        super().__init__(part, backend=TimingBackend(rec), **kwargs)

    def run(self, root, **resilience):
        self.traversals += 1
        with self.rec.span("kernels.scheduler", trace_id=f"bfs-{self.traversals}"):
            return super().run(root, **resilience)

    def begin_iteration(self, ledger, active, visited):
        with self.rec.span("kernels.delegate_sync"):
            super().begin_iteration(ledger, active, visited)

    def component_direction(self, name, active, visited):
        with self.rec.span("direction.measure"):
            return super().component_direction(name, active, visited)

    def record_activation(self, record, next_active):
        self._count_level(record)
        super().record_activation(record, next_active)

    def end_run(self, ledger, tracer, parent):
        with self.rec.span("kernels.parent_reduction"):
            super().end_run(ledger, tracer, parent)


class TracedMSBFS(_TracedHost, MultiSourceBFS):
    """``MultiSourceBFS`` with spans around its batched hooks."""

    def __init__(self, part, rec, **kwargs) -> None:
        self.rec = rec
        self.batches = 0
        super().__init__(part, backend=TimingBackend(rec), **kwargs)

    def run_batch(self, roots, **kwargs):
        self.batches += 1
        with self.rec.span("msbfs.run_batch", trace_id=f"batch-{self.batches}"):
            result = super().run_batch(roots, **kwargs)
        self.rec.counts["msbfs.waves"] += result.num_waves
        self.rec.counts["msbfs.lanes"] += result.num_lanes
        return result

    def begin_batch_iteration(self, ledger, lanes):
        with self.rec.span("kernels.delegate_sync"):
            super().begin_batch_iteration(ledger, lanes)

    def batch_component_directions(self, name, lanes):
        with self.rec.span("direction.measure"):
            return super().batch_component_directions(name, lanes)

    def record_batch_activation(self, record, newly):
        self._count_level(record)
        super().record_batch_activation(record, newly)

    def end_batch_run(self, ledger, tracer, lanes):
        with self.rec.span("kernels.parent_reduction"):
            super().end_batch_run(ledger, tracer, lanes)


class TimingCache(ResultCache):
    """``ResultCache`` whose reads and writes are spans."""

    def __init__(self, rec, **kwargs) -> None:
        super().__init__(**kwargs)
        self.rec = rec

    def get(self, fingerprint, root):
        with self.rec.span("cache.get"):
            return super().get(fingerprint, root)

    def put(self, fingerprint, root, parent, touched=None):
        with self.rec.span("cache.put"):
            super().put(fingerprint, root, parent, touched)


class SnapshotGraph(IncrementalGraph):
    """``IncrementalGraph`` whose :meth:`graph` hands out a snapshot.

    Not a timing seam but a guard.  ``apply_batch`` rewrites the vertex
    metadata and the component table of the one ``PartitionedGraph`` it
    owns, and ``TraversalService.ingest_updates`` builds each serving
    engine over that same object — so a query batch in flight during the
    next repair reads half-updated state (``eh_col`` turns -1 under it,
    ``np.bincount`` raises, the flusher task dies and every queued
    request waits for ever).  ``apply_batch`` replaces arrays, it does
    not write into them, so a shallow copy per generation is enough to
    keep a served generation frozen.  The defect is the program's to fix.
    """

    def graph(self):
        part = super().graph()
        return replace(part, components=dict(part.components))


class TracedIncrementalGraph(SnapshotGraph):
    """``SnapshotGraph`` with spans around repair and compaction."""

    def __init__(self, *args, rec, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.rec = rec

    def apply_batch(self, batch):
        with self.rec.span("dynamic.apply_batch"):
            report = super().apply_batch(batch)
        self.rec.counts["dynamic.arcs_moved"] += report.num_arcs_moved
        return report

    def graph(self):
        # graph() compacts pending overlays; with one batch per ingest
        # call every compaction happens here.
        with self.rec.span("dynamic.compact"):
            return super().graph()

"""The three traversal workloads: ``bfs_rmat16``, ``bfs_ring16`` and
``msbfs_rmat16``.

Each measures whole passes over a seeded root list until the run time
is used up.  The first pass is also the checked one: its parents go
through the Graph500 validator (single source) or are compared lane by
lane with sequential runs (multi source), and its run records and exact
work counts are what two runs of one seed must agree on.

In a traced run an untraced and a traced engine over the same partition
take alternate passes, so the tracing overhead is an interleaved
comparison and the tail and amortisation figures still come from
untraced passes.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.core.engine import DistributedBFS
from repro.graph500.driver import sample_roots
from repro.graphs.generators import ring_lattice_edges
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.serve.msbfs import MultiSourceBFS

from harness import (
    CONFIG,
    build_partition,
    graph500_failures,
    make_mesh,
    percentile,
    rmat_edges,
    summarize,
)
from seams import TracedBFS, TracedMSBFS
from spans import maybe_span

__all__ = ["Workload", "BfsRmat", "BfsRing", "MsbfsRmat"]

pc = time.perf_counter


class Workload:
    """One seeded set of inputs plus how to run and check it."""

    name = ""

    def __init__(self, seed: int, sizes, seconds: float, rec=None) -> None:
        self.seed = seed
        self.sizes = sizes
        #: How long :meth:`measure` will run (sizes the request streams).
        self.seconds = seconds
        self.rec = rec
        self.attempted = 0
        self.failed = 0
        #: Exact work counts of the first traced pass.
        self.first_pass_counts: dict = {}

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self) -> None:
        raise NotImplementedError

    def check(self) -> None:
        """Output checks that need not run inside the timed region."""

    def end_to_end(self) -> dict:
        """``throughput_per_s`` and ``latency_ms_p50`` of this workload."""
        raise NotImplementedError

    def detail(self) -> dict:
        """Sample counts, quartiles and workload-specific figures."""
        return {}

    def layer_metrics(self) -> dict:
        """Per-layer values only this workload can compute."""
        return {}

    def traversal_spans(self) -> int:
        """How many traced traversals the per-traversal layer times are
        averaged over."""
        return 0


def run_record(result) -> dict:
    return {
        "root": int(result.root),
        "iterations": result.num_iterations,
        "visited": result.num_visited,
        "total_seconds": result.total_seconds,
        "total_bytes": result.ledger.total_bytes,
    }


def best_pass(passes: list[list[float]]) -> list[float]:
    """The samples of the pass that took least time in all.

    Every pass repeats the same work, and what the host adds to it —
    this one drifts between speed regimes for seconds at a time — only
    ever makes it slower, so the fastest repeat is the steadiest estimate
    of the program's own cost: across runs it spreads a third as much as
    the mean or the median over all passes.  The detail record still has
    every sample's quartiles.
    """
    return min(passes, key=sum)


def flat(passes: list[list[float]]) -> list[float]:
    return [sample for one in passes for sample in one]


# ----------------------------------------------------------------------
# single source
# ----------------------------------------------------------------------


class _SingleSource(Workload):
    #: Parents of this many first-pass roots go through the validator
    #: (a full Graph500 validation costs ~0.1 s per parent at scale 16).
    validated_roots = 8
    warmup_roots = 4

    def make_edges(self, rec):
        raise NotImplementedError

    def pick_roots(self) -> np.ndarray:
        raise NotImplementedError

    def setup(self) -> None:
        rec = self.rec
        self.src, self.dst, self.num_vertices = self.make_edges(rec)
        self.machine, mesh = make_mesh(self.sizes.mesh)
        self.part = build_partition(
            self.src, self.dst, self.num_vertices, mesh, rec
        )
        with maybe_span(rec, "partition.engine_build"):
            self.engine = DistributedBFS(
                self.part, machine=self.machine, config=CONFIG
            )
            self.traced = (
                TracedBFS(self.part, rec, machine=self.machine, config=CONFIG)
                if rec is not None
                else None
            )
        self.roots = self.pick_roots()
        for root in self.roots[: self.warmup_roots]:
            self.engine.run(int(root))
        #: Traversal seconds, one list per pass over the roots.
        self.passes: list[list[float]] = []
        self.traced_passes: list[list[float]] = []
        self.first_pass: list = []
        self.levels = 0

    def _pass(self, engine, passes, keep: list | None) -> None:
        samples = []
        for root in self.roots:
            t0 = pc()
            result = engine.run(int(root))
            samples.append(pc() - t0)
            if keep is not None:
                keep.append(result)
        passes.append(samples)

    def measure(self) -> None:
        deadline = pc() + self.seconds
        first = True
        while first or pc() < deadline:
            keep = self.first_pass if first else None
            if self.traced is None:
                self._pass(self.engine, self.passes, keep)
            else:
                self._pass(self.engine, self.passes, None)
                self._pass(self.traced, self.traced_passes, keep)
                if first:
                    self.first_pass_counts = dict(self.rec.counts)
            first = False
        self.attempted = len(self.roots) * (
            len(self.passes) + len(self.traced_passes)
        )

    def check(self) -> None:
        keep = self.first_pass[: self.validated_roots]
        self.failed += graph500_failures(
            self.src, self.dst, self.num_vertices,
            {r.root: r.parent for r in keep}, self.rec,
        )
        self.levels = sum(r.num_iterations for r in self.first_pass)
        self.records = [run_record(r) for r in self.first_pass]
        self.sim_seconds = sum(r.total_seconds for r in self.first_pass)
        self.sim_bytes = sum(r.ledger.total_bytes for r in self.first_pass)

    def work_per_traversal(self) -> float:
        raise NotImplementedError

    def end_to_end(self) -> dict:
        best = best_pass(self.passes)
        return {
            "throughput_per_s": self.work_per_traversal() / statistics.fmean(best),
            "latency_ms_p50": statistics.median(best) * 1e3,
        }

    def detail(self) -> dict:
        return {
            "traversal_s": summarize(flat(self.passes)),
            "traced_traversal_s": summarize(flat(self.traced_passes)),
            "pass_s": summarize(sum(one) for one in self.passes),
            "roots_per_pass": len(self.roots),
            "input_edges": self.engine.num_input_edges,
            "levels_first_pass": self.levels,
            "validated_parents": min(self.validated_roots, len(self.first_pass)),
            "run_records": self.records,
        }

    def traversal_spans(self) -> int:
        return len(self.roots) * len(self.traced_passes)

    def layer_metrics(self) -> dict:
        return {
            "ledger.sim_seconds": self.sim_seconds,
            "ledger.sim_bytes": self.sim_bytes,
            "trace.overhead_frac": sum(best_pass(self.traced_passes))
            / sum(best_pass(self.passes)) - 1.0,
        }


class BfsRmat(_SingleSource):
    """Graph500 kernel 2 on R-MAT; direction optimisation fires, so the
    pull/push bodies do most of the work."""

    name = "bfs_rmat16"

    def make_edges(self, rec):
        scale = self.sizes.bfs_scale
        src, dst = rmat_edges(scale, rec)
        return src, dst, 1 << scale

    def pick_roots(self):
        return sample_roots(
            self.part.degrees, self.sizes.roots_per_pass, rng=self.rng(1)
        )

    def work_per_traversal(self) -> float:
        # Harmonic-mean TEPS of a pass: input edges / mean seconds.
        return float(self.engine.num_input_edges)

    def layer_metrics(self) -> dict:
        out = super().layer_metrics()
        out["traversal_ms_p90"] = percentile(flat(self.passes), 90) * 1e3
        out["obs.on_overhead_frac"] = self._obs_subpass()
        return out

    def _obs_subpass(self) -> float:
        """The repo's own Tracer + MetricsRegistry attached vs null
        sinks, interleaved best-of-3 on an 8-root sub-pass."""
        roots = [int(r) for r in self.roots[:8]]
        observed = DistributedBFS(
            self.part, machine=self.machine, config=CONFIG,
            tracer=Tracer(), metrics=MetricsRegistry(),
        )
        return interleaved_overhead(
            lambda: [self.engine.run(r) for r in roots],
            lambda: [observed.run(r) for r in roots],
        )


def interleaved_overhead(plain, observed, repeats: int = 3) -> float:
    best_plain = best_observed = float("inf")
    for _ in range(repeats):
        t0 = pc()
        plain()
        best_plain = min(best_plain, pc() - t0)
        t0 = pc()
        observed()
        best_observed = min(best_observed, pc() - t0)
    return best_observed / best_plain - 1.0


class BfsRing(_SingleSource):
    """A ring lattice: thousands of levels with tiny frontiers, so the
    level loop, host hooks and ledger charging dominate and the kernel
    bodies do almost nothing."""

    name = "bfs_ring16"
    validated_roots = 1
    # A traversal is ~4k levels; the first one is its own warm-up.
    warmup_roots = 0

    def make_edges(self, rec):
        n = 1 << self.sizes.ring_log2
        with maybe_span(rec, "graph500.generate"):
            src, dst = ring_lattice_edges(n, neighbors=8)
        return src, dst, n

    def pick_roots(self):
        # The ring is vertex-transitive: one seeded root per pass.
        return self.rng(1).integers(0, self.num_vertices, size=1)

    def work_per_traversal(self) -> float:
        # Levels per second.
        return self.levels / len(self.first_pass)


# ----------------------------------------------------------------------
# multi source
# ----------------------------------------------------------------------


class MsbfsRmat(Workload):
    """64-lane ``run_batch`` beside the same roots run sequentially: the
    six kernels through their lane variants, and the host-clock
    amortisation ratio."""

    name = "msbfs_rmat16"

    def setup(self) -> None:
        rec = self.rec
        scale = self.sizes.bfs_scale
        self.src, self.dst = rmat_edges(scale, rec)
        self.machine, mesh = make_mesh(self.sizes.mesh)
        self.part = build_partition(self.src, self.dst, 1 << scale, mesh, rec)
        kwargs = dict(machine=self.machine, config=CONFIG)
        with maybe_span(rec, "partition.engine_build"):
            self.sequential = DistributedBFS(self.part, **kwargs)
            self.batched = MultiSourceBFS(self.part, **kwargs)
            self.traced = (
                TracedMSBFS(self.part, rec, **kwargs) if rec is not None else None
            )
        self.roots = sample_roots(
            self.part.degrees, self.sizes.roots_per_pass, rng=self.rng(2)
        )
        self.batched.run_batch(self.roots[:8])
        for root in self.roots[:4]:
            self.sequential.run(int(root))
        self.batch_samples: list[float] = []
        self.traced_samples: list[float] = []
        self.seq_pass_samples: list[float] = []
        self.lanes = 0
        self.first_batch = None

    def measure(self) -> None:
        """Pairs of one batch and one sequential pass over the same
        roots; every pair repeats the same work (see ``best_pass``)."""
        roots = self.roots
        deadline = pc() + self.seconds
        while self.first_batch is None or pc() < deadline:
            t0 = pc()
            result = self.batched.run_batch(roots)
            self.batch_samples.append(pc() - t0)
            checked = [result]
            if self.traced is not None:
                t0 = pc()
                checked.append(self.traced.run_batch(roots))
                self.traced_samples.append(pc() - t0)
            if self.first_batch is None:
                self.first_batch = checked[-1]
                if self.rec is not None:
                    self.first_pass_counts = dict(self.rec.counts)
            t0 = pc()
            parents = [self.sequential.run(int(r)).parent for r in roots]
            self.seq_pass_samples.append(pc() - t0)
            for got in checked:
                self.lanes += got.num_lanes
                self.attempted += got.num_lanes
                self.failed += sum(
                    not np.array_equal(got.parent[lane], parents[lane])
                    for lane in range(got.num_lanes)
                )

    def amortization(self) -> float:
        return min(self.seq_pass_samples) / min(self.batch_samples)

    def end_to_end(self) -> dict:
        best = min(self.batch_samples)
        return {
            # Lane-edges per second of the fastest batch.
            "throughput_per_s": len(self.roots) * self.batched.num_input_edges / best,
            "latency_ms_p50": best * 1e3,
        }

    def detail(self) -> dict:
        first = self.first_batch
        return {
            "batch_s": summarize(self.batch_samples),
            "traced_batch_s": summarize(self.traced_samples),
            "sequential_pass_s": summarize(self.seq_pass_samples),
            "amortization_x": self.amortization(),
            "lanes_checked": self.lanes,
            "run_records": [{
                "root": int(first.roots[0]),
                "iterations": first.num_waves,
                "visited": int(np.count_nonzero(first.parent >= 0)),
                "total_seconds": first.total_seconds,
                "total_bytes": first.ledger.total_bytes,
            }],
        }

    def traversal_spans(self) -> int:
        return len(self.traced_samples)

    def layer_metrics(self) -> dict:
        first = self.first_batch
        return {
            "ledger.sim_seconds": first.total_seconds,
            "ledger.sim_bytes": first.ledger.total_bytes,
            "amortization_x": self.amortization(),
            "trace.overhead_frac": (
                min(self.traced_samples) / min(self.batch_samples) - 1.0
            ),
        }

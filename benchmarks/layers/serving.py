"""The three serving workloads: ``serve_open``, ``cluster_diurnal`` and
``ingest_mixed``.

Open-loop phases send each request at its scheduled time whatever the
service is doing and time it from that *due* time, so a stall shows as
latency on the requests behind it; how late the generator itself ran is
reported beside it.  Closed-loop phases keep a fixed number of clients
each with one request in flight.

Every response is checked structurally (the root is its own parent) and
the first response of up to ``CHECKED_ROOTS`` distinct roots is compared
bit for bit with a sequential ``DistributedBFS`` run after the timed
region.  Refused, failed and wrong responses all count as failed.
"""

from __future__ import annotations

import asyncio
import itertools
import statistics
from dataclasses import dataclass

import numpy as np

from repro.cluster.service import ClusterService, ReplicaDown
from repro.cluster.tenants import Tenant, TenantRegistry, TenantSpec
from repro.core.engine import DistributedBFS
from repro.dynamic.gate import parts_bitwise_equal
from repro.dynamic.updates import UpdateBatch
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.serve.cache import ResultCache, fingerprint_graph
from repro.serve.msbfs import MultiSourceBFS
from repro.serve.service import Overloaded, TraversalError, TraversalService
from repro.serve.workload import make_diurnal_workload, make_workload_roots

from harness import (
    CONFIG,
    E_THRESHOLD,
    GRAPH_SEED,
    H_THRESHOLD,
    build_partition,
    make_mesh,
    percentile,
    rmat_edges,
    summarize,
)
from seams import SnapshotGraph, TimingCache, TracedIncrementalGraph, TracedMSBFS
from spans import maybe_span
from traversal import Workload, interleaved_overhead

__all__ = ["ServeOpen", "ClusterDiurnal", "IngestMixed"]

#: A response later than this after its due time misses the goodput count.
LATENCY_LIMIT_S = 1.0
#: Distinct roots whose parents are compared with a sequential run.
CHECKED_ROOTS = 96
#: No workload here should shed: the queues are deep enough that an
#: overload shows as latency, which the metrics see, not as refusals.
QUEUE_DEPTH = 4096
#: Share of queries drawn from the 16-root hot set.  At 0.5 the cache
#: answers half the requests and the median sits on the boundary between
#: the hit and the miss mode, where it measures the hit ratio and not the
#: service; at 0.3 it sits inside the miss mode.
HOT_FRACTION = 0.3


@dataclass
class Outcome:
    """One request as its client saw it.  Only scalars are kept: holding
    the response would pin its batch's whole parent matrix."""

    key: tuple
    #: Seconds from the due time to the response.
    latency: float
    #: Seconds the generator sent it after its due time.
    late: float = 0.0
    error: str | None = None
    cached: bool = False
    #: Stage latencies the service reports on its response (seconds).
    queue_wait: float = 0.0
    batch_wait: float = 0.0
    traversal_seconds: float = 0.0
    total_seconds: float = 0.0


class ParentSample:
    """First-seen parents of a bounded set of distinct roots."""

    def __init__(self, cap: int = CHECKED_ROOTS) -> None:
        self.cap = cap
        self.kept: dict = {}
        self.malformed = 0

    def offer(self, key, root: int, parent) -> None:
        if parent is None or parent[root] != root:
            self.malformed += 1
        elif key not in self.kept and len(self.kept) < self.cap:
            # A lane is a view into its batch's parent matrix: copy it so
            # the sample does not pin whole batches.
            self.kept[key] = parent.copy()

    def mismatches(self, expected) -> int:
        """``expected(key)`` is the reference parent array."""
        return sum(
            not np.array_equal(parent, expected(key))
            for key, parent in self.kept.items()
        )


async def submit_one(submit, key, args, due, loop, sample, outcomes) -> None:
    sent = loop.time()
    try:
        response = await submit(*args)
    except (Overloaded, TraversalError, ReplicaDown) as exc:
        outcomes.append(
            Outcome(key, loop.time() - due, sent - due, error=type(exc).__name__)
        )
        return
    outcomes.append(
        Outcome(
            key, loop.time() - due, sent - due, None, response.cached,
            response.queue_wait, response.batch_wait,
            response.traversal_seconds, response.total_seconds,
        )
    )
    sample.offer(key, response.root, response.parent)


async def open_loop(submit, schedule, sample) -> tuple[list[Outcome], float]:
    """Send ``(due_offset, key, args)`` requests on schedule; returns
    the outcomes and the seconds from the first send to the last
    response."""
    loop = asyncio.get_running_loop()
    outcomes: list[Outcome] = []
    tasks = []
    t0 = loop.time()
    for offset, key, args in schedule:
        due = t0 + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(
            asyncio.create_task(
                submit_one(submit, key, args, due, loop, sample, outcomes)
            )
        )
    await asyncio.gather(*tasks)
    return outcomes, loop.time() - t0


async def closed_loop(submit, roots, clients: int, sample, running) -> list[Outcome]:
    """``clients`` clients, one request in flight each, while
    ``running()`` holds."""
    loop = asyncio.get_running_loop()
    outcomes: list[Outcome] = []
    stream = itertools.cycle(int(r) for r in roots)

    async def client() -> None:
        while running():
            root = next(stream)
            await submit_one(
                submit, (root,), (root,), loop.time(), loop, sample, outcomes
            )
            if outcomes[-1].cached:
                # A cache hit returns without suspending; yield so the
                # other clients and the flusher run.
                await asyncio.sleep(0)

    await asyncio.gather(*(client() for _ in range(clients)))
    return outcomes


def latencies_ms(outcomes) -> list[float]:
    return [o.latency * 1e3 for o in outcomes if o.error is None]


def p50(values) -> float:
    return percentile(values, 50)


def stage_p50s(outcomes, prefix: str) -> dict:
    """Median stage latencies (ms) of the engine-served responses, as the
    service reports them, and what the client saw beyond them (the event
    loop, the executor hop, the generator's lateness)."""
    served = [o for o in outcomes if o.error is None and not o.cached]
    return {
        f"{prefix}.queue_wait_ms_p50": p50([o.queue_wait * 1e3 for o in served]),
        f"{prefix}.batch_wait_ms_p50": p50([o.batch_wait * 1e3 for o in served]),
        f"{prefix}.traversal_ms_p50": p50(
            [o.traversal_seconds * 1e3 for o in served]
        ),
        f"{prefix}.self_ms_p50": p50(
            [(o.latency - o.total_seconds) * 1e3 for o in served]
        ),
    }


def open_loop_figures(outcomes, elapsed: float) -> dict:
    return {
        "latency_ms_p95": percentile(latencies_ms(outcomes), 95),
        "goodput_qps": goodput(outcomes, elapsed),
        "generator_late_ms_p99": percentile([o.late * 1e3 for o in outcomes], 99),
    }


def goodput(outcomes, elapsed: float) -> float:
    """Responses within the latency limit per second of the phase, first
    send to last response."""
    within = sum(
        1 for o in outcomes if o.error is None and o.latency <= LATENCY_LIMIT_S
    )
    return within / elapsed


class _Serving(Workload):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.sample = ParentSample()
        self.outcomes: list[Outcome] = []

    def count(self, outcomes) -> None:
        self.outcomes.extend(outcomes)
        self.attempted += len(outcomes)
        self.failed += sum(1 for o in outcomes if o.error is not None)

    def cache(self):
        return TimingCache(self.rec) if self.rec is not None else ResultCache()

    def batch_engine(self, part, machine, traced: bool):
        cls = TracedMSBFS if traced else MultiSourceBFS
        args = (part, self.rec) if traced else (part,)
        return cls(*args, machine=machine, config=CONFIG)

    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def span_mean(self, name: str) -> float:
        durations = self.rec.durations(name)
        return statistics.fmean(durations) if durations else 0.0

    def cache_metrics(self, stats) -> dict:
        return {
            "cache.hit_ratio": stats.cache_hit_rate,
            "cache.get_s": self.span_mean("cache.get"),
            "cache.put_s": self.span_mean("cache.put"),
            "msbfs.lanes_mean": stats.mean_batch_size,
            "failed_frac": self.failed_frac(),
        }


# ----------------------------------------------------------------------
# serve_open
# ----------------------------------------------------------------------


class ServeOpen(_Serving):
    """``TraversalService`` under an open loop at a fixed rate: queueing,
    the batch window, the cache and the executor hop beside the
    traversal.  Traced runs add a closed loop from a cold cache for the
    saturation throughput."""

    name = "serve_open"

    def setup(self) -> None:
        rec, sizes = self.rec, self.sizes
        scale = sizes.serve_scale
        src, dst = rmat_edges(scale, rec)
        self.machine, mesh = make_mesh(sizes.mesh)
        self.part = build_partition(src, dst, 1 << scale, mesh, rec)
        with maybe_span(rec, "partition.engine_build"):
            self.sequential = DistributedBFS(
                self.part, machine=self.machine, config=CONFIG
            )
            self.plain = self.batch_engine(self.part, self.machine, False)
            self.engine = (
                self.batch_engine(self.part, self.machine, True)
                if rec is not None
                else self.plain
            )
        # An untraced run is all open loop.  A traced run spends half its
        # time on two closed loops, one untraced and one traced: the first
        # gives the saturation throughput, their ratio the tracing overhead.
        # (The closed loop is not gated: four seconds hold eight 64-lane
        # batches, and their rate spread 20 % across runs.)
        self.open_seconds = self.seconds * (0.5 if rec is not None else 1.0)
        self.closed_seconds = self.seconds * 0.25
        self.num_open = max(1, int(sizes.open_rate * self.open_seconds))
        self.open_roots = make_workload_roots(
            self.part.degrees, self.num_open, seed=self.seed,
            hot_fraction=HOT_FRACTION, hot_set_size=16,
        )
        # The closed loop asks distinct roots, so the cache is bypassed
        # and its throughput is the engine path's, whatever share of the
        # open loop's mix the cache happened to answer.
        self.closed_roots = self.rng(4).permutation(
            np.flatnonzero(self.part.degrees > 0)
        )
        self.plain.run_batch(np.unique(self.closed_roots[-8:]))
        self.service = self.make_service(self.engine)

    def make_service(self, engine) -> TraversalService:
        cache = self.cache() if engine is self.engine else ResultCache()
        return TraversalService(engine, cache=cache, queue_depth=QUEUE_DEPTH)

    def measure(self) -> None:
        asyncio.run(self._measure())

    async def _measure(self) -> None:
        rate = self.sizes.open_rate
        schedule = [
            (i / rate, (int(root),), (int(root),))
            for i, root in enumerate(self.open_roots)
        ]
        async with self.service:
            self.open_outcomes, self.open_elapsed = await open_loop(
                self.service.submit, schedule, self.sample
            )
        self.count(self.open_outcomes)
        if self.rec is not None:
            self.closed_qps = await self._closed_phase(self.plain)
            self.traced_closed_qps = await self._closed_phase(self.engine)

    async def _closed_phase(self, engine) -> float:
        service = self.make_service(engine)
        loop = asyncio.get_running_loop()
        async with service:
            t0 = loop.time()
            deadline = t0 + self.closed_seconds
            outcomes = await closed_loop(
                service.submit, self.closed_roots, self.sizes.closed_clients,
                self.sample, lambda: loop.time() < deadline,
            )
            elapsed = loop.time() - t0
        self.count(outcomes)
        return sum(1 for o in outcomes if o.error is None) / elapsed

    def check(self) -> None:
        self.failed += self.sample.malformed + self.sample.mismatches(
            lambda key: self.sequential.run(key[0]).parent
        )

    def end_to_end(self) -> dict:
        return {
            "throughput_per_s": goodput(self.open_outcomes, self.open_elapsed),
            "latency_ms_p50": statistics.median(latencies_ms(self.open_outcomes)),
        }

    def detail(self) -> dict:
        out = self.open_outcomes
        return {
            "open_rate_qps": self.sizes.open_rate,
            "open_latency_ms": summarize(latencies_ms(out)),
            **open_loop_figures(out, self.open_elapsed),
            "cache_hit_ratio": self.service.stats.cache_hit_rate,
            "checked_parents": len(self.sample.kept),
            "failed_frac": self.failed_frac(),
        }

    def traversal_spans(self) -> int:
        return len(self.rec.durations("msbfs.run_batch"))

    def layer_metrics(self) -> dict:
        out = self.open_outcomes
        stats = self.service.stats
        figures = open_loop_figures(out, self.open_elapsed)
        roots = np.unique(self.closed_roots[:16])
        observed = MultiSourceBFS(
            self.part, machine=self.machine, config=CONFIG,
            tracer=Tracer(), metrics=MetricsRegistry(),
        )
        return {
            **stage_p50s(out, "service"),
            **self.cache_metrics(stats),
            "service.batches": stats.batches,
            "service.sheds": stats.shed,
            "service.generator_late_ms_p99": figures["generator_late_ms_p99"],
            "latency_ms_p95": figures["latency_ms_p95"],
            "goodput_qps": figures["goodput_qps"],
            "closed_qps": self.closed_qps,
            "trace.overhead_frac": self.closed_qps / self.traced_closed_qps - 1.0,
            "obs.on_overhead_frac": interleaved_overhead(
                lambda: self.plain.run_batch(roots),
                lambda: observed.run_batch(roots),
            ),
        }


# ----------------------------------------------------------------------
# cluster_diurnal
# ----------------------------------------------------------------------

TENANTS = (("hot", "gold", 10.0), ("mid", "silver", 1.0), ("cold", "bronze", 1.0))


class ClusterDiurnal(_Serving):
    """``ClusterService``: three tenants of unequal popularity on two
    replicas under a diurnal open loop — the router's deficit round
    robin, the replica loops and the per-tenant caches."""

    name = "cluster_diurnal"

    def setup(self) -> None:
        rec, sizes = self.rec, self.sizes
        scale = sizes.tenant_scale
        rows, cols = sizes.mesh
        self.machine, mesh = make_mesh(sizes.mesh)
        tenants = []
        self.sequential = {}
        for index, (tenant_id, slo_class, _) in enumerate(TENANTS):
            src, dst = rmat_edges(scale, rec, instance=index)
            part = build_partition(src, dst, 1 << scale, mesh, rec)
            with maybe_span(rec, "partition.engine_build"):
                sequential = DistributedBFS(
                    part, machine=self.machine, config=CONFIG
                )
                batched = self.batch_engine(part, self.machine, rec is not None)
            spec = TenantSpec(
                tenant_id, scale=scale, rows=rows, cols=cols,
                seed=GRAPH_SEED + index,
                slo_class=slo_class, quota=QUEUE_DEPTH,
                e_threshold=E_THRESHOLD, h_threshold=H_THRESHOLD,
            )
            tenants.append(
                Tenant(
                    spec=spec, sequential=sequential, batched=batched,
                    cache=self.cache(), fingerprint=fingerprint_graph(part),
                )
            )
            self.sequential[tenant_id] = sequential
            MultiSourceBFS(part, machine=self.machine, config=CONFIG).run_batch(
                np.flatnonzero(part.degrees > 0)[:8]
            )
        self.registry = TenantRegistry(tenants)
        self.workload = make_diurnal_workload(
            self.registry.degrees_map(),
            max(1, int(sizes.cluster_rate * self.seconds)),
            seed=self.seed,
            duration_seconds=self.seconds,
            popularity={tenant_id: share for tenant_id, _, share in TENANTS},
            hot_fraction=HOT_FRACTION,
        )
        self.cluster = ClusterService(self.registry, replicas=2)

    def measure(self) -> None:
        asyncio.run(self._measure())

    async def _measure(self) -> None:
        schedule = [
            (q.arrival_seconds, (q.tenant, q.root), (q.tenant, q.root))
            for q in self.workload.queries
        ]
        async with self.cluster:
            outcomes, self.elapsed = await open_loop(
                self.cluster.submit, schedule, self.sample
            )
        self.count(outcomes)

    def check(self) -> None:
        self.failed += self.sample.malformed + self.sample.mismatches(
            lambda key: self.sequential[key[0]].run(key[1]).parent
        )

    def end_to_end(self) -> dict:
        return {
            "throughput_per_s": goodput(self.outcomes, self.elapsed),
            "latency_ms_p50": statistics.median(latencies_ms(self.outcomes)),
        }

    def tenant_latencies(self, *tenant_ids) -> list[float]:
        return latencies_ms(o for o in self.outcomes if o.key[0] in tenant_ids)

    def figures(self) -> dict:
        return {
            **open_loop_figures(self.outcomes, self.elapsed),
            "cold_latency_ms_p95": percentile(
                self.tenant_latencies("mid", "cold"), 95
            ),
        }

    def detail(self) -> dict:
        return {
            "offered_qps": self.sizes.cluster_rate,
            "latency_ms": summarize(latencies_ms(self.outcomes)),
            **self.figures(),
            "per_tenant_queries": self.workload.per_tenant_counts(),
            "cache_hit_ratio": self.cluster.stats.cache_hit_rate,
            "checked_parents": len(self.sample.kept),
            "failed_frac": self.failed_frac(),
        }

    def traversal_spans(self) -> int:
        return len(self.rec.durations("msbfs.run_batch"))

    def layer_metrics(self) -> dict:
        stats = self.cluster.stats
        figures = self.figures()
        figures["cluster.generator_late_ms_p99"] = figures.pop("generator_late_ms_p99")
        stages = stage_p50s(self.outcomes, "cluster")
        busy = sum(self.rec.durations("msbfs.run_batch")) / self.elapsed
        replicas = self.cluster.tenants_snapshot()["replicas"]
        batches = sum(r["batches"] for r in replicas.values()) or 1
        metrics = {
            **self.cache_metrics(stats),
            "cluster.queue_wait_ms_p50": stages["cluster.queue_wait_ms_p50"],
            "cluster.traversal_ms_p50": stages["cluster.traversal_ms_p50"],
            "cluster.batch_lanes_mean": stats.mean_batch_size,
            "cluster.sheds": stats.shed,
            **figures,
        }
        for replica_id, replica in replicas.items():
            # The service does not expose per-replica busy time: share
            # the measured batch seconds out by batches executed.
            metrics[f"cluster.replica_busy_frac.{replica_id}"] = (
                busy * replica["batches"] / batches
            )
        for tenant_id, _, _ in TENANTS:
            metrics[f"cluster.tenant_p95_ms.{tenant_id}"] = percentile(
                self.tenant_latencies(tenant_id), 95
            )
        return metrics


# ----------------------------------------------------------------------
# ingest_mixed
# ----------------------------------------------------------------------


def update_batches(lo, hi, num_vertices, size, rng):
    """Mixed batches over the canonical edge set ``(lo, hi)``, until the
    base edges run out.

    Deletes are disjoint slices of one permutation of the base edges, so
    every delete hits a live edge exactly once; inserts are random pairs
    (inserting a present edge is a no-op by the repair's idempotent
    semantics).  ``dynamic.generate_update_stream`` draws against the
    live set and costs ~0.4 s per batch at this size — too slow to sit
    in a set-up that is repeated.
    """
    half = size // 2
    doomed = rng.permutation(lo.size)
    for start in range(0, doomed.size - half + 1, half):
        drop = doomed[start:start + half]
        a = rng.integers(0, num_vertices, size=half, dtype=np.int64)
        b = rng.integers(0, num_vertices, size=half, dtype=np.int64)
        keep = a != b
        ins_lo, ins_hi = np.minimum(a, b)[keep], np.maximum(a, b)[keep]
        yield UpdateBatch(
            src=np.concatenate([ins_lo, lo[drop]]),
            dst=np.concatenate([ins_hi, hi[drop]]),
            op=np.concatenate(
                [np.ones(ins_lo.size, np.int8), -np.ones(drop.size, np.int8)]
            ),
        )


class IngestMixed(_Serving):
    """Writes beside reads: ``ingest_updates`` applies mixed batches of
    1 % of the edges, one call per batch, while closed-loop clients
    query.  Uses the partition and placement code incrementally."""

    name = "ingest_mixed"
    clients = 8
    final_roots = 16

    def setup(self) -> None:
        rec, sizes = self.rec, self.sizes
        scale = sizes.ingest_scale
        n = 1 << scale
        src, dst = rmat_edges(scale, rec)
        self.machine, mesh = make_mesh(sizes.mesh)
        kwargs = dict(
            e_threshold=E_THRESHOLD, h_threshold=H_THRESHOLD, machine=self.machine
        )
        with maybe_span(rec, "partition.partition"):
            self.inc = (
                TracedIncrementalGraph(src, dst, n, mesh, rec=rec, **kwargs)
                if rec is not None
                else SnapshotGraph(src, dst, n, mesh, **kwargs)
            )
        part = self.inc.graph()
        if rec is not None:
            rec.counts["partition.arcs"] += part.total_arcs
        # The service rebuilds a plain engine at every ingest, so this
        # workload traces the cache, the repair and the service stages and
        # leaves the traversal layers to the other five.
        with maybe_span(rec, "partition.engine_build"):
            engine = self.batch_engine(part, self.machine, False)
        lo, hi = self.inc.edges()
        self.batch_size = max(2, lo.size // 100)
        self.batches = update_batches(lo, hi, n, self.batch_size, self.rng(3))
        self.roots = make_workload_roots(
            part.degrees, 8192, seed=self.seed,
            hot_fraction=HOT_FRACTION, hot_set_size=16,
        )
        engine.run_batch(np.unique(self.roots[:8]))
        self.service = TraversalService(
            engine, cache=self.cache(), queue_depth=QUEUE_DEPTH, dynamic=self.inc
        )
        # Responses span graph generations, so none is compared with a
        # reference; the end state is (see check()).
        self.sample = ParentSample(cap=0)
        self.ingest_seconds: list[float] = []
        self.ingest_rates: list[float] = []
        self.evicted = self.rekeyed = 0

    def measure(self) -> None:
        asyncio.run(self._measure())

    async def _measure(self) -> None:
        loop = asyncio.get_running_loop()
        ingesting = True
        async with self.service:
            clients = asyncio.create_task(
                closed_loop(
                    self.service.submit, self.roots, self.clients,
                    self.sample, lambda: ingesting,
                )
            )
            deadline = loop.time() + self.seconds
            for batch in self.batches:
                t0 = loop.time()
                report = await self.service.ingest_updates([batch])
                self.ingest_seconds.append(loop.time() - t0)
                self.ingest_rates.append(batch.size / self.ingest_seconds[-1])
                self.evicted += report.cache_evicted
                self.rekeyed += report.cache_rekeyed
                if loop.time() >= deadline:
                    break
            ingesting = False
            self.count(await clients)
        self.attempted += len(self.ingest_seconds)

    def check(self) -> None:
        """The end state against a rebuild: the repaired partition bit
        for bit, and traversals on it against the rebuilt one."""
        reference = self.inc.rebuild_reference()
        problems = parts_bitwise_equal(self.inc.graph(), reference)
        self.attempted += 1
        self.failed += bool(problems)
        roots = np.unique(self.roots[: self.final_roots])
        sequential = DistributedBFS(reference, machine=self.machine, config=CONFIG)
        served = self.service.engine.run_batch(roots)
        self.attempted += roots.size
        self.failed += sum(
            not np.array_equal(served.parent[lane], sequential.run(int(root)).parent)
            for lane, root in enumerate(roots)
        )
        self.failed += self.sample.malformed

    def end_to_end(self) -> dict:
        return {
            # Edge updates per second inside ``ingest_updates``: the
            # median call (the first one runs cold).
            "throughput_per_s": statistics.median(self.ingest_rates),
            "latency_ms_p50": statistics.median(latencies_ms(self.outcomes)),
        }

    def detail(self) -> dict:
        return {
            "ingest_call_s": summarize(self.ingest_seconds),
            "updates_per_batch": self.batch_size,
            "query_clients": self.clients,
            "query_latency_ms": summarize(latencies_ms(self.outcomes)),
            "cache_hit_ratio": self.service.stats.cache_hit_rate,
            "cache_evicted": self.evicted,
            "cache_rekeyed": self.rekeyed,
            "failed_frac": self.failed_frac(),
        }

    def layer_metrics(self) -> dict:
        applies = self.rec.durations("dynamic.apply_batch")
        # graph() also ran once in set-up and once in check().
        compacts = self.rec.durations("dynamic.compact")[1:len(applies) + 1]
        # What an ingest call spends outside repair and compaction: the
        # engine rebuild, the fingerprint and the cache delta.
        rest = [
            total - apply - compact
            for total, apply, compact in zip(self.ingest_seconds, applies, compacts)
        ]
        stats = self.service.stats
        carried = self.evicted + self.rekeyed
        stages = stage_p50s(self.outcomes, "service")
        del stages["service.self_ms_p50"]  # closed loop: no due time
        return {
            **stages,
            **self.cache_metrics(stats),
            "dynamic.apply_batch_s_p50": p50(applies),
            "dynamic.compact_s": statistics.fmean(compacts) if compacts else 0.0,
            "dynamic.engine_rebuild_s": statistics.fmean(rest) if rest else 0.0,
            "dynamic.arcs_moved": self.rec.counts["dynamic.arcs_moved"],
            "dynamic.cache_evicted_frac": self.evicted / carried if carried else 0.0,
            "service.batches": stats.batches,
            "service.sheds": stats.shed,
        }

"""Official Graph500 benchmark flow.

The specification's run structure, reproduced end to end:

1. **Generation** — produce the edge list (not timed).
2. **Kernel 1 (construction)** — build the search-ready data structure;
   timed.  Here that is the 3-level 1.5D partitioning, and its time is
   :func:`~repro.core.preprocessing.construction_ledger`'s simulated
   in-place global sort of that partition.
3. **Root sampling** — 64 search keys sampled uniformly from vertices
   with degree >= 1, deduplicated, as the reference code does.
4. **Kernel 2 (BFS)** — one timed BFS per root (or one multi-source
   batch per 64 roots), each validated by the five spec checks; a
   degraded root is checked by
   :func:`~repro.resilience.recovery.validate_partial`.  **Kernel 3
   (SSSP)** runs the same flow with a weighted vertex program per root
   and the optimality-certificate validation.
5. **Output statistics** — the official result block: min/firstquartile/
   median/thirdquartile/max/mean/stddev over times and TEPS, with the
   harmonic mean and its standard error for TEPS (the quantity the
   Graph500 list ranks by).  ``validation:`` reads ``PASSED`` or
   ``FAILED``, or ``SKIPPED`` when the run was not validated.

Both kernels share one prologue (steps 1–2) and one epilogue (step 5);
only the search loop differs.  Times here are the *simulated* seconds of
the machine model; the statistics machinery is the specification's.

Pass ``tracer=`` a :class:`~repro.obs.tracer.Tracer` to record a kernel-2
flow as a span tree: ``generate`` and ``construction`` phases, one
``root`` span per search key (or one ``batch`` span per batch) containing
the engine's per-iteration and per-component spans, a ``validate`` phase
per root, and a final ``harvest`` phase for the statistics block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import DistributedBFS
from repro.core.preprocessing import construction_ledger
from repro.core.setup import build_setup
from repro.graph500.spec import DEFAULT_EDGE_FACTOR, NUM_BFS_ROOTS, Graph500Problem
from repro.graph500.validate import validate_bfs_result
from repro.graphs.csr import build_csr, symmetrize_edges
from repro.machine.network import MachineSpec
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.resilience import (
    ResilientRunResult,
    build_resilience,
    run_with_recovery,
    validate_partial,
)
from repro.runtime.context import run_context

__all__ = [
    "Graph500Stats",
    "Graph500Report",
    "run_graph500",
    "run_graph500_sssp",
    "sample_roots",
]


def sample_roots(
    degrees: np.ndarray, num_roots: int, *, rng: np.random.Generator
) -> np.ndarray:
    """Sample BFS search keys per the specification.

    Uniform over vertices with at least one edge, without replacement
    (the reference implementation deduplicates and resamples).

    Consumes exactly **one** draw from ``rng`` regardless of the graph's
    degree distribution or ``num_roots``: the actual selection runs on a
    child generator seeded by that draw.  ``rng.choice`` would consume a
    candidate-count-dependent number of draws, so anything sequenced
    after root sampling (fault injection, workload seeding) would see a
    generator state that shifts with graph shape — this keeps plain,
    ``--faults``, and ``--batch-roots`` runs root-identical from
    ``seed`` alone.
    """
    candidates = np.flatnonzero(degrees > 0)
    if candidates.size == 0:
        raise ValueError("graph has no non-isolated vertices to sample roots from")
    k = min(num_roots, candidates.size)
    child = np.random.default_rng(int(rng.integers(0, 2**63 - 1)))
    return child.choice(candidates, size=k, replace=False).astype(np.int64)


@dataclass(frozen=True)
class Graph500Stats:
    """The specification's summary statistics over a sample."""

    minimum: float
    firstquartile: float
    median: float
    thirdquartile: float
    maximum: float
    mean: float
    stddev: float

    @classmethod
    def of(cls, values: np.ndarray) -> "Graph500Stats":
        v = np.asarray(values, dtype=np.float64)
        if v.size == 0:
            raise ValueError("cannot summarize an empty sample")
        q1, med, q3 = np.percentile(v, [25, 50, 75])
        return cls(
            minimum=float(v.min()),
            firstquartile=float(q1),
            median=float(med),
            thirdquartile=float(q3),
            maximum=float(v.max()),
            mean=float(v.mean()),
            stddev=float(v.std(ddof=1)) if v.size > 1 else 0.0,
        )


def harmonic_mean_stats(values: np.ndarray) -> tuple[float, float]:
    """Harmonic mean and its standard error (the spec's TEPS aggregate).

    The specification computes TEPS statistics on the reciprocals:
    ``harmonic_mean = 1 / mean(1 / TEPS)`` with the standard error
    propagated from the reciprocal sample.
    """
    v = np.asarray(values, dtype=np.float64)
    if np.any(v <= 0):
        raise ValueError("TEPS values must be positive")
    recip = 1.0 / v
    hmean = 1.0 / recip.mean()
    if v.size > 1:
        stderr = recip.std(ddof=1) / np.sqrt(v.size - 1) * hmean * hmean
    else:
        stderr = 0.0
    return float(hmean), float(stderr)


@dataclass
class Graph500Report:
    """Everything a conforming run reports."""

    problem: Graph500Problem
    num_nodes: int
    construction_seconds: float
    roots: np.ndarray
    bfs_times: np.ndarray
    teps: np.ndarray
    #: ``None`` when the run was not validated.
    validated: bool | None
    #: Per-root results: :class:`~repro.core.metrics.BFSRunResult` for kernel 2,
    #: :class:`~repro.core.programs.base.ProgramRunResult` for kernel 3.
    results: list = field(repr=False, default_factory=list)
    #: Metrics registry shared by every root's BFS (``NULL_METRICS``
    #: when the run was not metered).
    metrics: object = field(default=NULL_METRICS, repr=False)
    #: Resilience accounting (``None`` for a fault-free run): injected
    #: fault/retry counts, crashes survived, checkpoints written, wasted
    #: seconds re-executed after restores.
    resilience: dict | None = field(default=None)

    @property
    def time_stats(self) -> Graph500Stats:
        return Graph500Stats.of(self.bfs_times)

    @property
    def teps_stats(self) -> Graph500Stats:
        return Graph500Stats.of(self.teps)

    @property
    def harmonic_mean_teps(self) -> float:
        return harmonic_mean_stats(self.teps)[0]

    @property
    def mean_gteps(self) -> float:
        return self.harmonic_mean_teps / 1e9

    def render(self) -> str:
        """The official-style output block."""
        t, g = self.time_stats, self.teps_stats
        hm, err = harmonic_mean_stats(self.teps)
        verdict = {True: "PASSED", False: "FAILED", None: "SKIPPED"}[self.validated]
        lines = [
            f"SCALE: {self.problem.scale}",
            f"edgefactor: {DEFAULT_EDGE_FACTOR}",
            f"NBFS: {self.roots.size}",
            f"num_nodes (simulated): {self.num_nodes}",
            f"construction_time: {self.construction_seconds:.6e}",
            f"min_time: {t.minimum:.6e}",
            f"firstquartile_time: {t.firstquartile:.6e}",
            f"median_time: {t.median:.6e}",
            f"thirdquartile_time: {t.thirdquartile:.6e}",
            f"max_time: {t.maximum:.6e}",
            f"mean_time: {t.mean:.6e}",
            f"stddev_time: {t.stddev:.6e}",
            f"min_TEPS: {g.minimum:.6e}",
            f"firstquartile_TEPS: {g.firstquartile:.6e}",
            f"median_TEPS: {g.median:.6e}",
            f"thirdquartile_TEPS: {g.thirdquartile:.6e}",
            f"max_TEPS: {g.maximum:.6e}",
            f"harmonic_mean_TEPS: {hm:.6e}",
            f"harmonic_stddev_TEPS: {err:.6e}",
            f"validation: {verdict}",
        ]
        return "\n".join(lines)


def run_graph500(
    scale: int,
    rows: int,
    cols: int,
    *,
    seed: int = 1,
    num_roots: int = NUM_BFS_ROOTS,
    e_threshold: int | None = None,
    h_threshold: int | None = None,
    machine: MachineSpec | None = None,
    config_overrides: dict | None = None,
    validate: bool = True,
    tracer: Tracer | None = None,
    metrics=None,
    faults=None,
    checkpoint_every: int = 0,
    max_restarts: int = 3,
    recovery_mode: str = "restart",
    batch_roots: bool = False,
) -> Graph500Report:
    """Run the full Graph500 benchmark flow on the simulated machine.

    Parameters
    ----------
    scale, rows, cols:
        Problem SCALE and simulated mesh shape.
    num_roots:
        BFS roots (64 for a conforming run; fewer for quick checks).
    e_threshold, h_threshold:
        Partition thresholds; default from the per-scale tuning table.
    validate:
        Run the five spec checks on every root's output (slow but
        conforming); ``validated`` is ``None`` when this is off.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer` recording the run as a
        span tree (generate / construction / per-root BFS + validate /
        harvest); export it with :mod:`repro.obs.export`.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` accumulating
        the aggregate metric families across every root's BFS; build a
        :class:`~repro.obs.report.RunReport` from the returned report
        with :func:`repro.obs.report.report_from_graph500`.
    faults:
        Optional fault description — a spec string (see
        :func:`repro.resilience.faults.parse_fault_spec`), a parsed
        :class:`~repro.resilience.faults.FaultPlan`, or a ready
        :class:`~repro.resilience.faults.FaultInjector`.  The injector
        draws from the *same* seeded generator as root sampling, so a
        faulty run is bit-reproducible from ``seed`` alone.
    checkpoint_every:
        Snapshot traversal state every N completed levels (0 disables);
        write costs are charged to each root's ledger.
    max_restarts, recovery_mode:
        :class:`~repro.resilience.recovery.RecoveryPolicy` knobs applied
        when a crash fault fires (``restart`` or ``degrade``).
    batch_roots:
        Run the sampled roots as multi-source batches
        (:meth:`~repro.core.engine.DistributedBFS.run_batch`, up to 64
        roots per traversal) instead of one sequential BFS per root.  Parent
        arrays are bit-identical to the sequential path; reported
        per-root times are each root's amortized share of its batch.
        Incompatible with ``checkpoint_every`` (no per-root checkpoints
        inside a shared wave) and with ``recovery_mode='degrade'``
        (batch recovery is restart-only); both raise ``ValueError``
        before the graph is generated.
    """
    if num_roots < 1:
        raise ValueError(f"num_roots must be at least 1, got {num_roots}")
    if batch_roots and checkpoint_every:
        raise ValueError(
            "batch_roots does not support checkpointing (no per-root "
            "checkpoints inside a shared wave)"
        )
    if batch_roots and recovery_mode != "restart":
        raise ValueError("batch_roots recovery is restart-only")
    ctx = run_context(tracer, metrics)
    tracer = ctx.tracer
    problem = Graph500Problem(scale=scale)
    rng = np.random.default_rng(seed)
    setup, part, construction_seconds = _generate_and_build(
        scale, rows, cols, seed=seed, e_threshold=e_threshold,
        h_threshold=h_threshold, machine=machine, tracer=tracer,
    )
    engine = DistributedBFS(
        part, machine=setup.machine,
        config=setup.config(**(config_overrides or {})),
        tracer=tracer, metrics=metrics,
    )

    # Resilience setup: the injector shares the run's one seeded rng
    # (the generator root sampling draws from next), so ``seed`` alone
    # makes an entire faulty run bit-reproducible.  A fault-free run
    # takes the same path: one attempt per root, nothing injected.
    run, policy = build_resilience(
        faults, checkpoint_every=checkpoint_every,
        max_restarts=max_restarts, recovery_mode=recovery_mode,
        mesh=setup.mesh, rng=rng, context=ctx,
    )
    roots = sample_roots(part.degrees, num_roots, rng=rng)
    if validate:
        graph = build_csr(
            *symmetrize_edges(setup.src, setup.dst), problem.num_vertices
        )

    results, recoveries = [], []
    all_valid = True
    for res, recovered in _searches(engine, roots, run, policy, batch_roots, tracer):
        results.append(res)
        recoveries.append(recovered)
        if validate:
            with tracer.span("validate", category="phase", root=res.root):
                try:
                    if recovered.excised.size:
                        validate_partial(graph, res.root, res.parent, recovered.excised)
                    else:
                        validate_bfs_result(
                            graph, res.root, res.parent,
                            edge_src=setup.src, edge_dst=setup.dst,
                        )
                except AssertionError:
                    all_valid = False

    resilience = None
    if faults is not None or checkpoint_every:
        resilience = {
            "crashes": sum(r.crashes for r in recoveries),
            "restarts": sum(r.restarts for r in recoveries),
            "wasted_seconds": sum((r.wasted_seconds for r in recoveries), 0.0),
            "excised_vertices": sum(int(r.excised.size) for r in recoveries),
            "checkpoint_every": checkpoint_every,
            "recovery_mode": recovery_mode,
            **run.faults.summary(),
        }
    return _report(
        problem, rows * cols, construction_seconds, roots, results,
        all_valid if validate else None, tracer,
        metrics=run.metrics, resilience=resilience,
    )


def run_graph500_sssp(
    scale: int,
    rows: int,
    cols: int,
    *,
    seed: int = 1,
    num_roots: int = NUM_BFS_ROOTS,
    e_threshold: int | None = None,
    h_threshold: int | None = None,
    machine: MachineSpec | None = None,
    validate: bool = True,
    algorithm: str = "sssp-delta",
) -> Graph500Report:
    """The benchmark's SSSP kernel over sampled roots.

    Mirrors :func:`run_graph500` with the weighted kernel: uniform [0, 1)
    edge weights per the specification, the registered ``algorithm``
    (``"sssp-delta"``, delta-stepping, or ``"sssp"``, Bellman-Ford) over
    the 1.5D partitioning on one engine, and the kernel-3
    optimality-certificate validation on every root.  The report's
    ``results`` are the per-root
    :class:`~repro.core.programs.base.ProgramRunResult` objects.
    """
    from repro.core.programs import build_program, program_params
    from repro.graph500.validate_sssp import validate_sssp_result

    if num_roots < 1:
        raise ValueError(f"num_roots must be at least 1, got {num_roots}")
    if algorithm not in ("sssp-delta", "sssp"):
        raise ValueError(f"unknown SSSP algorithm {algorithm!r}")
    problem = Graph500Problem(scale=scale)
    rng = np.random.default_rng(seed)
    setup, part, construction_seconds = _generate_and_build(
        scale, rows, cols, seed=seed, e_threshold=e_threshold,
        h_threshold=h_threshold, machine=machine, tracer=NULL_TRACER,
    )
    params = program_params(algorithm, setup, weight_seed=seed + 1)
    roots = sample_roots(part.degrees, num_roots, rng=rng)

    engine = DistributedBFS(part, machine=setup.machine)
    results = []
    all_valid = True
    for root in roots:
        res = engine.run_program(
            build_program(algorithm, part, **{**params, "root": int(root)})
        )
        results.append(res)
        if validate:
            try:
                validate_sssp_result(
                    problem.num_vertices, setup.src, setup.dst,
                    params["weights"], int(root),
                    res.state["distance"], res.state["parent"],
                )
            except AssertionError:
                all_valid = False
    return _report(
        problem, rows * cols, construction_seconds, roots, results,
        all_valid if validate else None, NULL_TRACER,
    )


def _generate_and_build(scale, rows, cols, *, seed, e_threshold, h_threshold,
                        machine, tracer):
    """Generation and kernel 1, the prologue both kernels share: returns
    ``(setup, part, construction_seconds)``, the last being the
    partition's :func:`~repro.core.preprocessing.construction_ledger`."""
    with tracer.span("generate", category="phase", scale=scale):
        setup = build_setup(
            scale, rows, cols, seed=seed,
            e_threshold=e_threshold, h_threshold=h_threshold,
        )
    if machine is not None:
        setup = setup.on_machine(machine)

    with tracer.span("construction", category="phase") as kernel1:
        part = setup.partition()
        construction_seconds = construction_ledger(part, setup.machine).total_seconds
        # Advance the simulated timeline past kernel 1 so the per-root
        # spans start where a real run's would.
        tracer.charge("kernel1", category="construction",
                      sim_seconds=construction_seconds)
        kernel1.attrs["seconds"] = construction_seconds
    return setup, part, construction_seconds


def _searches(engine, roots, run, policy, batch_roots, tracer):
    """Kernel 2's searches: yields ``(result, recovery)`` per root.

    Sequentially, each root is one recovered BFS under its ``root`` span
    (still open while the caller validates it).  Batched, each run of up
    to 64 roots is one recovered wave; its recovery and its ledger ride
    on lane 0 so sums over roots count the shared traversal once, and
    every other lane carries an empty recovery.
    """
    if not batch_roots:
        for root in roots:
            with tracer.span("root", category="bfs_root", root=int(root)):
                run.checkpointer.clear()  # snapshots never outlive their root
                recovered = run_with_recovery(
                    engine, int(root), faults=run.faults,
                    checkpointer=run.checkpointer, policy=policy,
                    metrics=run.metrics,
                )
                yield recovered.result, recovered
        return
    from repro.serve.msbfs import MAX_BATCH_ROOTS, run_batch_with_recovery

    for start in range(0, roots.size, MAX_BATCH_ROOTS):
        chunk = roots[start : start + MAX_BATCH_ROOTS]
        with tracer.span("batch", category="bfs_batch", num_roots=int(chunk.size)):
            recovered = run_batch_with_recovery(
                engine, chunk, faults=run.faults, policy=policy,
                metrics=run.metrics,
            )
        for lane in range(chunk.size):
            res = recovered.result.per_root_result(lane, share_ledger=(lane == 0))
            yield res, (recovered if lane == 0 else ResilientRunResult(res))


def _report(problem, num_nodes, construction_seconds, roots, results,
            validated, tracer, **extra) -> Graph500Report:
    """The epilogue both kernels share: the statistics block over the
    per-root results, under the ``harvest`` span."""
    with tracer.span("harvest", category="phase", num_roots=int(roots.size)):
        times = np.array([r.total_seconds for r in results])
        return Graph500Report(
            problem=problem,
            num_nodes=num_nodes,
            construction_seconds=construction_seconds,
            roots=roots,
            bfs_times=times,
            teps=problem.num_edges / times,
            validated=validated,
            results=results,
            **extra,
        )

"""RunReport: the canonical JSON artifact of one measured run.

A :class:`RunReport` captures everything needed to compare two runs of
the simulator without re-running either: a schema version, a sha256
fingerprint of the configuration that produced it, the tracked scalar
metrics (GTEPS, simulated second/byte totals), the ledger breakdowns
behind Figs. 10/11, the per-iteration direction matrix (§4.2), and
summaries of the registry's histogram/vector families (Fig. 13 balance).
The BFS, program and Graph500 metrics read the simulated clock only, so
a traced run reports exactly what an untraced one does; host time
belongs to the layer bench (a serving report's ``serve.p50_seconds`` /
``serve.p99_seconds`` are request wall latencies).

Builders exist for each entry point that produces results:

- :func:`report_from_bfs` — one :class:`~repro.core.metrics.BFSRunResult`
  (``DistributedBFS.run`` or any baseline engine);
- :func:`report_from_program` — one
  :class:`~repro.core.programs.base.ProgramRunResult`;
- :func:`report_from_graph500` — a full
  :class:`~repro.graph500.driver.Graph500Report` (all sampled roots);
- :func:`report_from_serve` — a stopped
  :class:`~repro.serve.service.TraversalService` and its closed-loop
  :class:`~repro.serve.workload.WorkloadReport`;
- :func:`bfs_smoke_report` / :func:`programs_smoke_report` — the pinned
  smoke configurations the benchmark suite and the CI gates share, so
  ``benchmarks/results/BENCH_{bfs,programs}_smoke.json`` and a fresh
  ``python -m repro report --smoke`` / ``algo --smoke`` candidate are
  comparable artifact-for-artifact.

The BFS, program and Graph500 builders share one ledger-totals block
(simulated, comm, compute and imbalance seconds, bytes, iterations).

:func:`compare_reports` diffs two reports metric by metric with a
direction-of-goodness per metric (GTEPS up is good, seconds/bytes down
is good, judged by the key's last dotted segment) and flags any change
past a relative threshold — the
``python -m repro compare OLD NEW --max-regress 5%`` CI gate.

All simulated quantities are deterministic for a fixed configuration, so
an exact-equality compare of two reports from the same config is
expected to pass; the threshold exists to absorb intentional model
changes and cross-version floating-point drift.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.obs.export import write_json

__all__ = [
    "RUN_REPORT_SCHEMA",
    "HIGHER_BETTER",
    "RunReport",
    "MetricDelta",
    "config_fingerprint",
    "report_from_bfs",
    "report_from_graph500",
    "report_from_serve",
    "report_from_program",
    "bfs_smoke_report",
    "PROGRAMS_SMOKE_CONFIG",
    "programs_smoke_report",
    "program_report",
    "compare_reports",
    "render_compare",
    "parse_threshold",
]

#: Schema tag embedded in every artifact; bump the suffix on breaking
#: layout changes so ``RunReport.load`` can reject incompatible files.
RUN_REPORT_SCHEMA = "repro.run_report/1"

#: Base names (a key's last dotted segment) of the tracked metrics where
#: an *increase* is an improvement, so ``program.bfs.gteps`` reads like
#: ``gteps``.  Everything else (seconds, bytes, iterations) regresses
#: when it grows.
HIGHER_BETTER = frozenset({
    "gteps", "harmonic_mean_teps", "mean_gteps",
    "cache_hit_rate", "mean_batch_size", "converged",
})


def config_fingerprint(payload: dict) -> str:
    """sha256 over the canonical JSON of a configuration mapping.

    Key order and whitespace are normalized so two reports built from
    the same logical configuration fingerprint identically regardless of
    construction order.
    """
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


@dataclass
class RunReport:
    """One run's comparable artifact (see module docstring)."""

    #: Human label for the run ("bfs", "graph500", "bfs_smoke", ...).
    name: str
    #: sha256 of the producing configuration (:func:`config_fingerprint`).
    fingerprint: str
    #: The fingerprinted configuration itself: scale/mesh/seed/engine
    #: plus every :class:`~repro.core.config.BFSConfig` field.
    context: dict
    #: Tracked scalar metrics; the compare gate diffs these.
    metrics: dict
    #: Ledger breakdowns: ``seconds_by_phase``, ``comm_seconds_by_kind``,
    #: ``bytes_by_kind``, ``time_by_category``.
    breakdowns: dict = field(default_factory=dict)
    #: Per-iteration ``{component: direction}`` matrix (§4.2 trace).
    directions: list = field(default_factory=list)
    #: Histogram/vector family summaries keyed ``name{label=value,...}``.
    summaries: dict = field(default_factory=dict)
    schema: str = RUN_REPORT_SCHEMA

    # ------------------------------------------------------------------
    # (de)serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        schema = data.get("schema", "")
        family = RUN_REPORT_SCHEMA.rsplit("/", 1)[0]
        if not str(schema).startswith(family):
            raise ValueError(
                f"not a RunReport artifact (schema={schema!r}, "
                f"expected {family}/*)"
            )
        fields = {
            k: data[k]
            for k in (
                "name", "fingerprint", "context", "metrics",
                "breakdowns", "directions", "summaries", "schema",
            )
            if k in data
        }
        return cls(**fields)

    def save(self, path: str | Path) -> Path:
        return write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str | Path) -> "RunReport":
        return cls.from_dict(json.loads(Path(path).read_text()))

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    def render(self) -> str:
        """ASCII summary of the tracked metrics and breakdowns."""
        from repro.analysis.reporting import ascii_table, format_seconds

        def fmt(key: str, value: float) -> str:
            if (key.endswith("seconds") or key.endswith("_time")
                    or key.startswith("seconds.")):
                return format_seconds(float(value))
            return f"{value:.6g}"

        rows = [(k, fmt(k, v)) for k, v in sorted(self.metrics.items())]
        out = [
            f"RunReport {self.name!r}  schema={self.schema}",
            f"fingerprint: {self.fingerprint[:16]}...",
            ascii_table(("metric", "value"), rows, title="tracked metrics"),
        ]
        for title, table in sorted(self.breakdowns.items()):
            rows = [(k, fmt("seconds" if "seconds" in title or "category" in title
                            else "", v))
                    for k, v in sorted(table.items())]
            out.append(ascii_table(("key", "value"), rows, title=title))
        if self.directions:
            components = sorted({c for row in self.directions for c in row})
            rows = [
                [i] + [row.get(c, "-") for c in components]
                for i, row in enumerate(self.directions)
            ]
            out.append(
                ascii_table(
                    ["iter"] + components, rows,
                    title="direction matrix (per iteration)",
                )
            )
        return "\n".join(out)


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------


def _kind_name(kind) -> str:
    return getattr(kind, "value", str(kind))


def _breakdowns_from(ledger, *, by_category: bool = True) -> dict:
    out = {
        "seconds_by_phase": {
            k: float(v) for k, v in ledger.seconds_by_phase().items()
        },
        "comm_seconds_by_kind": {
            _kind_name(k): float(v)
            for k, v in ledger.comm_seconds_by_kind().items()
        },
        "bytes_by_kind": {
            _kind_name(k): float(v) for k, v in ledger.bytes_by_kind().items()
        },
    }
    if by_category:
        out["time_by_category"] = {
            k: float(v) for k, v in ledger.seconds_by_category().items()
        }
    return out


def _label_suffix(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _registry_summaries(registry) -> dict:
    """Histogram/vector summaries from a live registry (empty for NULL)."""
    from repro.obs.metrics import MetricsRegistry

    if not isinstance(registry, MetricsRegistry):
        return {}
    out: dict = {}
    for name, kind in sorted(registry.families().items()):
        if kind not in ("histogram", "vector"):
            continue
        for labels, inst in registry.samples(name):
            out[name + _label_suffix(labels)] = inst.summary()
    return out


def _direction_matrix(iterations) -> list:
    return [dict(rec.directions) for rec in iterations]


def _context(name: str, config=None, extra: dict | None = None) -> dict:
    ctx = {"engine": name}
    if config is not None:
        ctx["config"] = asdict(config)
    ctx.update(extra or {})
    return ctx


def _ledger_totals(results) -> dict:
    """Simulated totals summed over one run or over every Graph500 root.

    Reads each result's own ``total_seconds``, so a batched root keeps
    its amortized share of the wave it rode in.
    """
    totals = {"total_seconds": sum(r.total_seconds for r in results)}
    for key in ("comm_seconds", "compute_seconds", "imbalance_seconds",
                "total_bytes"):
        totals[key] = sum(getattr(r.ledger, key) for r in results)
    totals["iterations"] = sum(r.num_iterations for r in results)
    return {k: float(v) for k, v in totals.items()}


def report_from_bfs(
    result, *, name: str = "bfs", config=None, context: dict | None = None
) -> RunReport:
    """Build a :class:`RunReport` from one BFS run.

    ``result`` is a :class:`~repro.core.metrics.BFSRunResult`; ``config``
    the :class:`~repro.core.config.BFSConfig` it ran under (folded into
    the fingerprint); ``context`` any extra fingerprinted facts (scale,
    mesh shape, seed, root).
    """
    ledger = result.ledger
    ctx = _context(name, config, context)
    metrics = {
        "gteps": float(result.simulated_gteps()), **_ledger_totals([result])
    }
    for phase, secs in ledger.seconds_by_phase().items():
        metrics[f"seconds.{phase}"] = float(secs)
    return RunReport(
        name=name,
        fingerprint=config_fingerprint(ctx),
        context=ctx,
        metrics=metrics,
        breakdowns=_breakdowns_from(ledger),
        directions=_direction_matrix(result.iterations),
        summaries=_registry_summaries(result.metrics),
    )


def report_from_graph500(
    report, *, name: str = "graph500", context: dict | None = None
) -> RunReport:
    """Build a :class:`RunReport` from a full Graph500 benchmark run,
    kernel 2 (BFS) or kernel 3 (SSSP).

    Scalar metrics carry the spec's aggregates (harmonic-mean TEPS, the
    time statistics) plus ledger totals summed over every root's run;
    breakdowns and the direction matrix come from the first root's
    ledger and iterations (the per-root shapes are near-identical on an
    R-MAT graph).
    """
    ctx = _context(name, None, context)
    ctx.setdefault("scale", int(report.problem.scale))
    ctx.setdefault("num_nodes", int(report.num_nodes))
    ctx.setdefault("num_roots", int(report.roots.size))
    t = report.time_stats
    metrics = {
        "harmonic_mean_teps": float(report.harmonic_mean_teps),
        "mean_gteps": float(report.mean_gteps),
        "construction_seconds": float(report.construction_seconds),
        "mean_time": float(t.mean),
        "max_time": float(t.maximum),
    }
    breakdowns: dict = {}
    directions: list = []
    if report.results:
        metrics.update(_ledger_totals(report.results))
        first = report.results[0]
        breakdowns = _breakdowns_from(first.ledger)
        directions = _direction_matrix(first.iterations)
    resilience = getattr(report, "resilience", None)
    if resilience:
        # Only faulty runs grow these keys, so a fault-free report stays
        # bit-identical to the pinned smoke baseline.
        ctx.setdefault("resilience", {
            "checkpoint_every": resilience.get("checkpoint_every", 0),
            "recovery_mode": resilience.get("recovery_mode", "restart"),
        })
        for key in (
            "crashes", "restarts", "wasted_seconds", "excised_vertices",
            "faults_fired", "retries", "corruptions_detected",
        ):
            if key in resilience:
                metrics[f"resilience.{key}"] = float(resilience[key])
    return RunReport(
        name=name,
        fingerprint=config_fingerprint(ctx),
        context=ctx,
        metrics=metrics,
        breakdowns=breakdowns,
        directions=directions,
        summaries=_registry_summaries(report.metrics),
    )


def report_from_serve(
    service, workload, *, context: dict | None = None
) -> RunReport:
    """Build a :class:`RunReport` from a serving session.

    ``service`` is a (stopped) :class:`~repro.serve.service.TraversalService`;
    ``workload`` the :class:`~repro.serve.workload.WorkloadReport` of the
    closed-loop driver, adding the client-side view (wrong parents, shed
    retries).  The ``serve.*`` metric family covers admission (requests,
    shed, failed), batching (batches, mean batch size), the cache (hit
    rate), wall latency (p50/p99), and the amortized simulated cost per
    query.
    """
    stats = service.stats
    ctx = _context("serve", None, context)
    ctx.setdefault("queue_depth", int(service.queue_depth))
    ctx.setdefault("batch_size", int(service.batch_size))
    ctx.setdefault("batch_window", float(service.batch_window))
    ctx.setdefault("graph_fingerprint", service.graph_fingerprint)
    metrics = {
        f"serve.{key}": float(getattr(stats, key))
        for key in (
            "requests", "completed", "cache_hits", "shed", "failed",
            "replays", "batches", "mean_batch_size", "cache_hit_rate",
            "sim_seconds_per_query", "p50_seconds", "p99_seconds",
        )
    }
    metrics.update({
        "serve.workload_queries": float(workload.num_queries),
        "serve.wrong_parents": float(workload.wrong_parents),
        "serve.validated_queries": float(workload.validated),
        "serve.shed_retries": float(workload.shed_retries),
    })
    return RunReport(
        name="serve",
        fingerprint=config_fingerprint(ctx),
        context=ctx,
        metrics=metrics,
        summaries=_registry_summaries(service.metrics),
    )


def report_from_program(result, *, context: dict | None = None) -> RunReport:
    """Build a :class:`RunReport` from one vertex-program run.

    ``result`` is a :class:`~repro.core.programs.base.ProgramRunResult`;
    the tracked metrics carry the ledger totals, the iteration count,
    the traversal rate over the input edges, and every numeric scalar
    the program reported through
    :meth:`~repro.core.programs.base.VertexProgram.info` (relaxations,
    bucket counts, component counts, residuals, ...).
    """
    ctx = _context(f"program.{result.program}", None, context)
    ctx.setdefault("program", result.program)
    metrics = {
        "gteps": float(result.gteps()),
        **_ledger_totals([result]),
        "converged": float(result.converged),
    }
    for key, value in sorted(result.info.items()):
        if isinstance(value, (int, float, bool)):
            metrics[f"info.{key}"] = float(value)
    return RunReport(
        name=ctx["engine"],
        fingerprint=config_fingerprint(ctx),
        context=ctx,
        metrics=metrics,
        breakdowns=_breakdowns_from(result.ledger, by_category=False),
        directions=_direction_matrix(result.iterations),
    )


#: The pinned smoke configuration the bench suite, the CI gate, and the
#: committed ``benchmarks/results/BENCH_bfs_smoke.json`` baseline share.
SMOKE_CONFIG = dict(
    scale=10, rows=2, cols=2, seed=7, num_roots=4,
    e_threshold=128, h_threshold=16,
)


def bfs_smoke_report(*, metrics=None, tracer=None) -> RunReport:
    """Run the SCALE-10 Graph500 smoke and report it.

    One shared entry point so the benchmark's emitted baseline and the
    CLI's fresh candidate are built from byte-identical configuration —
    any metric delta between them is a real behavior change, not a
    harness mismatch.
    """
    from repro.graph500.driver import run_graph500

    g500 = run_graph500(**SMOKE_CONFIG, tracer=tracer, metrics=metrics)
    return report_from_graph500(g500, name="bfs_smoke", context=SMOKE_CONFIG)


#: The pinned configuration of the ``programs-smoke`` CI step and the
#: committed ``benchmarks/results/BENCH_programs_smoke.json`` baseline:
#: every registered vertex program on one seeded SCALE-12 graph.
PROGRAMS_SMOKE_CONFIG = dict(
    scale=12, rows=2, cols=2, seed=7,
    e_threshold=128, h_threshold=16, weight_seed=8,
)


def programs_smoke_report(*, metrics=None, tracer=None) -> RunReport:
    """Run every registered program on the pinned SCALE-12 graph.

    One partition, one engine configuration; each program runs through
    :meth:`~repro.core.engine.DistributedBFS.run_program` (BFS through
    the native ``run``) and contributes ``program.<name>.*`` tracked
    metrics — simulated seconds/bytes, iteration counts, and each
    program's own convergence scalars (relaxations, buckets, component
    and triangle counts, PageRank residual).  All quantities are
    deterministic for the pinned config, so the
    ``compare_reports`` gate pins behaviour exactly like the BFS smoke.
    """
    from repro.core import DistributedBFS, build_program
    from repro.core.programs import PROGRAM_REGISTRY, program_params
    from repro.core.setup import build_setup

    cfg = PROGRAMS_SMOKE_CONFIG
    setup = build_setup(**{k: v for k, v in cfg.items() if k != "weight_seed"})
    part = setup.partition()
    report_metrics: dict = {}
    directions: list = []
    for name, spec in sorted(PROGRAM_REGISTRY.items()):
        engine = DistributedBFS(
            part, machine=setup.machine, tracer=tracer, metrics=metrics
        )
        params = program_params(name, setup, weight_seed=cfg["weight_seed"])
        if spec.native_bfs:
            res = engine.run(params["root"])
            report_metrics["program.bfs.gteps"] = float(res.simulated_gteps())
            info = {}
        else:
            res = engine.run_program(build_program(name, part, **params))
            info = {
                k: v for k, v in res.info.items()
                if isinstance(v, (int, float, bool))
            }
        prefix = f"program.{name}"
        report_metrics[f"{prefix}.iterations"] = float(res.num_iterations)
        report_metrics[f"{prefix}.total_seconds"] = float(res.total_seconds)
        report_metrics[f"{prefix}.total_bytes"] = float(res.ledger.total_bytes)
        for key, value in sorted(info.items()):
            report_metrics[f"{prefix}.{key}"] = float(value)
        if not directions:
            directions = _direction_matrix(res.iterations)
    return RunReport(
        name="programs_smoke",
        fingerprint=config_fingerprint({"engine": "programs_smoke", **cfg}),
        context={"engine": "programs_smoke", **cfg},
        metrics=report_metrics,
        directions=directions,
        summaries=_registry_summaries(metrics),
    )


# ----------------------------------------------------------------------
# the compare gate
# ----------------------------------------------------------------------


def program_report(
    program: str, *, scale: int, rows: int, cols: int, seed: int,
    e_threshold=None, h_threshold=None, root=None, delta=None, damping=None,
    tol=None, max_iterations=None, unit_weights=None, faults=None,
    checkpoint_every: int = 0, max_restarts: int = 3,
    recovery_mode: str = "restart", tracer=None, metrics=None,
) -> tuple[RunReport, str]:
    """Run one registered program on a generated graph: ``repro algo``.

    ``root`` ... ``max_iterations`` go to the program's same-named
    parameter (``None``: the program's default; each must be one of its
    :attr:`~repro.core.programs.ProgramSpec.params`);
    :func:`~repro.core.programs.program_params` adds the hub root and
    the seeded weights (``seed + 1``) unless ``unit_weights``.
    The run recovers through the resilience options like every
    traversal.  Returns the run's :class:`RunReport` and the text
    summary the CLI prints.
    """
    import numpy as np

    from repro.analysis.reporting import format_seconds
    from repro.core import DistributedBFS, build_program
    from repro.core.programs import PROGRAM_REGISTRY, program_params
    from repro.core.setup import build_setup
    from repro.resilience import (
        build_resilience,
        run_program_with_recovery,
        run_with_recovery,
    )

    setup = build_setup(scale, rows, cols, seed=seed, e_threshold=e_threshold,
                        h_threshold=h_threshold)
    part = setup.partition()
    params = program_params(
        program, setup, weight_seed=seed + 1, unit_weights=bool(unit_weights),
        root=root, delta=delta, damping=damping, tol=tol,
        max_iterations=max_iterations,
    )
    context = dict(
        scale=scale, rows=rows, cols=cols, seed=seed,
        e_threshold=setup.e_threshold, h_threshold=setup.h_threshold,
        **{k: v for k, v in params.items()
           if isinstance(v, (int, float, bool, str))},
    )
    engine = DistributedBFS(
        part, machine=setup.machine, tracer=tracer, metrics=metrics
    )
    run, policy = build_resilience(
        faults, checkpoint_every=checkpoint_every, max_restarts=max_restarts,
        recovery_mode=recovery_mode, mesh=setup.mesh,
        rng=np.random.default_rng(scale), context=engine.context,
    )
    recovery = dict(
        faults=run.faults, checkpointer=run.checkpointer, policy=policy
    )
    if PROGRAM_REGISTRY[program].native_bfs:
        recovered = run_with_recovery(engine, params["root"], **recovery)
        res = recovered.result
        lines = [f"bfs: {res.num_iterations} levels, "
                 f"visited {res.num_visited:,}/{setup.num_vertices:,}, "
                 f"simulated {format_seconds(res.total_seconds)} "
                 f"({res.simulated_gteps():.1f} GTEPS)"]
        report = report_from_bfs(res, name="program.bfs", context=context)
    else:
        built = build_program(program, part, **params)
        recovered = run_program_with_recovery(engine, built, **recovery)
        res = recovered.result
        lines = [f"{res.program}: {res.num_iterations} iterations, "
                 f"{'converged' if res.converged else 'not converged'}, "
                 f"simulated {format_seconds(res.total_seconds)}"]
        scalars = ", ".join(
            f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in sorted(res.info.items())
            if isinstance(v, (int, float, bool))
        )
        if scalars:
            lines.append(f"  {scalars}")
        report = report_from_program(res, context=context)
    if faults is not None or checkpoint_every:
        lines.append(f"  resilience: {recovered.summary()}")
    return report, "\n".join(lines)


@dataclass(frozen=True)
class MetricDelta:
    """One tracked metric's change between two reports."""

    name: str
    old: float
    new: float
    #: Relative change ``(new - old) / old`` (``inf`` from a zero base).
    rel: float
    #: Whether an increase in this metric is an improvement.
    higher_better: bool
    #: True when the change crosses the threshold in the bad direction.
    regressed: bool

    @property
    def improved(self) -> bool:
        good = self.rel > 0 if self.higher_better else self.rel < 0
        return good and self.rel != 0.0


def parse_threshold(text: str) -> float:
    """``"5%"`` -> 0.05; ``"0.05"`` -> 0.05.  Must be finite and nonnegative."""
    text = str(text).strip()
    if text.endswith("%"):
        value = float(text[:-1]) / 100.0
    else:
        value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(
            f"threshold must be finite and nonnegative, got {text!r}"
        )
    return value


def compare_reports(
    old: RunReport, new: RunReport, max_regress: float = 0.05
) -> list[MetricDelta]:
    """Diff the tracked metrics of two reports.

    Only metrics present in both are compared (a renamed or added metric
    is not a regression).  A metric regresses when it moves past
    ``max_regress`` relative change in its bad direction: down for the
    :data:`HIGHER_BETTER` set, up for everything else.
    """
    deltas = []
    for key in sorted(set(old.metrics) & set(new.metrics)):
        o, n = float(old.metrics[key]), float(new.metrics[key])
        if o == 0.0:
            rel = 0.0 if n == 0.0 else float("inf")
        else:
            rel = (n - o) / abs(o)
        higher_better = key.rsplit(".", 1)[-1] in HIGHER_BETTER
        bad = -rel if higher_better else rel
        deltas.append(
            MetricDelta(
                name=key, old=o, new=n, rel=rel,
                higher_better=higher_better,
                regressed=bad > max_regress,
            )
        )
    return deltas


def render_compare(
    deltas: list[MetricDelta],
    *,
    max_regress: float = 0.05,
    title: str = "RunReport comparison",
) -> str:
    """ASCII table of metric deltas with a pass/fail verdict line."""
    from repro.analysis.reporting import ascii_table

    rows = []
    for d in deltas:
        if d.rel == float("inf"):
            pct = "+inf"
        else:
            pct = f"{d.rel * 100:+.2f}%"
        status = "REGRESSED" if d.regressed else ("improved" if d.improved else "ok")
        arrow = "higher=better" if d.higher_better else "lower=better"
        rows.append((d.name, f"{d.old:.6g}", f"{d.new:.6g}", pct, arrow, status))
    table = ascii_table(
        ("metric", "old", "new", "delta", "direction", "status"),
        rows, title=title,
    )
    bad = [d for d in deltas if d.regressed]
    if bad:
        verdict = (
            f"FAIL: {len(bad)} metric(s) regressed past "
            f"{max_regress * 100:g}%: " + ", ".join(d.name for d in bad)
        )
    elif not deltas:
        verdict = "PASS: no common tracked metrics to compare"
    else:
        verdict = f"PASS: {len(deltas)} metric(s) within {max_regress * 100:g}%"
    return table + "\n" + verdict

"""Command-line interface: ``python -m repro <command>``.

The CLI parses flags, validates them, calls one library function,
prints what it returns and picks the exit code (0 pass, 1 a failed
gate, validation or artifact write, 2 usage).  Subcommands:

- ``graph500`` — the official benchmark flow (generation, construction,
  N roots, validation, official statistics block).
- ``bfs`` — one BFS with the full per-iteration trace.
- ``sweep`` — the weak-scaling ladder (Fig. 9 data).
- ``partitions`` — the four partitioning methods side by side (Table 1).
- ``ocs`` — the Fig. 14 bucketing microbenchmark.
- ``report`` — run the benchmark metered and write a
  :class:`~repro.obs.report.RunReport` JSON artifact (plus optional
  Prometheus text and Chrome trace exports).
- ``compare OLD NEW`` — diff two RunReport artifacts; exits non-zero
  when a tracked metric regresses past ``--max-regress`` (the CI perf
  gate).
- ``algo`` — run one registered vertex program
  (:func:`repro.obs.report.program_report`); ``--smoke`` runs every
  program on the pinned graph (:func:`repro.obs.report.programs_smoke_report`).
- ``chaos`` — run a fault matrix against the fault-free golden run and
  assert every recovered parent tree matches it (the CI chaos gate,
  :func:`repro.resilience.chaos.run_chaos_matrix`).
- ``mutate`` — stream seeded edge-update batches through the
  incremental partition repair path and check the repaired graph
  bit-for-bit against a from-scratch rebuild; ``--smoke`` runs the
  pinned equivalence-gate matrix (the CI dynamic gate,
  :func:`repro.dynamic.gate.run_dynamic_smoke`).
- ``serve`` — run a seeded query workload through the batched traversal
  service (bounded queue, batching window, result cache); ``--validate``
  checks every response bit-for-bit against a sequential run
  (:func:`repro.serve.workload.run_serve_drill`).  ``--tenants``
  switches to the multi-tenant cluster plane: N replicas serve M
  resident tenant graphs behind a weighted-fair router with per-tenant
  quotas and SLOs, driven by a seeded diurnal workload; ``--smoke`` runs
  the pinned slo-smoke gate (validation plus a mid-run replica kill
  drill) (:func:`repro.cluster.workload.run_cluster_drill`).
- ``bench-serve`` — the serving benchmark: the deterministic
  amortization sweep (batched vs sequential simulated cost per query,
  :mod:`repro.serve.bench`).  Wall-clock serving is measured by the
  layer bench's ``serve_open`` / ``cluster_diurnal`` workloads
  (``benchmarks/layers/``).

``graph500``, ``bfs`` and ``algo`` accept the resilience flags
``--faults SPEC`` (see :mod:`repro.resilience.faults` for the grammar),
``--checkpoint-every N``, ``--max-restarts`` and ``--recovery-mode``; a
malformed spec exits 2 with a usage message.

All output is plain text.  ``graph500``, ``bfs``, ``report``, ``algo``
and ``serve`` accept ``--trace out.json`` to record the run with
:mod:`repro.obs` and export a Chrome ``trace_event`` file (open in
``chrome://tracing`` or https://ui.perfetto.dev); ``bfs`` additionally
accepts ``--flame`` to print the span-tree summary.  Every file artifact
(``--trace``, ``--out``, ``--report``, ``--prometheus``,
``--metrics-json``, ``--json``) is written by
:func:`repro.obs.export.write_artifact`: a write that fails prints
``error: cannot write PATH: REASON`` and exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib
import inspect
import operator
import sys
from typing import Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def _mesh_arg(value: str) -> tuple[int, int]:
    """Parse 'RxC' mesh shapes."""
    try:
        rows, cols = value.lower().split("x")
        out = (int(rows), int(cols))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"mesh must look like 8x8, got {value!r}"
        ) from exc
    if out[0] < 1 or out[1] < 1:
        raise argparse.ArgumentTypeError("mesh dimensions must be positive")
    return out


def _number_arg(cast, what: str, lo, hi=None, *, exclusive: bool = False):
    """An argparse ``type=`` for a number ``what`` in ``[lo, hi]`` — the
    open ``(lo, hi)`` when ``exclusive`` — with ``hi=None`` unbounded
    above, so an out-of-range value exits 2 with usage instead of
    reaching a library ``ValueError``."""
    if exclusive:
        before = operator.lt
        above = "positive" if lo == 0 else f"> {lo}"
        bounds = above if hi is None else f"in ({lo}, {hi})"
    else:
        before = operator.le
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    kind = "an integer" if cast is int else "a number"

    def parse(value: str):
        try:
            out = cast(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"expected {kind}, got {value!r}"
            ) from exc
        # Written so that NaN, which compares false to everything, fails.
        if not (before(lo, out) and (hi is None or before(out, hi))):
            raise argparse.ArgumentTypeError(
                f"{what} must be {bounds}, got {value!r}"
            )
        return out

    return parse


_int_arg = functools.partial(_number_arg, int)
_float_arg = functools.partial(_number_arg, float)


def _list_arg(item):
    """An argparse ``type=`` for a non-empty comma-separated list whose
    entries each parse with the ``type=`` callable ``item``."""

    def parse(value: str) -> list:
        out = [item(token.strip()) for token in value.split(",") if token.strip()]
        if not out:
            raise argparse.ArgumentTypeError("expected at least one value")
        return out

    return parse


def _point_arg(value: str) -> tuple[int, int, int]:
    """Parse one ``scale:RxC`` rung of a ``sweep --points`` ladder."""
    scale, sep, mesh = value.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"a point must look like 14:8x8, got {value!r}"
        )
    return (_int_arg("scale", 1)(scale), *_mesh_arg(mesh))


def _spec_arg(module: str, parse: str, *, keep_text: bool = False):
    """An argparse ``type=`` that parses a spec with ``module.parse`` at
    argument time, so a malformed spec exits 2 with usage instead of a
    mid-run traceback.  ``keep_text`` returns the validated string
    instead (``--tenants`` is re-parsed with the effective
    scale/mesh/seed later)."""

    def check(value: str):
        try:
            spec = getattr(importlib.import_module(module), parse)(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        return value if keep_text else spec

    return check


_faults_arg = _spec_arg("repro.resilience.faults", "parse_fault_spec")
_slo_arg = _spec_arg("repro.obs.slo", "parse_slo_spec")
_tenants_arg = _spec_arg("repro.cluster.tenants", "parse_tenant_spec",
                         keep_text=True)
_updates_arg = _spec_arg("repro.dynamic.updates", "parse_update_spec")


def _matrix_arg(value: str) -> tuple[str, ...]:
    """Split a ``chaos --matrix`` into its ``|``-separated fault specs.
    :func:`_cmd_chaos` refuses an empty matrix and
    :func:`~repro.resilience.chaos.run_chaos_matrix` parses every spec
    before any run, so either mistake exits 2 before work starts (from
    :func:`main`, which a type error here would not return from)."""
    return tuple(s.strip() for s in value.split("|") if s.strip())


class _UsageError(Exception):
    """An argument that parsed but cannot be used; :func:`main` reports
    it like argparse does (message, usage pointer, exit 2)."""


def _check_thresholds(args) -> None:
    """Resolve ``--e-threshold``/``--h-threshold`` the way the set-up
    builder will, at the SCALE the command runs (``serve --smoke`` pins
    its tenants' but reads the flags), so a pair it would refuse exits 2
    before any work."""
    from repro.core.setup import resolve_thresholds

    if not hasattr(args, "e_threshold"):
        return
    scale = args.scale
    if args.command == "serve" and args.smoke:
        from repro.cluster.workload import SMOKE_GRAPH

        scale = SMOKE_GRAPH["scale"]
    try:
        resolve_thresholds(scale, args.e_threshold, args.h_threshold)
    except ValueError as exc:
        raise _UsageError(f"--e-threshold/--h-threshold: {exc}") from exc


def _check_root(args) -> None:
    """``--root`` must be one of the ``2**scale`` vertices it indexes."""
    n = 1 << args.scale
    if args.root is not None and not 0 <= args.root < n:
        raise _UsageError(
            f"--root {args.root} is not a vertex of a SCALE {args.scale} "
            f"graph (0 <= root < {n})"
        )


def _graph_kwargs(args) -> dict:
    """The common ``--scale/--mesh/--seed/--*-threshold`` flags as the
    keywords every set-up entry point takes."""
    rows, cols = args.mesh
    return dict(
        scale=args.scale, rows=rows, cols=cols, seed=args.seed,
        e_threshold=args.e_threshold, h_threshold=args.h_threshold,
    )


def _flags(args, fn, **given) -> dict:
    """The flags given (not ``None``) that ``fn`` takes as same-named
    keywords, plus ``given`` (which win): how a command hands its flags
    to a drill, whose own defaults fill the rest."""
    names = inspect.signature(fn).parameters
    flags = {k: v for k, v in vars(args).items() if k in names and v is not None}
    return {**flags, **given}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Scaling Graph Traversal to 281 Trillion Edges with 40 Million "
            "Cores' (PPoPP 2022) on a simulated New Sunway machine."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    from repro.core.lanes import MAX_LANES
    from repro.resilience.chaos import DEFAULT_CHAOS_MATRIX

    # Flag groups several subcommands share, each declared once.
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("--scale", type=_int_arg("scale", 1), default=14, help="Graph500 SCALE")
    graph.add_argument("--mesh", type=_mesh_arg, default=(8, 8), help="process mesh, e.g. 16x16")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_int_arg("seed", 0), default=1)
    common = argparse.ArgumentParser(add_help=False, parents=[graph, seeded])
    common.add_argument("--e-threshold", type=_int_arg("e-threshold", 1))
    common.add_argument("--h-threshold", type=_int_arg("h-threshold", 1))
    traced = argparse.ArgumentParser(add_help=False)
    traced.add_argument("--trace", metavar="PATH",
                        help="write a Chrome trace_event JSON of the run to PATH")
    resil = argparse.ArgumentParser(add_help=False)
    resil.add_argument("--faults", type=_faults_arg, metavar="SPEC",
                       help="inject faults, e.g. 'crash:rank=3,iter=2;drop:phase=L2L,count=2'")
    resil.add_argument("--checkpoint-every", type=_int_arg("checkpoint-every", 0), default=0,
                       metavar="N", help="snapshot BFS state every N levels (0 = off)")
    resil.add_argument("--max-restarts", type=_int_arg("max-restarts", 0), default=3)
    resil.add_argument("--recovery-mode", choices=("restart", "degrade"), default="restart")
    roots_arg = _int_arg("roots", 1)

    g5 = sub.add_parser("graph500", parents=[common, resil, traced],
                        help="official benchmark flow")
    g5.add_argument("--roots", type=roots_arg, default=8, help="BFS roots (64 = conforming)")
    g5.add_argument("--no-validate", action="store_true")
    g5.add_argument("--batch-roots", action="store_true",
                    help="run roots through the multi-source batch engine (up to 64 per "
                         "traversal; parents bit-identical, times amortized)")

    bfs = sub.add_parser("bfs", parents=[common, resil, traced], help="one traced BFS run")
    bfs.add_argument("--root", type=int, help="default: max-degree hub")
    bfs.add_argument("--timeline", action="store_true",
                     help="print the per-iteration component/time matrix")
    bfs.add_argument("--flame", action="store_true",
                     help="print the flame-style span summary (implies tracing)")

    sweep = sub.add_parser("sweep", parents=[seeded], help="weak-scaling ladder (Fig. 9)")
    sweep.add_argument("--points", type=_list_arg(_point_arg), default="12:4x4,14:8x8,16:16x16",
                       help="comma-separated scale:RxC ladder")

    sub.add_parser("partitions", parents=[common], help="partitioning methods (Table 1)")

    rep = sub.add_parser("report", parents=[common, traced],
                         help="metered benchmark run -> RunReport JSON artifact")
    rep.add_argument("--roots", type=roots_arg, default=8, help="BFS roots")
    rep.add_argument("--out", metavar="PATH",
                     help="RunReport JSON destination (default: stdout render)")
    rep.add_argument("--prometheus", metavar="PATH",
                     help="also write Prometheus text exposition of the registry")
    rep.add_argument("--metrics-json", metavar="PATH",
                     help="also write the registry as schema-tagged JSON (counters, gauges, "
                          "histogram buckets)")
    rep.add_argument("--smoke", action="store_true",
                     help="use the pinned SCALE-10 smoke configuration (ignores "
                          "--scale/--mesh/--seed; matches the committed CI baseline)")

    cmp_p = sub.add_parser("compare", help="diff two RunReport artifacts (perf-regression gate)")
    cmp_p.add_argument("old", metavar="OLD", help="baseline RunReport JSON")
    cmp_p.add_argument("new", metavar="NEW", help="candidate RunReport JSON")
    cmp_p.add_argument("--max-regress", default="5%",
                       help="allowed relative regression, e.g. 5%% or 0.05")

    chaos = sub.add_parser("chaos", parents=[common],
                           help="fault matrix vs. the fault-free golden run (CI chaos gate)")
    chaos.add_argument("--roots", type=roots_arg, default=4, help="BFS roots per run")
    chaos.add_argument("--smoke", action="store_true",
                       help="use the pinned SCALE-10 smoke configuration "
                            "(ignores --scale/--mesh/--seed)")
    chaos.add_argument("--matrix", type=_matrix_arg, default=DEFAULT_CHAOS_MATRIX,
                       metavar="SPECS",
                       help="'|'-separated fault specs (default: one crash, one drop, one "
                            "straggler scenario)")
    chaos.add_argument("--checkpoint-every", type=_int_arg("checkpoint-every", 0), default=1,
                       metavar="N", help="checkpoint cadence during faulty runs")

    serve = sub.add_parser("serve", parents=[common],
                           help="serve a seeded query workload through the batched traversal "
                                "service")
    # Flags one mode pins or ignores default to None: the drill of the
    # mode that reads a flag resolves it, the other mode rejects it.
    serve.add_argument("--queries", type=_int_arg("queries", 1),
                       help="total queries in the workload")
    serve.add_argument("--clients", type=_int_arg("clients", 1),
                       help="concurrent closed-loop clients")
    serve.add_argument("--batch-size", type=_int_arg("batch-size", 1, MAX_LANES), default=64,
                       help=f"roots per batch (flush threshold, max {MAX_LANES})")
    serve.add_argument("--queue-depth", type=_int_arg("queue-depth", 1),
                       help="admission-control queue bound")
    serve.add_argument("--batch-window", type=_float_arg("batch-window", 0.0), default=0.005,
                       metavar="SECONDS", help="batching window deadline")
    serve.add_argument("--hot-fraction", type=_float_arg("hot-fraction", 0.0, 1.0),
                       help="fraction of queries drawn from the hot set")
    serve.add_argument("--hot-set", type=_int_arg("hot-set", 1),
                       help="hot-set size (repeat roots exercise the cache)")
    serve.add_argument("--validate", action="store_true",
                       help="check every response bit-for-bit against a sequential run of "
                            "the same root")
    serve.add_argument("--faults", type=_faults_arg, metavar="SPEC",
                       help="inject faults into batches (crash -> replay)")
    serve.add_argument("--min-hit-rate", type=_float_arg("min-hit-rate", 0.0, 1.0),
                       metavar="FRACTION",
                       help="fail unless the cache hit rate reaches this (the CI smoke gates "
                            "> 0 on repeats)")
    serve.add_argument("--out", metavar="PATH", help="write the serve.* RunReport JSON artifact")
    serve.add_argument("--trace", metavar="PATH",
                       help="write the session's Chrome trace (wall clock; per-request tracks)")
    serve.add_argument("--telemetry-port", type=_int_arg("telemetry-port", 0, 65535),
                       metavar="PORT",
                       help="start the live telemetry endpoint (/metrics, /healthz, /slo, "
                            "/timeline, /trace/<id>) on this port (0 = ephemeral) and "
                            "self-scrape it during the run")
    serve.add_argument("--telemetry-interval", default=0.05, metavar="SECONDS",
                       type=_float_arg("telemetry-interval", 0.0, exclusive=True),
                       help="sampler and self-scrape cadence")
    serve.add_argument("--slo", type=_slo_arg, action="append", metavar="SPEC",
                       help="SLO spec stage:threshold:objective[:window], repeatable "
                            "(default with telemetry on: total:0.25:0.99; tenants: their "
                            "class SLOs)")
    serve.add_argument("--straggler-ms", type=_float_arg("straggler-ms", 0.0), metavar="MS",
                       help="wall-clock straggler injection: every batch sleeps this long "
                            "before traversal (drives the SLO monitor in the CI smoke)")
    serve.add_argument("--expect-slo", choices=("green", "fired"),
                       help="fail unless the final SLO status matches (green = ok with no "
                            "alerts; fired = degraded or alerted)")
    serve.add_argument("--tenants", type=_tenants_arg, metavar="SPEC",
                       help="multi-tenant mode: a tenant count (3) or name:class list "
                            "(search:gold,feed:silver); classes gold|silver|bronze set "
                            "quota, weight and SLOs; each tenant serves its own seeded "
                            "graph behind the cluster router")
    serve.add_argument("--replicas", type=_int_arg("replicas", 1), metavar="N",
                       help="service replicas in multi-tenant mode (>= 1)")
    serve.add_argument("--quota", type=_int_arg("quota", 1), metavar="N",
                       help="override every tenant's admission quota (default: the SLO "
                            "class quota)")
    serve.add_argument("--duration", type=_float_arg("duration", 0.0, exclusive=True),
                       metavar="SECONDS",
                       help="diurnal workload duration in multi-tenant mode")
    serve.add_argument("--smoke", action="store_true",
                       help="pinned multi-tenant smoke: SCALE-9 tenant graphs on 2x2 meshes, "
                            "seeded diurnal workload, bit-exact validation, and a mid-run "
                            "replica kill drill when --replicas >= 2 (the CI slo-smoke "
                            "gate; implies --tenants 3 unless given)")

    bserve = sub.add_parser("bench-serve", parents=[common],
                            help="batched-serving benchmark: the amortization sweep")
    bserve.add_argument("--batch-sizes", default="1,4,16,64",
                        type=_list_arg(_int_arg("batch size", 1, MAX_LANES)),
                        help="comma-separated batch sizes for the amortization sweep")
    bserve.add_argument("--json", metavar="PATH", help="write the sweep as a JSON artifact")

    mut = sub.add_parser("mutate", parents=[common],
                         help="streaming edge updates: incremental partition repair checked "
                              "against a from-scratch rebuild")
    mut.add_argument("--updates", type=_updates_arg, metavar="SPEC",
                     help="update stream spec KIND[:key=value,...] with KIND "
                          "insert|delete|mixed and keys batches=, size=, frac= (e.g. "
                          "'mixed:batches=4,size=64')")
    mut.add_argument("--batch-size", type=_int_arg("batch-size", 1), metavar="N",
                     help="override the spec's updates-per-batch size")
    mut.add_argument("--compact-every", type=_int_arg("compact-every", 1), default=4,
                     metavar="N",
                     help="merge delta overlays into the packed arrays every N batches")
    mut.add_argument("--smoke", action="store_true",
                     help="run the pinned equivalence-gate matrix (insert/delete/mixed "
                          "streams over R-MAT, power-law and ring graphs; ignores "
                          "--updates/--scale/--mesh; the CI dynamic gate)")

    ocs = sub.add_parser("ocs", parents=[seeded], help="OCS-RMA microbenchmark (Fig. 14)")
    ocs.add_argument("--mib", type=_int_arg("mib", 1), default=32, help="stream size in MiB")

    algo = sub.add_parser("algo", parents=[common, resil, traced],
                          help="run a registered vertex program (sssp, pagerank, cc, ...)")
    algo.add_argument("program", nargs="?", metavar="PROGRAM",
                      help="registered program name (see --list)")
    algo.add_argument("--root", type=int,
                      help="source vertex for traversal programs (default: max-degree hub)")
    algo.add_argument("--delta", type=_float_arg("delta", 0.0, exclusive=True),
                      metavar="WIDTH", help="bucket width for sssp-delta (default: tuned)")
    algo.add_argument("--damping", type=_float_arg("damping", 0.0, 1.0, exclusive=True),
                      help="PageRank damping factor in (0, 1)")
    algo.add_argument("--tol", type=_float_arg("tol", 0.0, exclusive=True),
                      help="PageRank convergence tolerance")
    algo.add_argument("--max-iterations", type=_int_arg("max-iterations", 1), metavar="N",
                      help="iteration cap where the program takes one")
    algo.add_argument("--unit-weights", action="store_true", default=None,
                      help="run SSSP programs with unit weights instead of the seeded "
                           "weight table")
    algo.add_argument("--report", metavar="PATH",
                      help="write the run's RunReport JSON artifact")
    algo.add_argument("--smoke", action="store_true",
                      help="run every registered program on the pinned SCALE-12 smoke graph "
                           "(ignores PROGRAM and --scale/--mesh/--seed; matches the "
                           "committed CI baseline)")
    algo.add_argument("--list", action="store_true", help="list registered programs and exit")

    return parser


def _write_trace(tracer, path) -> None:
    from repro.obs.export import write_chrome_trace

    print(f"trace: {write_chrome_trace(tracer, path)} spans -> {path}")


def _cmd_graph500(args) -> int:
    from repro.graph500.driver import run_graph500
    from repro.obs.tracer import Tracer

    if args.batch_roots and args.checkpoint_every:
        raise _UsageError("--checkpoint-every: not used by --batch-roots "
                          "(no per-root checkpoints inside a shared wave)")
    if args.batch_roots and args.recovery_mode != "restart":
        raise _UsageError("--recovery-mode degrade: --batch-roots "
                          "recovers by restart only")
    tracer = Tracer() if args.trace else None
    report = run_graph500(
        **_flags(args, run_graph500, **_graph_kwargs(args)),
        num_roots=args.roots, validate=not args.no_validate, tracer=tracer,
    )
    print(report.render())
    print(f"harmonic_mean_GTEPS: {report.mean_gteps:.3f}")
    if report.resilience is not None:
        r = report.resilience
        print(
            "resilience: "
            f"{r.get('faults_fired', 0)} faults fired, "
            f"{r['crashes']} crash(es), {r['restarts']} restart(s), "
            f"{r.get('retries', 0)} retried transfer(s), "
            f"wasted {r['wasted_seconds']:.3e} s"
        )
    if tracer is not None:
        _write_trace(tracer, args.trace)
    return 0 if report.validated is not False else 1


def _cmd_bfs(args) -> int:
    from repro.analysis.experiments import run_15d
    from repro.core.setup import build_setup
    from repro.analysis.reporting import ascii_table, format_seconds
    from repro.obs.tracer import Tracer

    tracer = Tracer() if (args.trace or args.flame or args.timeline) else None
    _check_root(args)
    setup = build_setup(**_graph_kwargs(args))
    if args.root is not None:
        setup = dataclasses.replace(setup, root=args.root)
    part, res = run_15d(
        setup,
        tracer=tracer,
        faults=args.faults,
        checkpoint_every=args.checkpoint_every,
        max_restarts=args.max_restarts,
        recovery_mode=args.recovery_mode,
    )
    print(f"classes: {part.class_sizes()}")
    print(ascii_table(
        ["iter", "frontier"] + list(res.iterations[0].directions),
        [
            [r.index, r.frontier_size] + list(r.directions.values())
            for r in res.iterations
        ],
        title="per-iteration directions:",
    ))
    print(f"visited: {res.num_visited:,}/{setup.num_vertices:,} | "
          f"time: {format_seconds(res.total_seconds)} | "
          f"sim GTEPS: {setup.num_edges / res.total_seconds / 1e9:.1f}")
    if args.faults is not None or args.checkpoint_every:
        print(f"resilience: {res.resilient.summary()}")
    if args.timeline:
        from repro.analysis.timeline import render_timeline

        print()
        print(render_timeline(res, tracer))
    if args.flame:
        from repro.obs.export import render_flame

        print()
        print(render_flame(tracer))
    if args.trace:
        _write_trace(tracer, args.trace)
    return 0


def _cmd_sweep(args) -> int:
    from repro.analysis.experiments import run_scaling_sweep
    from repro.analysis.reporting import ascii_table

    sweep = run_scaling_sweep(points=tuple(args.points), seed=args.seed)
    base = sweep[0]
    print(ascii_table(
        ["nodes", "scale", "sim GTEPS", "efficiency"],
        [
            [
                p.nodes, p.scale, f"{p.gteps:.1f}",
                f"{100 * p.gteps / (base.gteps * p.nodes / base.nodes):.0f}%",
            ]
            for p in sweep
        ],
        title="weak scaling:",
    ))
    return 0


def _cmd_partitions(args) -> int:
    from repro.analysis.experiments import run_partition_comparison
    from repro.analysis.reporting import ascii_table

    rows, cols = args.mesh
    rows_out = run_partition_comparison(
        points=((args.scale, rows, cols),), seed=args.seed
    )
    print(ascii_table(
        ["method", "sim GTEPS", "delegate KiB/node", "comm MB"],
        [
            [
                r["method"], f"{r['gteps']:.1f}",
                f"{r['delegate_bytes_per_node'] / 1024:.1f}",
                f"{r['comm_bytes'] / 1e6:.2f}",
            ]
            for r in rows_out
        ],
        title=f"partitioning methods at SCALE {args.scale}, {rows * cols} nodes:",
    ))
    return 0


def _cmd_report(args) -> int:
    from repro.graph500.driver import run_graph500
    from repro.obs.export import write_artifact, write_json
    from repro.obs.metrics import (
        MetricsRegistry,
        registry_to_json,
        to_prometheus_text,
    )
    from repro.obs.report import bfs_smoke_report, report_from_graph500
    from repro.obs.tracer import Tracer

    registry = MetricsRegistry()
    tracer = Tracer() if args.trace else None
    if args.smoke:
        report = bfs_smoke_report(metrics=registry, tracer=tracer)
    else:
        cfg = dict(_graph_kwargs(args), num_roots=args.roots)
        g500 = run_graph500(**cfg, tracer=tracer, metrics=registry)
        report = report_from_graph500(g500, context=cfg)
    if args.out:
        print(f"run report: {report.save(args.out)}")
    else:
        print(report.render())
    if args.prometheus:
        write_artifact(args.prometheus, to_prometheus_text(registry))
        print(f"prometheus: {args.prometheus}")
    if args.metrics_json:
        write_json(args.metrics_json, registry_to_json(registry))
        print(f"metrics json: {args.metrics_json}")
    if tracer is not None:
        _write_trace(tracer, args.trace)
    return 0


def _cmd_compare(args) -> int:
    from repro.obs.report import (
        RunReport,
        compare_reports,
        parse_threshold,
        render_compare,
    )

    try:
        threshold = parse_threshold(args.max_regress)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        old = RunReport.load(args.old)
        new = RunReport.load(args.new)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load RunReport: {exc}", file=sys.stderr)
        return 2
    if old.fingerprint != new.fingerprint:
        print(
            "warning: config fingerprints differ "
            f"({old.fingerprint[:12]}... vs {new.fingerprint[:12]}...); "
            "metric deltas may reflect configuration, not code",
            file=sys.stderr,
        )
    deltas = compare_reports(old, new, threshold)
    print(render_compare(deltas, max_regress=threshold,
                         title=f"{args.old} -> {args.new}"))
    return 1 if any(d.regressed for d in deltas) else 0


def _cmd_ocs(args) -> int:
    from repro.analysis.reporting import ascii_bar_chart
    from repro.sort.bucket import mpe_bucket_sort
    from repro.sort.ocs import OCSConfig, simulate_ocs_rma

    rng = np.random.default_rng(args.seed)
    values = rng.integers(0, 2**63 - 1, size=args.mib * (1 << 20) // 8)
    buckets = values & 0xFF
    mpe = mpe_bucket_sort(values, buckets, 256)
    one = simulate_ocs_rma(values, buckets, 256, config=OCSConfig(num_cgs=1))
    six = simulate_ocs_rma(values, buckets, 256, config=OCSConfig(num_cgs=6))
    print(ascii_bar_chart(
        ["MPE", "1 CG", "6 CGs"],
        [
            mpe.throughput_bytes_per_s / 1e9,
            one.throughput_bytes_per_s / 1e9,
            six.throughput_bytes_per_s / 1e9,
        ],
        log=True,
        unit=" GB/s",
        title=f"bucketing {args.mib} MiB by low 8 bits:",
    ))
    print(f"6-CG utilization: {100 * six.bandwidth_utilization():.1f}%")
    return 0


#: ``algo`` flags passed to a program as its same-named parameter.
_ALGO_PARAMS = ("root", "delta", "damping", "tol", "max_iterations")


def _cmd_algo(args) -> int:
    from repro.core.programs import PROGRAM_REGISTRY, available_programs
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.report import program_report, programs_smoke_report
    from repro.obs.tracer import Tracer

    if args.list:
        from repro.analysis.reporting import ascii_table

        print(ascii_table(
            ("program", "needs root", "description"),
            [
                (spec.name, "yes" if "root" in spec.params else "no",
                 spec.description)
                for _, spec in sorted(PROGRAM_REGISTRY.items())
            ],
            title="registered vertex programs:",
        ))
        return 0

    registry = MetricsRegistry()
    tracer = Tracer() if args.trace else None
    if args.smoke:
        report = programs_smoke_report(metrics=registry, tracer=tracer)
        if not args.report:
            print(report.render())
    else:
        available = ", ".join(available_programs())
        if args.program is None:
            raise _UsageError(f"choose a program (or pass --smoke / --list); "
                              f"available: {available}")
        spec = PROGRAM_REGISTRY.get(args.program)
        if spec is None:
            raise _UsageError(
                f"unknown program {args.program!r}; available: {available}"
            )
        # Every flag is either the program's same-named parameter or refused.
        unused = [name for name in _ALGO_PARAMS if name not in spec.params]
        if "weights" not in spec.params:
            unused.append("unit_weights")
        _reject_flags(args, f"program {args.program!r}", *unused)
        _check_root(args)
        try:
            report, summary = program_report(**_flags(
                args, program_report, **_graph_kwargs(args), tracer=tracer,
                metrics=registry,
            ))
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
        print(summary)
    if args.report:
        print(f"run report: {report.save(args.report)}")
    if tracer is not None:
        _write_trace(tracer, args.trace)
    return 0


def _cmd_mutate(args) -> int:
    from repro.dynamic.gate import run_dynamic_smoke, run_update_stream
    from repro.obs.metrics import MetricsRegistry

    if args.smoke:
        gate = run_dynamic_smoke(metrics=MetricsRegistry())
        text = f"{gate.summary()}\n{gate.verdict()}"
    elif args.updates is None:
        raise _UsageError("choose an update stream with --updates SPEC "
                          "(or pass --smoke)")
    else:
        gate, text = run_update_stream(
            args.updates, **_graph_kwargs(args), batch_size=args.batch_size,
            compact_every=args.compact_every, metrics=MetricsRegistry(),
        )
    print(text)
    return 0 if gate.passed else 1


def _cmd_chaos(args) -> int:
    from repro.obs.report import SMOKE_CONFIG
    from repro.resilience.chaos import run_chaos_matrix

    if not args.matrix:
        raise _UsageError("--matrix: expected at least one fault spec")
    if args.smoke:
        config = SMOKE_CONFIG
    else:
        config = dict(_graph_kwargs(args), num_roots=args.roots)
    report = run_chaos_matrix(
        args.matrix, checkpoint_every=args.checkpoint_every, **config
    )
    print(report.render())
    return 0 if report.passed else 1


def _reject_flags(args, mode: str, *names) -> None:
    """Exit 2 naming each of the flags ``names`` that was given although
    ``mode`` has no use for it."""
    given = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is not None]
    if given:
        raise _UsageError(f"{', '.join(given)}: not used by {mode}")


def _cmd_serve(args) -> int:
    if args.tenants is not None or args.smoke:
        from repro.cluster.workload import run_cluster_drill as drill

        _reject_flags(args, "multi-tenant serving", "trace", "clients",
                      "queue_depth", "straggler_ms", "expect_slo")
    else:
        from repro.serve.workload import run_serve_drill as drill

        _reject_flags(args, "single-graph serving (pass --tenants)",
                      "replicas", "quota", "duration")
        if args.telemetry_port is None:
            _reject_flags(args, "single-graph serving without "
                          "--telemetry-port", "slo", "expect_slo")
    report, text = drill(**_flags(args, drill, **_graph_kwargs(args)))
    print(text)
    return 1 if report.failures else 0


def _cmd_bench_serve(args) -> int:
    from repro.serve.bench import run_amortization_bench

    _, text = run_amortization_bench(
        **_graph_kwargs(args), batch_sizes=args.batch_sizes, out=args.json
    )
    print(text)
    return 0


_COMMANDS = {
    "graph500": _cmd_graph500,
    "bfs": _cmd_bfs,
    "sweep": _cmd_sweep,
    "partitions": _cmd_partitions,
    "report": _cmd_report,
    "compare": _cmd_compare,
    "ocs": _cmd_ocs,
    "algo": _cmd_algo,
    "chaos": _cmd_chaos,
    "mutate": _cmd_mutate,
    "serve": _cmd_serve,
    "bench-serve": _cmd_bench_serve,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.obs.export import ArtifactError
    from repro.resilience import CheckpointError, FaultSpecError, RecoveryError

    try:
        _check_thresholds(args)
        return _COMMANDS[args.command](args)
    except (_UsageError, FaultSpecError, CheckpointError, RecoveryError) as exc:
        # A bad argument found after parsing (a root outside the graph)
        # or resilience misconfiguration (bad spec, rank out of range,
        # corrupt snapshot, restart budget exhausted) is a usage-class
        # error: report it and exit 2 like argparse does, no traceback.
        print(f"error: {exc}", file=sys.stderr)
        print(f"usage: see `{parser.prog} {args.command} --help`", file=sys.stderr)
        return 2
    except ArtifactError as exc:
        # An artifact the run could not write fails the command, not
        # the interpreter: one line on stderr, exit 1.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

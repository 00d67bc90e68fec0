"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror the library's experiment drivers:

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
- ``chaos`` — run a fault matrix against the fault-free golden run and
  assert every recovered parent tree matches it (the CI chaos gate).
- ``mutate`` — stream seeded edge-update batches through the
  incremental partition repair path and check the repaired graph
  bit-for-bit against a from-scratch rebuild; ``--smoke`` runs the
  pinned equivalence-gate matrix (the CI dynamic gate).
- ``serve`` — run a seeded query workload through the batched traversal
  service (bounded queue, batching window, result cache); ``--validate``
  checks every response bit-for-bit against a sequential run.
  ``--tenants`` switches to the multi-tenant cluster plane: N replicas
  serve M resident tenant graphs behind a weighted-fair router with
  per-tenant quotas and SLOs, driven by a seeded diurnal workload;
  ``--smoke`` runs the pinned slo-smoke gate (validation plus a mid-run
  replica kill drill).
- ``bench-serve`` — the serving benchmark: the deterministic
  amortization sweep (batched vs sequential simulated cost per query).
  Wall-clock serving is measured by the layer bench's ``serve_open`` /
  ``cluster_diurnal`` workloads (``benchmarks/layers/``).

``graph500``, ``bfs`` and ``algo`` accept the resilience flags
``--faults SPEC`` (see :mod:`repro.resilience.faults` for the grammar),
``--checkpoint-every N``, ``--max-restarts`` and ``--recovery-mode``; a
malformed spec exits 2 with a usage message.

All output is plain text; ``--csv PATH`` additionally writes machine-
readable results where it applies.  ``graph500`` and ``bfs`` accept
``--trace out.json`` to record the run with :mod:`repro.obs` and export
a Chrome ``trace_event`` file (open in ``chrome://tracing`` or
https://ui.perfetto.dev); ``bfs`` additionally accepts ``--flame`` to
print the span-tree summary.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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


def _slo_arg(value: str):
    """Parse and validate an ``--slo`` spec at argument time."""
    from repro.obs.slo import parse_slo_spec

    try:
        return parse_slo_spec(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _tenants_arg(value: str) -> str:
    """Validate a ``--tenants`` spec (count or name:class list) at
    argument time; the spec is re-parsed with the effective scale/mesh/
    seed later, so the validated raw string is returned."""
    from repro.cluster.tenants import parse_tenant_spec

    try:
        parse_tenant_spec(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return value


def _faults_arg(value: str):
    """Parse and validate a ``--faults`` spec at argument time, so a
    malformed spec exits 2 with usage instead of a mid-run traceback."""
    from repro.resilience.faults import FaultSpecError, parse_fault_spec

    try:
        return parse_fault_spec(value)
    except FaultSpecError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _updates_arg(value: str):
    """Parse and validate an ``--updates`` spec at argument time, so a
    malformed spec exits 2 with usage, matching ``--faults``."""
    from repro.dynamic.updates import UpdateSpecError, parse_update_spec

    try:
        return parse_update_spec(value)
    except UpdateSpecError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


class _UsageError(Exception):
    """An argument that parsed but cannot be used; :func:`main` reports
    it like argparse does (message, usage pointer, exit 2)."""


def _check_thresholds(args) -> None:
    """Resolve ``--e-threshold``/``--h-threshold`` the way the set-up
    builder will, so a pair it would refuse exits 2 before any work."""
    from repro.core.setup import resolve_thresholds

    if hasattr(args, "e_threshold"):
        try:
            resolve_thresholds(args.scale, args.e_threshold, args.h_threshold)
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


#: The CI chaos gate's default scenarios: one of each recoverable
#: failure mode (crash + checkpoint restore, dropped message retries,
#: straggler slowdown).
DEFAULT_CHAOS_MATRIX = (
    "crash:rank=1,iter=2",
    "drop:phase=L2L,count=2,retries=2",
    "straggler:rank=0,factor=4,phase=EH2EH",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Scaling Graph Traversal to 281 Trillion "
            "Edges with 40 Million Cores' (PPoPP 2022) on a simulated "
            "New Sunway machine."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--scale", type=_int_arg("scale", 1), default=14, help="Graph500 SCALE"
    )
    common.add_argument(
        "--mesh", type=_mesh_arg, default=(8, 8), help="process mesh, e.g. 16x16"
    )
    seed_arg = _int_arg("seed", 0)
    common.add_argument("--seed", type=seed_arg, default=1)
    common.add_argument(
        "--e-threshold", type=_int_arg("e-threshold", 1), default=None
    )
    common.add_argument(
        "--h-threshold", type=_int_arg("h-threshold", 1), default=None
    )

    trace_help = "write a Chrome trace_event JSON of the run to PATH"

    from repro.core.lanes import MAX_LANES

    roots_arg = _int_arg("roots", 1)
    checkpoint_arg = _int_arg("checkpoint-every", 0)

    resil = argparse.ArgumentParser(add_help=False)
    resil.add_argument(
        "--faults", type=_faults_arg, default=None, metavar="SPEC",
        help="inject faults, e.g. 'crash:rank=3,iter=2;drop:phase=L2L,count=2'",
    )
    resil.add_argument(
        "--checkpoint-every", type=checkpoint_arg, default=0, metavar="N",
        help="snapshot BFS state every N levels (0 = off)",
    )
    resil.add_argument(
        "--max-restarts", type=_int_arg("max-restarts", 0), default=3
    )
    resil.add_argument(
        "--recovery-mode", choices=("restart", "degrade"), default="restart"
    )

    g5 = sub.add_parser(
        "graph500", parents=[common, resil], help="official benchmark flow"
    )
    g5.add_argument(
        "--roots", type=roots_arg, default=8, help="BFS roots (64 = conforming)"
    )
    g5.add_argument("--no-validate", action="store_true")
    g5.add_argument("--trace", metavar="PATH", default=None, help=trace_help)
    g5.add_argument(
        "--batch-roots", action="store_true",
        help="run roots through the multi-source batch engine (up to 64 "
             "per traversal; parents bit-identical, times amortized)",
    )

    bfs = sub.add_parser(
        "bfs", parents=[common, resil], help="one traced BFS run"
    )
    bfs.add_argument("--root", type=int, default=None, help="default: max-degree hub")
    bfs.add_argument(
        "--timeline",
        action="store_true",
        help="print the per-iteration component/time matrix",
    )
    bfs.add_argument("--trace", metavar="PATH", default=None, help=trace_help)
    bfs.add_argument(
        "--flame",
        action="store_true",
        help="print the flame-style span summary (implies tracing)",
    )

    sweep = sub.add_parser("sweep", help="weak-scaling ladder (Fig. 9)")
    sweep.add_argument(
        "--points",
        type=_list_arg(_point_arg),
        default="12:4x4,14:8x8,16:16x16",
        help="comma-separated scale:RxC ladder",
    )
    sweep.add_argument("--seed", type=seed_arg, default=1)

    parts = sub.add_parser(
        "partitions", parents=[common], help="partitioning methods (Table 1)"
    )
    del parts  # no extra flags beyond the common set

    rep = sub.add_parser(
        "report", parents=[common],
        help="metered benchmark run -> RunReport JSON artifact",
    )
    rep.add_argument("--roots", type=roots_arg, default=8, help="BFS roots")
    rep.add_argument("--out", metavar="PATH", default=None,
                     help="RunReport JSON destination (default: stdout render)")
    rep.add_argument("--prometheus", metavar="PATH", default=None,
                     help="also write Prometheus text exposition of the registry")
    rep.add_argument("--metrics-json", metavar="PATH", default=None,
                     help="also write the registry as schema-tagged JSON "
                          "(counters, gauges, histogram buckets)")
    rep.add_argument("--trace", metavar="PATH", default=None, help=trace_help)
    rep.add_argument("--smoke", action="store_true",
                     help="use the pinned SCALE-10 smoke configuration "
                          "(ignores --scale/--mesh/--seed; matches the "
                          "committed CI baseline)")

    cmp_p = sub.add_parser(
        "compare", help="diff two RunReport artifacts (perf-regression gate)"
    )
    cmp_p.add_argument("old", metavar="OLD", help="baseline RunReport JSON")
    cmp_p.add_argument("new", metavar="NEW", help="candidate RunReport JSON")
    cmp_p.add_argument("--max-regress", default="5%",
                       help="allowed relative regression, e.g. 5%% or 0.05")

    chaos = sub.add_parser(
        "chaos", parents=[common],
        help="fault matrix vs. the fault-free golden run (CI chaos gate)",
    )
    chaos.add_argument(
        "--roots", type=roots_arg, default=4, help="BFS roots per run"
    )
    chaos.add_argument(
        "--smoke", action="store_true",
        help="use the pinned SCALE-10 smoke configuration "
             "(ignores --scale/--mesh/--seed)",
    )
    chaos.add_argument(
        "--matrix", default=None, metavar="SPECS",
        help="'|'-separated fault specs (default: one crash, one drop, "
             "one straggler scenario)",
    )
    chaos.add_argument(
        "--checkpoint-every", type=checkpoint_arg, default=1, metavar="N",
        help="checkpoint cadence during faulty runs",
    )

    serve = sub.add_parser(
        "serve", parents=[common],
        help="serve a seeded query workload through the batched "
             "traversal service",
    )
    # Flags one mode pins or ignores default to None: the mode that
    # reads a flag resolves it, the other rejects it (exit 2).
    serve.add_argument("--queries", type=_int_arg("queries", 1),
                       default=None, help="total queries in the workload")
    serve.add_argument("--clients", type=_int_arg("clients", 1), default=None,
                       help="concurrent closed-loop clients")
    serve.add_argument("--batch-size",
                       type=_int_arg("batch-size", 1, MAX_LANES), default=64,
                       help=f"roots per batch (flush threshold, max {MAX_LANES})")
    serve.add_argument("--queue-depth", type=_int_arg("queue-depth", 1),
                       default=None, help="admission-control queue bound")
    serve.add_argument("--batch-window",
                       type=_float_arg("batch-window", 0.0), default=0.005,
                       metavar="SECONDS", help="batching window deadline")
    serve.add_argument("--hot-fraction",
                       type=_float_arg("hot-fraction", 0.0, 1.0), default=None,
                       help="fraction of queries drawn from the hot set")
    serve.add_argument("--hot-set", type=_int_arg("hot-set", 1), default=None,
                       help="hot-set size (repeat roots exercise the cache)")
    serve.add_argument("--validate", action="store_true",
                       help="check every response bit-for-bit against a "
                            "sequential run of the same root")
    serve.add_argument("--faults", type=_faults_arg, default=None,
                       metavar="SPEC",
                       help="inject faults into batches (crash -> replay)")
    serve.add_argument("--min-hit-rate", default=None,
                       type=_float_arg("min-hit-rate", 0.0, 1.0),
                       metavar="FRACTION",
                       help="fail unless the cache hit rate reaches this "
                            "(the CI smoke gates > 0 on repeats)")
    serve.add_argument("--out", metavar="PATH", default=None,
                       help="write the serve.* RunReport JSON artifact")
    serve.add_argument("--trace", metavar="PATH", default=None,
                       help="write the session's Chrome trace (wall clock; "
                            "per-request tracks)")
    serve.add_argument("--telemetry-port", default=None, metavar="PORT",
                       type=_int_arg("telemetry-port", 0, 65535),
                       help="start the live telemetry endpoint (/metrics, "
                            "/healthz, /slo, /timeline, /trace/<id>) on this "
                            "port (0 = ephemeral) and self-scrape it during "
                            "the run")
    serve.add_argument("--telemetry-interval", default=0.05, metavar="SECONDS",
                       type=_float_arg("telemetry-interval", 0.0, exclusive=True),
                       help="sampler and self-scrape cadence")
    serve.add_argument("--slo", type=_slo_arg, action="append", default=None,
                       metavar="SPEC",
                       help="SLO spec stage:threshold:objective[:window], "
                            "repeatable (default with telemetry on: "
                            "total:0.25:0.99; tenants: their class SLOs)")
    serve.add_argument("--straggler-ms", default=None, metavar="MS",
                       type=_float_arg("straggler-ms", 0.0),
                       help="wall-clock straggler injection: every batch "
                            "sleeps this long before traversal (drives the "
                            "SLO monitor in the CI smoke)")
    serve.add_argument("--expect-slo", choices=("green", "fired"),
                       default=None,
                       help="fail unless the final SLO status matches "
                            "(green = ok with no alerts; fired = degraded "
                            "or alerted)")
    serve.add_argument("--tenants", type=_tenants_arg, default=None,
                       metavar="SPEC",
                       help="multi-tenant mode: a tenant count (3) or "
                            "name:class list (search:gold,feed:silver); "
                            "classes gold|silver|bronze set quota, weight "
                            "and SLOs; each tenant serves its own seeded "
                            "graph behind the cluster router")
    serve.add_argument("--replicas", type=_int_arg("replicas", 1),
                       default=None, metavar="N",
                       help="service replicas in multi-tenant mode (>= 1)")
    serve.add_argument("--quota", type=_int_arg("quota", 1), default=None,
                       metavar="N",
                       help="override every tenant's admission quota "
                            "(default: the SLO class quota)")
    serve.add_argument("--duration", default=None, metavar="SECONDS",
                       type=_float_arg("duration", 0.0, exclusive=True),
                       help="diurnal workload duration in multi-tenant mode")
    serve.add_argument("--smoke", action="store_true",
                       help="pinned multi-tenant smoke: SCALE-9 tenant "
                            "graphs on 2x2 meshes, seeded diurnal workload, "
                            "bit-exact validation, and a mid-run replica "
                            "kill drill when --replicas >= 2 (the CI "
                            "slo-smoke gate; implies --tenants 3 unless "
                            "given)")

    bserve = sub.add_parser(
        "bench-serve", parents=[common],
        help="batched-serving benchmark: the amortization sweep",
    )
    bserve.add_argument("--batch-sizes", default="1,4,16,64",
                        type=_list_arg(_int_arg("batch size", 1, MAX_LANES)),
                        help="comma-separated batch sizes for the "
                             "amortization sweep")
    bserve.add_argument("--json", metavar="PATH", default=None,
                        help="write the sweep as a JSON artifact")

    mut = sub.add_parser(
        "mutate", parents=[common],
        help="streaming edge updates: incremental partition repair "
             "checked against a from-scratch rebuild",
    )
    mut.add_argument("--updates", type=_updates_arg, default=None,
                     metavar="SPEC",
                     help="update stream spec KIND[:key=value,...] with "
                          "KIND insert|delete|mixed and keys batches=, "
                          "size=, frac= (e.g. 'mixed:batches=4,size=64')")
    mut.add_argument("--batch-size", type=_int_arg("batch-size", 1),
                     default=None, metavar="N",
                     help="override the spec's updates-per-batch size")
    mut.add_argument("--compact-every", type=_int_arg("compact-every", 1),
                     default=4, metavar="N",
                     help="merge delta overlays into the packed arrays "
                          "every N batches")
    mut.add_argument("--smoke", action="store_true",
                     help="run the pinned equivalence-gate matrix "
                          "(insert/delete/mixed streams over R-MAT, "
                          "power-law and ring graphs; ignores --updates/"
                          "--scale/--mesh; the CI dynamic gate)")

    ocs = sub.add_parser("ocs", help="OCS-RMA microbenchmark (Fig. 14)")
    ocs.add_argument("--mib", type=_int_arg("mib", 1), default=32,
                     help="stream size in MiB")
    ocs.add_argument("--seed", type=seed_arg, default=1)

    algo = sub.add_parser(
        "algo", parents=[common, resil],
        help="run a registered vertex program (sssp, pagerank, cc, ...)",
    )
    algo.add_argument(
        "program", nargs="?", default=None, metavar="PROGRAM",
        help="registered program name (see --list)",
    )
    algo.add_argument("--root", type=int, default=None,
                      help="source vertex for traversal programs "
                           "(default: max-degree hub)")
    algo.add_argument("--delta", default=None, metavar="WIDTH",
                      type=_float_arg("delta", 0.0, exclusive=True),
                      help="bucket width for sssp-delta (default: tuned)")
    algo.add_argument("--damping", default=None,
                      type=_float_arg("damping", 0.0, 1.0, exclusive=True),
                      help="PageRank damping factor in (0, 1)")
    algo.add_argument("--tol", default=None,
                      type=_float_arg("tol", 0.0, exclusive=True),
                      help="PageRank convergence tolerance")
    algo.add_argument("--max-iterations", type=_int_arg("max-iterations", 1),
                      default=None, metavar="N",
                      help="iteration cap where the program takes one")
    algo.add_argument("--unit-weights", action="store_true", default=None,
                      help="run SSSP programs with unit weights instead "
                           "of the seeded weight table")
    algo.add_argument("--report", metavar="PATH", default=None,
                      help="write the run's RunReport JSON artifact")
    algo.add_argument("--trace", metavar="PATH", default=None, help=trace_help)
    algo.add_argument("--smoke", action="store_true",
                      help="run every registered program on the pinned "
                           "SCALE-12 smoke graph (ignores PROGRAM and "
                           "--scale/--mesh/--seed; matches the committed "
                           "CI baseline)")
    algo.add_argument("--list", action="store_true",
                      help="list registered programs and exit")

    return parser


def _write_trace(tracer, path) -> bool:
    from repro.obs.export import write_chrome_trace

    try:
        events = write_chrome_trace(tracer, path)
    except OSError as exc:
        print(f"error: cannot write trace to {path}: {exc}", file=sys.stderr)
        return False
    print(f"trace: {events} spans -> {path}")
    return True


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
        **_graph_kwargs(args),
        num_roots=args.roots,
        validate=not args.no_validate,
        tracer=tracer,
        faults=args.faults,
        checkpoint_every=args.checkpoint_every,
        max_restarts=args.max_restarts,
        recovery_mode=args.recovery_mode,
        batch_roots=args.batch_roots,
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
    wrote = _write_trace(tracer, args.trace) if tracer is not None else True
    return 0 if report.validated is not False and wrote else 1


def _cmd_bfs(args) -> int:
    from repro.analysis.experiments import run_15d
    from repro.core.setup import build_setup
    from repro.analysis.reporting import ascii_table, format_seconds
    from repro.obs.tracer import Tracer

    tracer = (
        Tracer() if (args.trace or args.flame or args.timeline) else None
    )
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
    if args.trace and not _write_trace(tracer, args.trace):
        return 1
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
    from repro.obs.metrics import MetricsRegistry, to_prometheus_text
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
        path = report.save(args.out)
        print(f"run report: {path}")
    else:
        print(report.render())
    if args.prometheus:
        from pathlib import Path

        prom = Path(args.prometheus)
        prom.parent.mkdir(parents=True, exist_ok=True)
        prom.write_text(to_prometheus_text(registry))
        print(f"prometheus: {args.prometheus}")
    if args.metrics_json:
        import json
        from pathlib import Path

        from repro.obs.metrics import registry_to_json

        dest = Path(args.metrics_json)
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_text(json.dumps(registry_to_json(registry), indent=2,
                                   sort_keys=True) + "\n")
        print(f"metrics json: {args.metrics_json}")
    if tracer is not None and not _write_trace(tracer, args.trace):
        return 1
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

    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer

    registry = MetricsRegistry()
    tracer = Tracer() if args.trace else None

    if args.smoke:
        from repro.obs.report import programs_smoke_report

        report = programs_smoke_report(metrics=registry, tracer=tracer)
        if args.report:
            print(f"run report: {report.save(args.report)}")
        else:
            print(report.render())
        if tracer is not None and not _write_trace(tracer, args.trace):
            return 1
        return 0

    available = ", ".join(available_programs())
    if args.program is None:
        raise _UsageError(
            f"choose a program (or pass --smoke / --list); available: {available}"
        )
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

    from repro.analysis.reporting import format_seconds
    from repro.core import DistributedBFS, build_program
    from repro.core.setup import build_setup
    from repro.obs.report import report_from_bfs, report_from_program
    from repro.resilience import (
        build_resilience,
        run_program_with_recovery,
        run_with_recovery,
    )

    graph = _graph_kwargs(args)
    setup = build_setup(**graph)
    part = setup.partition()
    params = {
        name: getattr(args, name) for name in _ALGO_PARAMS
        if getattr(args, name) is not None
    }
    if "root" in spec.params:
        params.setdefault("root", setup.root)
    if "weights" in spec.params and not args.unit_weights:
        from repro.core.programs import generate_weights

        params.update(
            weights=generate_weights(setup.src.size, seed=args.seed + 1),
            edge_src=setup.src, edge_dst=setup.dst,
        )
    context = dict(
        graph, e_threshold=setup.e_threshold, h_threshold=setup.h_threshold,
        **{k: v for k, v in params.items()
           if isinstance(v, (int, float, bool, str))},
    )
    engine = DistributedBFS(
        part, machine=setup.machine, tracer=tracer, metrics=registry
    )
    run, policy = build_resilience(
        args.faults, checkpoint_every=args.checkpoint_every,
        max_restarts=args.max_restarts, recovery_mode=args.recovery_mode,
        mesh=setup.mesh, rng=np.random.default_rng(args.scale),
        context=engine.context,
    )
    recovery = dict(
        faults=run.faults, checkpointer=run.checkpointer, policy=policy
    )

    if spec.native_bfs:
        recovered = run_with_recovery(engine, params["root"], **recovery)
        res = recovered.result
        print(f"bfs: {res.num_iterations} levels, "
              f"visited {res.num_visited:,}/{setup.num_vertices:,}, "
              f"simulated {format_seconds(res.total_seconds)} "
              f"({res.simulated_gteps():.1f} GTEPS)")
        report = report_from_bfs(res, name="program.bfs", context=context)
    else:
        try:
            program = build_program(args.program, part, **params)
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
        recovered = run_program_with_recovery(engine, program, **recovery)
        res = recovered.result
        scalars = ", ".join(
            f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in sorted(res.info.items())
            if isinstance(v, (int, float, bool))
        )
        print(f"{res.program}: {res.num_iterations} iterations, "
              f"{'converged' if res.converged else 'not converged'}, "
              f"simulated {format_seconds(res.total_seconds)}")
        if scalars:
            print(f"  {scalars}")
        report = report_from_program(res, context=context)
    if args.faults is not None or args.checkpoint_every:
        print(f"  resilience: {recovered.summary()}")

    if args.report:
        print(f"run report: {report.save(args.report)}")
    if tracer is not None and not _write_trace(tracer, args.trace):
        return 1
    return 0


def _cmd_mutate(args) -> int:
    from repro.analysis.reporting import ascii_table, format_seconds
    from repro.dynamic.gate import (
        EquivalenceReport,
        parts_bitwise_equal,
        run_equivalence_gate,
    )
    from repro.obs.metrics import MetricsRegistry

    metrics = MetricsRegistry()
    if args.smoke:
        # The pinned gate matrix: small-world families at default batch
        # sizes (mostly recomputes) plus a long-diameter ring with tiny
        # batches, which forces the resume-from-level patched path.
        main_gate = run_equivalence_gate(metrics=metrics)
        ring_gate = run_equivalence_gate(
            families=("ring",), scale=8, batches=3, batch_size=3,
            metrics=metrics,
        )
        merged = EquivalenceReport(cases=main_gate.cases + ring_gate.cases)
        print(merged.summary())
        modes = merged.mode_counts()
        ok = merged.ok and modes.get("patched", 0) > 0
        print(f"dynamic gate: {'PASS' if ok else 'FAIL'} "
              f"({len(merged.cases)} streams, {merged.num_batches} batches, "
              f"patch modes {modes})")
        return 0 if ok else 1

    if args.updates is None:
        raise _UsageError("choose an update stream with --updates SPEC "
                          "(or pass --smoke)")

    from repro.core.setup import build_setup
    from repro.dynamic.updates import generate_update_stream

    spec = args.updates
    if args.batch_size is not None:
        spec = dataclasses.replace(spec, size=args.batch_size)

    inc = build_setup(**_graph_kwargs(args), weak_scaled=False).incremental(
        compact_every=args.compact_every, metrics=metrics
    )
    lo, hi = inc.edges()
    stream = generate_update_stream(lo, hi, inc.num_vertices, spec,
                                    seed=args.seed)
    rows_out = []
    for batch in stream:
        rep = inc.apply_batch(batch)
        rows_out.append([
            rep.batch_index, rep.num_inserted_edges, rep.num_deleted_edges,
            rep.num_class_changes, rep.num_arcs_moved,
            f"{rep.seconds:.3e}", "yes" if rep.compacted else "",
        ])
    print(ascii_table(
        ["batch", "inserted", "deleted", "reclass", "arcs moved",
         "repair s", "compacted"],
        rows_out,
        title=f"{spec.kind} stream over SCALE {args.scale} "
              f"({inc.num_edges:,} live edges after "
              f"{len(stream)} batches):",
    ))
    part = inc.graph()
    problems = parts_bitwise_equal(part, inc.rebuild_reference())
    repair_s = inc.ledger.total_seconds
    rebuild_s = inc.rebuild_cost_estimate() * len(stream)
    print(f"repair cost: {format_seconds(repair_s)} simulated vs "
          f"{format_seconds(rebuild_s)} for {len(stream)} full rebuilds "
          f"({100 * repair_s / rebuild_s:.1f}%)")
    if problems:
        for p in problems[:8]:
            print(f"MISMATCH: {p}")
    print("equivalence vs rebuild:", "PASS" if not problems else "FAIL")
    return 0 if not problems else 1


def _cmd_chaos(args) -> int:
    from repro.analysis.reporting import ascii_table
    from repro.graph500.driver import run_graph500
    from repro.obs.report import SMOKE_CONFIG
    from repro.resilience.faults import parse_fault_spec

    if args.smoke:
        cfg = dict(SMOKE_CONFIG)
    else:
        cfg = dict(_graph_kwargs(args), num_roots=args.roots)
    if args.matrix:
        scenarios = tuple(s.strip() for s in args.matrix.split("|") if s.strip())
    else:
        scenarios = DEFAULT_CHAOS_MATRIX
    # Parse every spec up front: a malformed matrix exits 2 before any run.
    plans = [parse_fault_spec(s) for s in scenarios]

    def _run(**resilience):
        return run_graph500(**cfg, **resilience)

    golden = _run()
    golden_time = float(golden.bfs_times.sum())
    print(
        f"golden: SCALE {cfg['scale']}, {cfg['rows']}x{cfg['cols']} mesh, "
        f"{golden.roots.size} roots, validated={golden.validated}"
    )
    all_ok = golden.validated
    rows_out = []
    for spec, plan in zip(scenarios, plans):
        rep = _run(faults=plan, checkpoint_every=args.checkpoint_every)
        match = (
            np.array_equal(rep.roots, golden.roots)
            and len(rep.results) == len(golden.results)
            and all(
                np.array_equal(a.parent, b.parent)
                for a, b in zip(golden.results, rep.results)
            )
        )
        all_ok &= match and rep.validated
        r = rep.resilience or {}
        overhead = 100.0 * (float(rep.bfs_times.sum()) / golden_time - 1.0)
        rows_out.append([
            spec,
            r.get("faults_fired", 0),
            r.get("crashes", 0),
            r.get("restarts", 0),
            r.get("retries", 0),
            f"{overhead:+.1f}%",
            "MATCH" if match else "DIFF",
            "ok" if rep.validated else "FAIL",
        ])
    print(ascii_table(
        ["fault spec", "fired", "crashes", "restarts", "retries",
         "overhead", "parents", "validated"],
        rows_out,
        title="chaos matrix vs. fault-free golden run:",
    ))
    print("chaos gate:", "PASS" if all_ok else "FAIL")
    return 0 if all_ok else 1


class _StragglerEngine:
    """Wraps a batch engine so every traversal sleeps ``delay`` wall
    seconds first.  Simulated faults never move the wall clock, so this
    is the honest way to make a wall-clock SLO fire in the CI smoke."""

    def __init__(self, engine, delay: float) -> None:
        self._engine = engine
        self._delay = float(delay)

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def run_batch(self, roots, **kwargs):
        import time

        time.sleep(self._delay)
        return self._engine.run_batch(roots, **kwargs)


def _reject_flags(args, mode: str, *names) -> None:
    """Exit 2 naming each of the flags ``names`` that was given although
    ``mode`` has no use for it."""
    given = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is not None]
    if given:
        raise _UsageError(f"{', '.join(given)}: not used by {mode}")


def _resolve_flags(args, **defaults) -> None:
    """Give each flag left unset (``None``) the default of the mode that
    reads it."""
    for name, value in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, value)


def _serve_faults(args):
    """The ``--faults`` injector either serving mode hands its service."""
    if args.faults is None:
        return None
    from repro.resilience.faults import FaultInjector

    return FaultInjector(args.faults, rng=np.random.default_rng(args.seed))


def _expected_parents(sequential, roots) -> dict:
    """``{root: parent array}`` from one sequential run per distinct
    root: what ``--validate`` checks each served response against."""
    return {int(r): sequential.run(int(r)).parent for r in np.unique(roots)}


def _telemetry(args, slos=()) -> dict | None:
    """The live-plane config of a ``serve`` session, ``None`` without
    ``--telemetry-port``; ``slos`` back the aggregate ``/slo`` view."""
    if args.telemetry_port is None:
        return None
    return dict(port=args.telemetry_port, interval=args.telemetry_interval,
                slos=slos)


def _serve_gate(args, mode: str, report, telem, slo_docs, failures) -> bool:
    """The gate both ``serve`` modes end on: the mode's own ``failures``
    plus silent drops, failed queries, typed sheds (both modes retry a
    shed 10 000 times first), wrong parents, the ``--min-hit-rate``
    floor, an unscraped telemetry endpoint and ``--expect-slo``.

    ``slo_docs`` maps a tenant ("" for the single graph) to its SLO
    evaluation.  Prints each failure, then ``<mode> gate: PASS|FAIL``.
    """
    dropped = report.num_queries - report.accounted
    if dropped:
        failures.append(f"{dropped} queries got no response and no typed "
                        "shed")
    if report.typed_sheds:
        failures.append(f"{report.typed_sheds} queries shed after every retry")
    if report.failed:
        failures.append(f"{report.failed} queries failed")
    if report.wrong_parents:
        failures.append(f"{report.wrong_parents}/{report.validated} "
                        "validated parents wrong")
    elif args.validate:
        print(f"validated: {report.validated} responses bit-identical to "
              "sequential runs")
    if args.min_hit_rate is not None \
            and not report.cache_hit_rate > args.min_hit_rate:
        failures.append(f"cache hit rate {report.cache_hit_rate:.3f} "
                        f"not above {args.min_hit_rate:g}")
    if telem is not None:
        print(f"telemetry: port {telem.port}, {telem.samples} samples, "
              f"scrapes {telem.scrapes}")
        for tenant, doc in slo_docs.items():
            for row in doc["slos"]:
                name = f"{tenant}/{row['name']}" if tenant else row["name"]
                print(f"  SLO {name}: {row['status']} "
                      f"(burn {row['burn_rate']:.2f}, "
                      f"{row['bad']}/{row['observed']} bad in "
                      f"{row['window_seconds']:g}s)")
            for alert in doc["alerts"]:
                print(f"  alert [{alert['severity']}] {alert['message']}")
        if not telem.scrapes.get("/metrics") \
                or not telem.scrapes.get("/healthz"):
            failures.append("telemetry endpoint was never scraped "
                            "successfully")
        fired = [doc["status"] for doc in slo_docs.values()
                 if doc["status"] != "ok" or doc["alerts"]]
        if args.expect_slo == "green" and fired:
            failures.append(f"expected green SLO, got status {fired[0]!r}")
        elif args.expect_slo == "fired" and not fired:
            failures.append("expected the SLO to fire, but it stayed green")
    for failure in failures:
        print(f"FAIL: {failure}")
    print(f"{mode} gate:", "FAIL" if failures else "PASS")
    return not failures


def _serve_cluster(args) -> bool:
    from dataclasses import replace

    from repro.analysis.reporting import ascii_table, format_seconds
    from repro.cluster import (
        build_registry,
        parse_tenant_spec,
        run_cluster_session,
    )
    from repro.obs.metrics import MetricsRegistry
    from repro.serve.workload import make_diurnal_workload

    _reject_flags(args, "multi-tenant serving", "trace", "clients",
                  "queue_depth", "straggler_ms", "expect_slo")
    if args.smoke:
        # Pinned configuration for the CI slo-smoke gate: small tenant
        # graphs, bit-exact validation, and (with >= 2 replicas) a
        # mid-run replica kill so the failover path runs every time.
        args.scale, args.mesh, args.seed, args.validate = 9, (2, 2), 7, True
        _check_thresholds(args)  # again, at the pinned scale
        _resolve_flags(args, tenants="3", queries=120, duration=0.3,
                       hot_fraction=0.8, hot_set=8)
    _resolve_flags(args, queries=256, duration=0.5, hot_fraction=0.5,
                   hot_set=16, replicas=2)
    rows, cols = args.mesh
    scale, seed, queries, duration = args.scale, args.seed, args.queries, args.duration
    specs = [
        replace(spec, quota=args.quota, slos=args.slo and tuple(args.slo),
                e_threshold=args.e_threshold, h_threshold=args.h_threshold)
        for spec in parse_tenant_spec(
            args.tenants, scale=scale, rows=rows, cols=cols, seed=seed
        )
    ]
    registry = build_registry(specs)
    workload = make_diurnal_workload(
        registry.degrees_map(), queries, seed=seed,
        duration_seconds=duration,
        hot_fraction=args.hot_fraction, hot_set_size=args.hot_set,
    )
    kill_at = None
    if args.smoke and args.replicas >= 2:
        kill_at = ("r0", queries // 2)
    expected = None
    if args.validate:
        expected = {
            tenant.tenant_id: _expected_parents(tenant.sequential, [
                q.root for q in workload.for_tenant(tenant.tenant_id).queries
            ])
            for tenant in registry
        }
    report, cluster, telem = run_cluster_session(
        registry, workload,
        replicas=args.replicas, expected=expected,
        max_shed_retries=10_000, kill_at=kill_at, telemetry=_telemetry(args),
        batch_size=args.batch_size, batch_window=args.batch_window,
        faults=_serve_faults(args), metrics=MetricsRegistry(),
    )
    per_tenant = report.per_tenant()
    slo_docs = cluster.slo_status()
    table_rows = []
    for tenant in registry:
        tid = tenant.tenant_id
        sub = per_tenant.get(tid)
        stats = tenant.stats
        slo_state = slo_docs.get(tid, {}).get("status", "ok")
        table_rows.append([
            tid, tenant.spec.slo_class,
            sub.num_queries if sub else 0,
            sub.served if sub else 0,
            sub.typed_sheds if sub else 0,
            sub.failed if sub else 0,
            f"{100 * stats.cache_hit_rate:.0f}%",
            format_seconds(stats.p50_seconds),
            format_seconds(stats.p99_seconds),
            slo_state,
        ])
    print(ascii_table(
        ("tenant", "class", "queries", "served", "sheds", "failed",
         "hit rate", "p50", "p99", "slo"),
        table_rows,
        title=f"cluster serving: {len(registry)} tenants x "
              f"{args.replicas} replicas (SCALE {scale}, {rows}x{cols} "
              f"per tenant), {queries} queries over {duration:g}s "
              f"diurnal workload:",
    ))
    print(f"aggregate: {report.served} served "
          f"({report.cache_hits} cached), {report.typed_sheds} typed "
          f"sheds, {report.failed} failed, "
          f"{report.num_queries - report.accounted} silently dropped; "
          f"{cluster.stats.batches} batches, "
          f"{cluster.stats.replays} failover replays; "
          f"replicas live: {len(cluster.live_replicas)}/"
          f"{len(cluster.replica_ids)}")
    failures = []
    if kill_at is not None:
        downs = len(cluster.replica_ids) - len(cluster.live_replicas)
        if downs != 1:
            failures.append(f"kill drill expected exactly 1 replica down, "
                            f"found {downs}")
        else:
            print(f"failover drill: replica {kill_at[0]} killed mid-run; "
                  "in-flight batch re-routed, parents validated")
    ok = _serve_gate(args, "cluster", report, telem, slo_docs, failures)
    if args.out:
        import json
        from pathlib import Path

        doc = {
            "config": {
                "scale": scale, "mesh": f"{rows}x{cols}", "seed": seed,
                "replicas": args.replicas, "queries": queries,
                "duration_seconds": duration,
                "tenants": {t.tenant_id: t.spec.slo_class for t in registry},
            },
            "tenants": {
                tid: {
                    "slo_class": self_doc["slo_class"],
                    "requests": self_doc["requests"],
                    "completed": self_doc["completed"],
                    "cache_hits": self_doc["cache_hits"],
                    "shed": self_doc["shed"],
                    "failed": self_doc["failed"],
                    "p50_seconds": self_doc["p50_seconds"],
                    "p99_seconds": self_doc["p99_seconds"],
                }
                for tid, self_doc in
                cluster.tenants_snapshot()["tenants"].items()
            },
            "report": {
                "num_queries": report.num_queries,
                "served": report.served,
                "cache_hits": report.cache_hits,
                "typed_sheds": report.typed_sheds,
                "failed": report.failed,
                "accounted": report.accounted,
                "validated": report.validated,
                "wrong_parents": report.wrong_parents,
                "p50_seconds": report.latency_percentile(50),
                "p99_seconds": report.latency_percentile(99),
            },
            "slo": slo_docs,
            "replicas": {
                rid: rid in cluster.live_replicas
                for rid in cluster.replica_ids
            },
            "gate_passed": ok,
        }
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
    return ok


def _serve_graph(args) -> bool:
    _reject_flags(args, "single-graph serving (pass --tenants)", "replicas",
                  "quota", "duration")
    if args.telemetry_port is None:
        _reject_flags(args, "single-graph serving without --telemetry-port",
                      "slo", "expect_slo")
    _resolve_flags(args, queries=256, clients=32, queue_depth=256,
                   hot_fraction=0.5, hot_set=16)
    from repro.analysis.reporting import ascii_table, format_seconds
    from repro.obs.export import write_chrome_trace
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.report import report_from_serve
    from repro.obs.slo import SLOSpec
    from repro.obs.tracer import Tracer
    from repro.serve.bench import build_serving_pair
    from repro.serve.workload import make_workload_roots, run_serving_session

    rows, cols = args.mesh
    metrics = MetricsRegistry()
    tracer = Tracer() if args.trace else None
    sequential, batched = build_serving_pair(
        **_graph_kwargs(args), tracer=tracer, metrics=metrics
    )
    roots = make_workload_roots(
        batched.part.degrees, args.queries, seed=args.seed,
        hot_fraction=args.hot_fraction, hot_set_size=args.hot_set,
    )
    expected = _expected_parents(sequential, roots) if args.validate else None
    engine = batched
    if args.straggler_ms is not None:
        engine = _StragglerEngine(batched, args.straggler_ms / 1e3)
    report, service, telem = run_serving_session(
        engine, roots,
        clients=args.clients, expected=expected,
        batch_size=args.batch_size, queue_depth=args.queue_depth,
        batch_window=args.batch_window, faults=_serve_faults(args),
        metrics=metrics,
        telemetry=_telemetry(args, args.slo or [SLOSpec("total", 0.25, 0.99)]),
    )
    stats = service.stats
    table_rows = [
        ("queries", report.num_queries),
        ("served", report.served),
        ("cache hits", f"{report.cache_hits} "
                       f"({100 * report.cache_hit_rate:.0f}%)"),
        ("shed retries", report.shed_retries),
        ("failed", report.failed),
        ("batches", stats.batches),
        ("mean batch size", f"{stats.mean_batch_size:.1f}"),
        ("batch replays", stats.replays),
        ("p50 latency", format_seconds(stats.p50_seconds)),
        ("p99 latency", format_seconds(stats.p99_seconds)),
        ("sim seconds/query", f"{stats.sim_seconds_per_query:.3e}"),
    ]
    if expected is not None:
        table_rows.append(
            ("wrong parents",
             f"{report.wrong_parents}/{report.validated} validated")
        )
    print(ascii_table(
        ("stat", "value"), table_rows,
        title=f"serving SCALE {args.scale} on {rows}x{cols}: "
              f"batch<={args.batch_size}, queue<={args.queue_depth}, "
              f"window {args.batch_window * 1e3:g} ms",
    ))
    if args.out:
        run_report = report_from_serve(
            service, report,
            context=dict(
                scale=args.scale, rows=rows, cols=cols, seed=args.seed,
                queries=args.queries, clients=args.clients,
                hot_fraction=args.hot_fraction, hot_set=args.hot_set,
            ),
        )
        print(f"run report: {run_report.save(args.out)}")
    if args.trace:
        n = write_chrome_trace(tracer, args.trace, clock="wall")
        print(f"chrome trace: {args.trace} ({n} events, wall clock)")
    slo_docs = {"": telem.slo} if telem is not None else {}
    return _serve_gate(args, "serve", report, telem, slo_docs, [])


def _cmd_serve(args) -> int:
    serve = _serve_cluster if args.tenants is not None or args.smoke else _serve_graph
    return 0 if serve(args) else 1


def _cmd_bench_serve(args) -> int:
    from repro.analysis.reporting import ascii_table
    from repro.graph500.driver import sample_roots
    from repro.serve.bench import amortization_sweep, build_serving_pair

    rows, cols = args.mesh
    sequential, batched = build_serving_pair(**_graph_kwargs(args))
    roots = sample_roots(
        batched.part.degrees, max(args.batch_sizes),
        rng=np.random.default_rng(args.seed),
    )
    amort = amortization_sweep(
        sequential, batched, roots, batch_sizes=args.batch_sizes
    )
    print(ascii_table(
        ["batch", "sim s/query", "sequential s", "amortization",
         "bytes ratio", "waves"],
        [
            [p.batch_size, f"{p.amortized_seconds:.3e}",
             f"{p.sequential_seconds:.3e}",
             f"{p.amortization_factor:.1f}x",
             f"{p.batch_bytes / p.sequential_bytes:.2f}", p.waves]
            for p in amort
        ],
        title=f"amortized simulated cost per query "
              f"(SCALE {args.scale}, {rows}x{cols}):",
    ))
    if args.json:
        import json
        from pathlib import Path

        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({
            "schema": "repro.bench_serve/2",
            "config": dict(
                scale=args.scale, rows=rows, cols=cols, seed=args.seed,
            ),
            "amortization": [p.to_dict() for p in amort],
        }, indent=2, sort_keys=True) + "\n")
        print(f"json: {out}")
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


if __name__ == "__main__":
    sys.exit(main())

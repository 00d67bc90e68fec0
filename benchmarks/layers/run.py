#!/usr/bin/env python3
"""Layer bench: one host-clock benchmark for traversal, batching,
serving and ingest.

    python3 benchmarks/layers/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/layers/run.py --all --seed N          # every workload, untraced then traced
    python3 benchmarks/layers/run.py --repeat 10 [--workload NAME]   # steadiness of the end-to-end metrics

One run builds the workload from the seed, measures it on the host
clock for ``--seconds``, checks its outputs and prints two JSON lines:
a detail record (host fingerprint, sample counts and quartiles, the
figures only this workload has) and, last, the result
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` reports the per-layer metrics from
spans recorded around calls into each layer and writes the spans to
``benchmarks/layers/out/trace_<workload>.json``.  The names, units and
regression bounds are in ``BENCHMARK.json``; see ``README.md``.
"""

from __future__ import annotations

import os

# Before numpy is imported: one BLAS/OpenMP thread, so the two cores
# belong to the program's own threads and workers.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import faulthandler
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

try:
    import repro  # noqa: F401
except ImportError as exc:
    sys.exit(f"layer bench: cannot import the program under test ({exc})")

import harness  # noqa: E402
from serving import ClusterDiurnal, IngestMixed, ServeOpen  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from traversal import BfsRing, BfsRmat, MsbfsRmat  # noqa: E402

CONTRACT = harness.load_contract()

#: The driver allows a run 180 s.
WATCHDOG_SECONDS = 170

WORKLOADS = {
    cls.name: cls
    for cls in (BfsRmat, BfsRing, MsbfsRmat, ServeOpen, ClusterDiurnal, IngestMixed)
}


# ----------------------------------------------------------------------
# per-layer table
# ----------------------------------------------------------------------


def recorder_metrics(rec: SpanRecorder, workload) -> tuple[dict, float]:
    """The per-layer metrics every workload derives the same way, and
    the share of the traversal spans that named layers' self times
    cover.

    Set-up layers report seconds of the one traced set-up.  Traversal
    layers report *self* seconds (children excluded, so a commit's time
    excludes ledger pricing) per traced traversal or batch; their sum is
    the traversal span.  Counts are those of the first pass where the
    workload has one (they repeat exactly), of the whole run otherwise.
    """
    agg = rec.aggregate()
    counts = workload.first_pass_counts or rec.counts
    traversals = workload.traversal_spans()

    def total(name: str) -> float:
        return agg.get(name, {}).get("total", 0.0)

    covered = 0.0

    def per_traversal(name: str) -> float:
        nonlocal covered
        seconds = agg.get(name, {}).get("self", 0.0)
        covered += seconds
        return seconds / traversals if traversals else 0.0

    metrics = {
        "graph500.generate_s": total("graph500.generate"),
        "graph500.validate_s": total("graph500.validate"),
        "partition.partition_s": total("partition.partition"),
        "partition.engine_build_s": total("partition.engine_build"),
    }
    if total("partition.partition"):
        metrics["partition.arcs_per_s"] = (
            rec.counts["partition.arcs"] / total("partition.partition")
        )
    for comp in harness.COMPONENTS:
        for direction in ("push", "pull"):
            body = f"subgraphs.{comp}.{direction}_body"
            commit = f"kernels.{comp}.{direction}_commit"
            metrics[f"{body}_s"] = per_traversal(body)
            metrics[f"{commit}_s"] = per_traversal(commit)
            arcs = f"subgraphs.{comp}.{direction}_arcs"
            metrics[arcs] = counts.get(arcs, 0)
    metrics["kernels.delegate_sync_s"] = per_traversal("kernels.delegate_sync")
    metrics["kernels.parent_reduction_s"] = per_traversal("kernels.parent_reduction")
    metrics["direction.measure_s"] = per_traversal("direction.measure")
    metrics["ledger.charge_s"] = per_traversal("ledger.charge")
    metrics["kernels.scheduler.self_s"] = per_traversal(
        "kernels.scheduler"
    ) + per_traversal("msbfs.run_batch")
    for name in ("levels", "subiterations", "skips"):
        metrics[f"kernels.scheduler.{name}"] = counts.get(
            f"kernels.scheduler.{name}", 0
        )
    metrics["ledger.charges"] = counts.get("ledger.charges", 0)
    if counts.get("subgraphs.scan_arcs"):
        metrics["subgraphs.pull_hit_ratio"] = (
            counts["subgraphs.scan_hits"] / counts["subgraphs.scan_arcs"]
        )
    executed = counts.get("direction.push", 0) + counts.get("direction.pull", 0)
    if executed:
        metrics["direction.pull_share"] = counts.get("direction.pull", 0) / executed
    batches = rec.durations("msbfs.run_batch")
    if batches:
        metrics["msbfs.run_batch_s_p50"] = statistics.median(batches)
        metrics["msbfs.per_lane_ms"] = sum(batches) * 1e3 / rec.counts["msbfs.lanes"]
        metrics["msbfs.lanes_mean"] = rec.counts["msbfs.lanes"] / len(batches)
        metrics["msbfs.waves"] = counts.get("msbfs.waves", 0)
    spans = total("kernels.scheduler") + total("msbfs.run_batch")
    return metrics, (covered / spans if spans else 1.0)


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------


def run_once(args) -> int:
    # A run that hangs must still end: dump every thread and exit 1.
    faulthandler.dump_traceback_later(WATCHDOG_SECONDS, exit=True)
    fingerprint = harness.host_fingerprint()
    sizes = harness.TINY if args.tiny else harness.Sizes()
    rec = SpanRecorder() if args.trace else None
    setups = []
    # setup_s is a median of several set-ups; a traced run sets up once,
    # inside spans, for the per-layer set-up times.
    for _ in range(1 if rec is not None else harness.SETUP_REPEATS):
        workload = WORKLOADS[args.workload](args.seed, sizes, args.seconds, rec)
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    workload.measure()
    measured = time.perf_counter() - t0
    workload.check()

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "host": fingerprint,
        "setup_s": harness.summarize(setups),
        "measured_s": measured,
        "peak_rss_mb": harness.peak_rss_mb(),
        **workload.detail(),
    }
    if rec is None:
        specs = CONTRACT["end_to_end"]
        values = {**workload.end_to_end(), "setup_s": statistics.median(setups)}
    else:
        specs = CONTRACT["per_layer"]
        values, coverage = recorder_metrics(rec, workload)
        values.update(workload.layer_metrics())
        values["peak_rss_mb"] = detail["peak_rss_mb"]
        detail["layer_coverage"] = coverage
        rec.write(
            harness.OUT_DIR / f"trace_{args.workload}.json",
            workload=args.workload, seed=args.seed, host=fingerprint,
        )
    unknown = set(values) - {spec["name"] for spec in specs}
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    result = {
        "correct": workload.failed == 0,
        "attempted": int(workload.attempted),
        "failed": int(workload.failed),
        "metrics": {
            spec["name"]: {
                "value": float(values.get(spec["name"], 0.0)),
                "unit": spec["unit"],
            }
            for spec in specs
        },
    }
    print(json.dumps(detail))
    print(json.dumps(result), flush=True)
    return 0 if workload.failed == 0 else 1


# ----------------------------------------------------------------------
# fan-out: --all and --repeat run each workload in a process of its own
# (as the driver does), so peak memory and caches do not carry over.
# ----------------------------------------------------------------------


def child(args, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{workload}: run failed (exit {proc.returncode})")
    return json.loads(lines[-2]), json.loads(lines[-1])


def print_metrics(result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"    {name:40s} {metric['value']:.6g} {metric['unit']}")


def run_all(args) -> int:
    status = 0
    for name in selected(args):
        for trace in (0, 1):
            detail, result = child(args, name, args.seed, trace)
            failed_frac = result["failed"] / result["attempted"]
            print(
                f"{name} trace={trace} correct={result['correct']} "
                f"attempted={result['attempted']} failed_frac={failed_frac:.4f} "
                f"loadavg={detail['host']['loadavg_1m']:.2f}"
            )
            print_metrics(result)
            status |= not result["correct"]
    return status


def run_repeat(args) -> int:
    """Steadiness of each end-to-end metric over ``--repeat`` seeds: the
    interquartile distance as a share of the median, against the bound."""
    bounds = {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]}
    quiet = harness.host_is_quiet(harness.host_fingerprint())
    if not quiet:
        print("host is busy (1-min loadavg > nproc): reporting, not gating")
    flagged = 0
    for name in selected(args):
        runs = [
            child(args, name, args.seed + i, 0)[1] for i in range(args.repeat)
        ]
        failed = sum(run["failed"] for run in runs)
        print(f"{name}: {args.repeat} runs, {failed} failed operations")
        for metric, bound in bounds.items():
            values = [run["metrics"][metric]["value"] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            share = harness.spread(values)
            # setup_s is gated on its median only, not on its spread.
            over = metric != "setup_s" and share > bound
            flagged += over
            print(
                f"    {metric:20s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                f"spread {share:.3f}  bound {bound:.2f}"
                + ("  OVER BOUND" if over else "")
            )
        flagged += failed > 0
    return 1 if flagged and quiet else 0


def selected(args) -> list[str]:
    return [args.workload] if args.workload else list(WORKLOADS)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced then traced")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=CONTRACT["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="N untraced runs on N seeds; report the spread")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (scale 10)")
    args = parser.parse_args()
    if args.repeat:
        if args.repeat < 2:
            parser.error("--repeat needs at least 2 runs")
        return run_repeat(args)
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("give --workload NAME, --all or --repeat N")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())

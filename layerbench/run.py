#!/usr/bin/env python3
"""Layered benchmark for permpart: four closed-loop workloads, one command.

    python3 layerbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 layerbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 layerbench/run.py --quick

Workloads: queries (pure backend), search and sweep (compiled backend), cli
(cold processes).  With --trace 0 a run prints the end-to-end metrics, with
--trace 1 the per-layer metrics, as the last line of stdout:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--quick runs every workload at a small size, untraced and traced, with
every check; it is the benchmark's own test.  See layerbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
import kbuild
import tracing
import work_cli
import work_queries
import work_search
import work_sweep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = {"queries": work_queries, "search": work_search, "sweep": work_sweep, "cli": work_cli}
SETUP_SAMPLES = 7  # setup_s is the median of this many cold set-ups
LAYER_DEFAULTS = {"cli.import_ms": 0.0, "cli.interp_ms": 0.0}


def _child(args: argparse.Namespace, workload: str, kernels: Path | None, *extra: str) -> dict:
    """Run this script for one workload in a fresh process; return its
    last stdout line as JSON."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    if kernels:
        cmd += ["--kernels", str(kernels)]
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _set_up(wl, seed: int, quick: bool, kernels: Path | None):
    """Import, inputs, expected answers and warm-up; returns (plan, seconds
    scaled by the mean speed factor before and after)."""
    before = harness.speed_factor()
    start = time.perf_counter()
    if wl.BACKEND == "compiled":
        os.environ.pop("PERMPART_PURE", None)
        kbuild.use_compiled(kernels)
    else:
        os.environ["PERMPART_PURE"] = "1"
    plan = wl.setup(seed, quick)
    elapsed = time.perf_counter() - start
    return plan, elapsed * (before + harness.speed_factor()) / 2


def run_workload(args: argparse.Namespace, kernels: Path | None) -> dict:
    wl = WORKLOADS[args.workload]
    setups = []
    if not (args.trace or args.quick):
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_child(args, args.workload, kernels, "--setup-only")["setup_s"])
    plan, setup_s = _set_up(wl, args.seed, args.quick, kernels)
    setups.append(setup_s)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    min_items = 1 if args.quick else harness.min_items_for(wl.TAIL_PCT)
    wall = time.perf_counter()
    loop = harness.run_loop(plan, args.seconds, min_items)
    wall = time.perf_counter() - wall
    items, timed = loop.item_count, loop.timed_s
    tail = harness.tail_percentile(wl.TAIL_PCT, items)
    print(f"{args.workload}: {len(loop.items)} ops, {items} items, timed {timed:.3f} s scaled, "
          f"{loop.raw_s:.3f} s unscaled, of {wall:.3f} s; tail p{tail} with "
          f"{items - int(tail / 100 * items)} samples beyond", file=sys.stderr)

    if tracer:
        metrics = dict(LAYER_DEFAULTS)
        metrics.update(plan.trace_extras())
        metrics.update(tracing.layer_metrics(tracer, loop.raw_s))  # spans are unscaled
        metrics["trace.items_per_s"] = items / timed
        tracer.write(ROOT / ".bench_build" / "trace" / f"{args.workload}-{args.seed}.jsonl")
    else:
        peak = plan.peak_rss_mb() if plan.peak_rss_mb else (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        metrics = {
            "setup_s": statistics.median(setups),
            "items_per_s": items / timed,
            "latency_p50_ms": 1e3 * harness.weighted_percentile(loop, 50.0),
            "latency_tail_ms": 1e3 * harness.weighted_percentile(loop, tail),
            "peak_rss_mb": peak,
        }
    errors = loop.errors + plan.post_checks()
    harness.report_errors(errors)
    return {
        "correct": not errors,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }


def unit_of(name: str) -> str:
    if name.endswith("items_per_s"):
        return "1/s"
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_s", "s"), ("_mb", "MB"), ("calls", "count")):
        if name.endswith(suffix):
            return unit
    return "ratio"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="run length (default 15; 0, one round, with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small sizes, every check, both trace modes")
    parser.add_argument("--kernels", type=Path, help=argparse.SUPPRESS)  # a kernel build to reuse
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload is None and not args.quick:
        parser.error("--workload is required (or --quick)")
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else 15.0
    if not (SRC / "permpart" / "__init__.py").is_file():
        print(f"error: no permpart sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload in (None, "all") else [args.workload]
    kernels, built = args.kernels, None
    if kernels is None and any(WORKLOADS[n].BACKEND == "compiled" for n in names):
        start = time.perf_counter()
        kernels = built = kbuild.build(ROOT)
        print(f"kernel build: {time.perf_counter() - start:.2f} s", file=sys.stderr)
    try:
        if args.setup_only:
            _, seconds = _set_up(WORKLOADS[args.workload], args.seed, args.quick, kernels)
            print(json.dumps({"setup_s": seconds}))
            return 0
        if args.workload in WORKLOADS:
            print(json.dumps(run_workload(args, kernels)))
            return 0
        ok = True
        for name in names:
            for trace in (0, 1) if args.quick else (args.trace,):
                args.trace = trace
                result = _child(args, name, kernels)
                ok = ok and result["correct"] and not result["failed"]
                print(json.dumps({"workload": name, "trace": trace, **result}), flush=True)
        return 0 if ok else 1
    finally:
        if built:
            shutil.rmtree(built.parent, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""The closed loop shared by all workloads, and its statistics.

One caller runs one operation at a time.  A round is the workload's fixed
list of operations; the loop runs whole rounds until the run length has
passed, enough samples exist for the workload's tail percentile and the
workload's minimum number of rounds is done.  Only
the operation call is timed; its check runs after the clock stops.

Times are scaled to a reference CPU speed.  The shared machines this runs
on change speed by up to a quarter for seconds at a time, so runs of the
same code a minute apart differ by 10-20%.  A fixed pure-Python loop is
timed at most CALIBRATE_EVERY_S before each operation (and after an
operation that takes longer), and each time is multiplied by
CALIBRATION_REF_S over that loop's time (the mean of before and after for
a long operation): a time reads as it would on a CPU that runs the loop
in exactly CALIBRATION_REF_S.  The loop is the benchmark's own code, so a
change to permpart cannot move it.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

MAX_REPORTED_ERRORS = 5
CALIBRATION_REF_S = 0.001
CALIBRATION_STEPS = 500  # about CALIBRATION_REF_S of CPython 3.11 on the reference CPU
CALIBRATE_EVERY_S = 0.05


def _calibration_loop() -> int:
    """Small tuples, lists, sorting and a dict: the kind of work permpart's
    Python layers do.  It tracks their speed better than pure arithmetic,
    which misses slowdowns of the memory system."""
    table = {}
    for i in range(CALIBRATION_STEPS):
        key = tuple(range(i % 7, i % 7 + 5))
        table[key] = sorted([(j * 7919) % 101 for j in range(8)])
    return len(table)


def speed_factor() -> float:
    """CALIBRATION_REF_S over the median of five timings of the loop."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        _calibration_loop()
        times.append(time.perf_counter() - start)
    return CALIBRATION_REF_S / sorted(times)[2]


class Op(NamedTuple):
    label: str
    fn: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the output is right
    items: int = 1  # pairs or structures a sweep job covers; 1 elsewhere


@dataclass
class Plan:
    """What a workload's setup hands to the loop."""

    ops: list[Op]
    post_checks: Callable[[], list[str]] = lambda: []  # run once after the loop
    peak_rss_mb: Callable[[], float] | None = None  # default: this process
    trace_extras: Callable[[], dict[str, float]] = lambda: {}  # per-layer figures of its own
    min_rounds: int = 1


@dataclass
class LoopResult:
    # Per completed op: scaled seconds and items, in 4-byte array slots so
    # that the loop's own memory hardly grows with the number of ops (it
    # counts in peak_rss_mb).
    seconds: array
    items: array
    raw_s: float  # unscaled sum of the op times
    attempted: int
    failed: int
    errors: list[str]

    @property
    def timed_s(self) -> float:
        return math.fsum(self.seconds)

    @property
    def item_count(self) -> int:
        return sum(self.items)


def run_loop(plan: Plan, seconds: float, min_items: int) -> LoopResult:
    clock = time.perf_counter
    times, weights = array("f"), array("I")
    errors: list[str] = []
    attempted = failed = done = rounds = 0
    raw_s = 0.0
    start = calibrated = clock()
    factor = speed_factor()
    while True:
        for op in plan.ops:
            attempted += op.items
            if clock() - calibrated >= CALIBRATE_EVERY_S:
                factor = speed_factor()
                calibrated = clock()
            t0 = clock()
            try:
                out = op.fn()
            except Exception as exc:  # counted as a failed operation
                failed += op.items
                errors.append(f"{op.label}: raised {exc!r}")
                continue
            elapsed = clock() - t0
            raw_s += elapsed
            if elapsed >= CALIBRATE_EVERY_S:  # a long op: average the speed before and after it
                after = speed_factor()
                calibrated = clock()
                times.append(elapsed * (factor + after) / 2)
                factor = after
            else:
                times.append(elapsed * factor)
            weights.append(op.items)
            done += op.items
            problem = op.check(out)
            if problem:
                errors.append(f"{op.label}: {problem}")
        rounds += 1
        if clock() - start >= seconds and done >= min_items and rounds >= plan.min_rounds:
            break
    return LoopResult(times, weights, raw_s, attempted, failed, errors)


def min_items_for(tail_pct: float) -> int:
    """Samples needed for ten of them to lie beyond tail_pct."""
    return math.ceil(10 / (1 - tail_pct / 100))


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(tail_pct: float, items: int) -> float:
    """tail_pct when the samples allow it, else the highest ladder step that
    keeps ten samples beyond it (only short quick-mode runs need this)."""
    for q in (tail_pct, *TAIL_LADDER):
        if q <= tail_pct and items >= min_items_for(q):
            return q
    return 50.0


def weighted_percentile(loop: LoopResult, q: float) -> float:
    """Nearest-rank percentile of per-item times, each op counting once per
    item it covers."""
    points = sorted((s / w, w) for s, w in zip(loop.seconds, loop.items))
    target = q / 100 * sum(w for _, w in points)
    seen = 0
    for value, weight in points:
        seen += weight
        if seen >= target:
            return value
    return points[-1][0]


def expect_backend(name: str) -> None:
    """Refuse to measure a backend other than the one the workload names."""
    import permpart

    if permpart.kernel_backend() != name:
        raise RuntimeError(f"kernel backend is {permpart.kernel_backend()}, expected {name}")


def report_errors(errors: list[str]) -> None:
    for line in errors[:MAX_REPORTED_ERRORS]:
        print("check failed:", line, file=sys.stderr)
    if len(errors) > MAX_REPORTED_ERRORS:
        print(f"... {len(errors) - MAX_REPORTED_ERRORS} more", file=sys.stderr)

"""sweep: verification gates and censuses on the compiled backend.

A round runs verify_reduction(4, 4), verify_rgf_coincidence(4, 4) and
census(8) for 1,3/2,4, 1,2,3 and 1/2/3 and for the word 1,2,1,2.  The
oracle (restrict) and the word -> SetPartition -> word round trip do most of
the work here; the kernel hardly does.  The jobs are fixed; the seed only
orders them within the round.  Each job is timed whole and its time is
spread over its items: checked pairs for verify, structures for census.

census(10) takes 2.5-4 s a pattern, so a run would hold one job of each
and carry the machine's speed drift whole; the timed jobs use n = 8 (a
tenth of a second each, same code path), and the four census(10) anchors
are checked once after the loop, untimed.
"""

from __future__ import annotations

import math
import random

from harness import Op, Plan, expect_backend
from reference import bell_numbers, catalan, involutions

BACKEND = "compiled"
# Items are timed in whole jobs, so the tail counts jobs: p98 is the highest
# percentile with about ten verify_reduction jobs (the slowest per item)
# beyond it in MIN_ROUNDS rounds.
TAIL_PCT = 98.0
MIN_ROUNDS = 30
REDUCTION = (4, 4)  # max_n, max_k
RGF = (4, 4)
CENSUS_N = 8
ANCHOR_N = 10
QUICK_VERIFY = (3, 2)
QUICK_CENSUS_N = 6


def _pairs(max_n: int, max_k: int) -> int:
    return sum(math.factorial(n) for n in range(1, max_n + 1)) * sum(
        math.factorial(k) for k in range(1, max_k + 1)
    )


def census_jobs(pp, n: int) -> list[Op]:
    bell = bell_numbers(n)[n]
    censuses = [
        # (label, pattern, notion, avoiders: Sagan's anchors)
        ("census 1,3/2,4", pp.SetPartition(((1, 3), (2, 4))), "partition", catalan(n)),
        ("census 1,2,3", pp.SetPartition(((1, 2, 3),)), "partition", involutions(n)),
        ("census 1/2/3", pp.SetPartition(((1,), (2,), (3,))), "partition", 2 ** (n - 1)),
        ("census word 1,2,1,2", pp.RGFWord((1, 2, 1, 2)), "rgf", catalan(n)),
    ]
    return [
        Op(f"{label} n={n}", lambda p=pattern, m=notion: pp.census(n, p, m),
           _census_check(n, avoiders, bell), bell)
        for label, pattern, notion, avoiders in censuses
    ]


def verify_jobs(pp, reduction: tuple[int, int], rgf: tuple[int, int]) -> list[Op]:
    return [
        Op(f"verify_reduction{reduction}", lambda: pp.verify_reduction(*reduction),
           _report_check(_pairs(*reduction)), _pairs(*reduction)),
        Op(f"verify_rgf_coincidence{rgf}", lambda: pp.verify_rgf_coincidence(*rgf),
           _report_check(_pairs(*rgf)), _pairs(*rgf)),
    ]


def setup(seed: int, quick: bool) -> Plan:
    import permpart as pp

    expect_backend("compiled")
    small = verify_jobs(pp, QUICK_VERIFY, QUICK_VERIFY) + census_jobs(pp, QUICK_CENSUS_N)
    problems = _run_checked(small)  # warm-up
    if problems:
        raise AssertionError("; ".join(problems))
    ops = small if quick else verify_jobs(pp, REDUCTION, RGF) + census_jobs(pp, CENSUS_N)
    random.Random(f"sweep:{seed}").shuffle(ops)
    anchors = census_jobs(pp, QUICK_CENSUS_N + 1 if quick else ANCHOR_N)
    return Plan(ops, post_checks=lambda: _run_checked(anchors), min_rounds=1 if quick else MIN_ROUNDS)


def _run_checked(ops: list[Op]) -> list[str]:
    problems = []
    for op in ops:
        problem = op.check(op.fn())
        if problem:
            problems.append(f"{op.label}: {problem}")
    return problems


def _report_check(pairs: int):
    def check(report):
        if not report.ok:
            return f"{len(report.mismatches)} mismatches, first {report.mismatches[0]}"
        if report.pairs_checked != pairs:
            return f"{report.pairs_checked} pairs checked, expected {pairs}"
        return None

    return check


def _census_check(n: int, avoiders: int, bell: int):
    def check(row):
        if (row.n, row.avoiders) != (n, avoiders):
            return f"n={row.n} avoiders={row.avoiders}, expected n={n} avoiders={avoiders}"
        if row.avoiders + row.containers != bell:
            return f"avoiders + containers = {row.avoiders + row.containers}, Bell({n}) = {bell}"
        return None

    return check

#!/usr/bin/env python3
"""Benchmark the compiled search kernels against the pure-Python fallback.

Three fixed workloads, one per engine family:

- perm:  containment decisions for every text of size 7 against every
         pattern of size 4;
- part:  witness counting on reduced instances (block-index words of
         length 14 against length 6);
- rgf:   a census slice, matching one word pattern against the words of
         all 4140 partitions of [8].

Both backends run the identical search, so the outputs are asserted equal;
only the time may differ.

Usage: python3 benchmarks/bench_kernels.py [--repeat N]
"""

from __future__ import annotations

import argparse
import time

from permpart import enumerate_partitions, enumerate_permutations
from permpart import _kernels_py
from permpart.core import rgf_of
from permpart.reduction import reduce_perm

try:
    from permpart import _kernels as _compiled
except ImportError:
    _compiled = None


def workload_perm(kernels):
    texts = [p.values for p in enumerate_permutations(7)]
    patterns = [p.values for p in enumerate_permutations(4)]
    hits = 0
    for text in texts:
        for pattern in patterns:
            if kernels.perm_find(text, pattern) is not None:
                hits += 1
    return hits


def workload_part(kernels):
    texts = [
        rgf_of(reduce_perm(perm)).letters
        for perm in list(enumerate_permutations(7))[::42]
    ]
    patterns = [
        rgf_of(reduce_perm(perm)).letters for perm in enumerate_permutations(3)
    ]
    total = 0
    for text in texts:
        for pattern in patterns:
            total += kernels.part_count(text, pattern)
    return total


def workload_rgf(kernels):
    words = [rgf_of(sigma).letters for sigma in enumerate_partitions(8)]
    pattern = (1, 2, 1, 2)
    hits = 0
    for word in words:
        if kernels.rgf_find(word, pattern) is not None:
            hits += 1
    return hits


WORKLOADS = [
    ("perm contains 7x4", workload_perm),
    ("part count 14x6", workload_part),
    ("rgf census n=8", workload_rgf),
]


def best_time(func, kernels, repeat):
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = func(kernels)
        best = min(best, time.perf_counter() - start)
    return best, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="runs per timing (best of)")
    args = parser.parse_args()

    print(f"{'workload':<20} {'pure (s)':>10} {'compiled (s)':>13} {'speedup':>9}")
    for name, func in WORKLOADS:
        pure_time, pure_result = best_time(func, _kernels_py, args.repeat)
        if _compiled is None:
            print(f"{name:<20} {pure_time:>10.3f} {'not built':>13} {'':>9}")
            continue
        compiled_time, compiled_result = best_time(func, _compiled, args.repeat)
        assert compiled_result == pure_result, name
        print(
            f"{name:<20} {pure_time:>10.3f} {compiled_time:>13.3f} "
            f"{pure_time / compiled_time:>8.1f}x"
        )
    if _compiled is None:
        print("\ncompiled kernels unavailable; build with: pip install -e . --no-build-isolation")


if __name__ == "__main__":
    main()

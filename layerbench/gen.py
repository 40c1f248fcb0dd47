"""Seeded input generators shared by the workloads.

Every instance comes with its answer known by construction: a planted
occurrence for positives, a counting argument for negatives.  The
benchmark's own brute force (reference.py) confirms them where the subset
count is small.
"""

from __future__ import annotations

import random

from reference import blocks_of, is_rgf, restrict, standardize


def perm(rng: random.Random, n: int) -> tuple[int, ...]:
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return tuple(values)


def planted(rng: random.Random, text, k: int) -> tuple[int, ...]:
    """A random k-subset of text's positions (or elements), ascending."""
    return tuple(sorted(rng.sample(range(1, len(text) + 1), k)))


def avoids_321(rng: random.Random, n: int) -> tuple[int, ...]:
    """A random merge of two increasing sequences; it has no decreasing
    subsequence of length 3, so it avoids every pattern that contains 321."""
    values = list(range(1, n + 1))
    low = sorted(rng.sample(values, n // 2))
    chosen = set(low)
    high = [v for v in values if v not in chosen]
    out = []
    while low or high:
        source = low if low and (not high or rng.random() < 0.5) else high
        out.append(source.pop(0))
    return tuple(out)


def has_321(p) -> bool:
    return any(
        p[a] > p[b] > p[c]
        for a in range(len(p))
        for b in range(a + 1, len(p))
        for c in range(b + 1, len(p))
    )


def pattern_with_321(rng: random.Random, k: int) -> tuple[int, ...]:
    while True:
        p = perm(rng, k)
        if has_321(p):
            return p


def rgf(rng: random.Random, n: int, max_blocks: int, fresh: float = 0.3) -> tuple[int, ...]:
    """A random restricted growth word of length n with at most max_blocks
    letters; each position opens a new block with probability `fresh`."""
    word = []
    peak = 0
    for _ in range(n):
        if peak == 0 or (peak < max_blocks and rng.random() < fresh):
            peak += 1
            word.append(peak)
        else:
            word.append(rng.randint(1, peak))
    return tuple(word)


def partition(rng: random.Random, n: int, max_blocks: int, fresh: float = 0.3):
    return blocks_of(rgf(rng, n, max_blocks, fresh))


def planted_partition(rng: random.Random, blocks, k: int, shape=lambda p: True):
    """A k-subset of the text's elements whose restriction has the wanted
    shape; returns (subset, pattern) or None after a few tries."""
    n = sum(len(b) for b in blocks)
    for _ in range(50):
        subset = tuple(sorted(rng.sample(range(1, n + 1), k)))
        pattern = restrict(blocks, subset)
        if shape(pattern):
            return subset, pattern
    return None


def planted_word(rng: random.Random, word, k: int):
    """A k-subsequence of the word whose standardization is itself a
    restricted growth word; returns (positions, pattern) or None."""
    for _ in range(50):
        positions = planted(rng, word, k)
        pattern = standardize([word[i - 1] for i in positions])
        if is_rgf(pattern):
            return positions, pattern
    return None


def general(pattern) -> bool:
    """Neither all singletons nor a single block: the general matcher runs."""
    return len(pattern) > 1 and any(len(b) > 1 for b in pattern)

"""Brute-force references and cached enumerations shared by the test suite.

The matchers here are deliberately independent of the package's search
engines: full enumeration over index tuples or subsets, checking the
definitions directly.
"""

import itertools
from functools import lru_cache

from permpart import (
    Permutation,
    SetPartition,
    enumerate_partitions,
    enumerate_permutations,
)
from permpart.core import rgf_of


@lru_cache(maxsize=None)
def perms_of(n):
    return tuple(enumerate_permutations(n))


@lru_cache(maxsize=None)
def partitions_of(n):
    return tuple(enumerate_partitions(n))


@lru_cache(maxsize=None)
def rgf_words_of(n):
    return tuple(rgf_of(sigma) for sigma in partitions_of(n))


def bell_by_triangle(n):
    """Bell number via the triangle recurrence, recomputed here so the test
    does not trust the package's own implementation."""
    rows = [[1]]
    for _ in range(n):
        prev = rows[-1]
        row = [prev[-1]]
        for value in prev:
            row.append(row[-1] + value)
        rows.append(row)
    return rows[n][0]


def perm_occurrences(text, pattern):
    """All occurrences of one value word in another, in lexicographic order,
    by full enumeration of index tuples."""
    n, k = len(text), len(pattern)
    hits = []
    for indices in itertools.combinations(range(n), k):
        sub = [text[i] for i in indices]
        if all(
            (sub[a] < sub[b]) == (pattern[a] < pattern[b])
            for a in range(k)
            for b in range(a + 1, k)
        ):
            hits.append(tuple(i + 1 for i in indices))
    return hits


def witnesses_by_restriction(text, sizes):
    """Every subset of the text's ground set with one of the given sizes,
    grouped by the restriction of the text to it: one full subset scan
    answers every pattern of those sizes.

    A group's key is the restriction's block-index word, read off the text's
    blocks (its blocks numbered by first appearance in the subset), so look
    a pattern up with ``groups.get(pattern.word, [])``.  Each group lists its
    witnesses in lexicographic order.
    """
    owner = {e: b for b, block in enumerate(text.blocks) for e in block}
    groups = {}
    for k in sizes:
        for subset in itertools.combinations(range(1, text.n + 1), k):
            labels = {}
            key = tuple(labels.setdefault(owner[e], len(labels) + 1) for e in subset)
            groups.setdefault(key, []).append(subset)
    return groups


def rgf_positions(text, pattern):
    """All position sets whose subsequence value-standardizes to the pattern
    word, by full enumeration; rank relabeling is recomputed inline."""
    n, k = len(text), len(pattern)
    hits = []
    for indices in itertools.combinations(range(n), k):
        sub = tuple(text[i] for i in indices)
        rank = {v: r for r, v in enumerate(sorted(set(sub)), start=1)}
        if tuple(rank[v] for v in sub) == tuple(pattern):
            hits.append(tuple(i + 1 for i in indices))
    return hits

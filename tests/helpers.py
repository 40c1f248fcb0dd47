"""Brute-force references and cached enumerations shared by the test suite.

The matchers here are deliberately independent of the package's search
engines: full enumeration over index tuples or subsets, checking the
definitions directly.
"""

import itertools
from functools import lru_cache
from itertools import chain

from permpart import (
    Permutation,
    RGFWord,
    SetPartition,
    enumerate_partitions,
    enumerate_permutations,
)
from permpart.core import _first, _integers, rgf_of


# Avoider counts over all partitions of [n], n = 0..12, from Sagan's
# "Pattern avoidance in set partitions" (arXiv:math/0604292): the
# noncrossing partitions and the words avoiding 1,2,1,2 are counted by the
# Catalan numbers, partitions whose blocks hold at most two elements by the
# involution numbers, and partitions into at most two blocks by 2^(n-1).
# The words 1,1,1 and 1,2,3 are contained exactly where their partitions
# are, so they share those counts.
CATALAN = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012)
INVOLUTIONS = (1, 1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496, 35696, 140152)
AT_MOST_TWO_BLOCKS = (1, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)
SAGAN_ANCHORS = (
    (SetPartition(((1, 3), (2, 4))), "partition", CATALAN),
    (RGFWord((1, 2, 1, 2)), "rgf", CATALAN),
    (SetPartition(((1, 2, 3),)), "partition", INVOLUTIONS),
    (RGFWord((1, 1, 1)), "rgf", INVOLUTIONS),
    (SetPartition(((1,), (2,), (3,))), "partition", AT_MOST_TWO_BLOCKS),
    (RGFWord((1, 2, 3)), "rgf", AT_MOST_TWO_BLOCKS),
)


class Index:
    """An integer type that is no int: it has only __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def reference_partition(blocks):
    """The canonical blocks and n of SetPartition(blocks), by the
    constructor's earlier, block-by-block form, kept verbatim as the
    reference for the one-pass form: it raises the same errors, and returns
    what that one stored."""
    raw = tuple(tuple(sorted(_integers(block, "block elements"))) for block in blocks)
    elements = list(chain.from_iterable(raw))
    if not all(raw):
        raise ValueError("set partition blocks must be nonempty")
    blocks = tuple(sorted(raw, key=_first))
    n = len(elements)
    if sorted(elements) != list(range(1, n + 1)):
        raise ValueError(f"blocks do not partition [{n}]: {blocks}")
    return blocks, n


@lru_cache(maxsize=None)
def perms_of(n):
    return tuple(enumerate_permutations(n))


@lru_cache(maxsize=None)
def partitions_of(n):
    return tuple(enumerate_partitions(n))


@lru_cache(maxsize=None)
def rgf_words_of(n):
    return tuple(rgf_of(sigma) for sigma in partitions_of(n))


def reversed_partition(sigma):
    """The partition with every element i of [n] carried to n + 1 - i.  It
    carries each restriction of sigma to the reversed restriction."""
    return SetPartition(tuple(sigma.n + 1 - e for e in block) for block in sigma.blocks)


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


def flatten(word):
    """Relabel letters by order of first occurrence; the output is always a
    restricted growth word.  flatten((3, 1, 3)) == (1, 2, 1)."""
    relabel = {}
    return tuple(relabel.setdefault(letter, len(relabel) + 1) for letter in word)


def value_standardize(word):
    """Relabel letters by value rank, the smallest distinct letter becoming
    1; keeps every equality and strict comparison between positions, and need
    not give a restricted growth word.  value_standardize((3, 1, 3)) ==
    (2, 1, 2)."""
    rank = {v: i for i, v in enumerate(sorted(set(word)), start=1)}
    return tuple(rank[v] for v in word)


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
    word, by full enumeration."""
    n, k = len(text), len(pattern)
    hits = []
    for indices in itertools.combinations(range(n), k):
        if value_standardize([text[i] for i in indices]) == tuple(pattern):
            hits.append(tuple(i + 1 for i in indices))
    return hits


def rows(m):
    """2, 4, ..., 2m, 1, 3, ..., 2m - 1: two rising runs, so it avoids
    3,2,1."""
    return tuple(range(2, 2 * m + 1, 2)) + tuple(range(1, 2 * m, 2))


def layered(sizes):
    """The layered permutation with blocks of the given sizes: each block a
    falling run of consecutive values, the blocks rising.  It avoids
    2,4,1,3 and 3,1,4,2, whose longest increasing and decreasing
    subsequences, of two, it has too once it has two blocks and one of two
    or more, so only a search rules them out."""
    values, top = [], 0
    for size in sizes:
        values.extend(range(top + size, top, -1))
        top += size
    return tuple(values)


def answer_and_polls(kernels, name, text, pattern):
    """A kernel's answer and the number of times it polled its cancel."""
    calls = []
    answer = getattr(kernels, name)(text, pattern, lambda: calls.append(None))
    return answer, len(calls)

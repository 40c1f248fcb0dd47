"""The census walks of both backends against a definition scan.

part_avoiders and rgf_avoiders test each child of an avoiding parent with
one search anchored at the child's last letter (see _avoiders in
permpart._kernels_py).  The prefix is the walk's forced path, each of its
positions tested as any other child is, so a prefix that contains the
pattern dies at the first position where an occurrence ends.  Here the
counts are checked against a scan of every restricted growth word of
length n <= 8 that shares no code with the kernels: a word avoids a pattern
partition when no subset of its ground set restricts to it, read off its
blocks, and a pattern word when no subsequence value-standardizes to it.
Every pattern of up to 5 letters is checked, from every prefix of length up
to 4, both notions, both backends; and every pattern of 2 to 4 letters from
every prefix of length 5 to 7, with n its length and one more, where the
forced path runs deepest.
"""

import itertools
from collections import Counter
from functools import lru_cache

import pytest

from helpers import partitions_of, rgf_words_of, value_standardize, witnesses_by_restriction

MAX_N = 8
MAX_K = 5
MAX_PREFIX = 4
MAX_LONG_PREFIX = 7
WALKS = {"partition": "part_avoiders", "rgf": "rgf_avoiders"}

# Patterns that reach the anchored search in unusual ways, named.
ANCHOR_EDGES = {
    # the last letter is 1, so slot 0 of the search is bound before it starts
    "last letter first at slot 0": [(1, 2, 1), (1, 2, 3, 1), (1, 2, 2, 1), (1, 1, 2, 1)],
    # the last letter is new there, so the search never meets it
    "last letter first at the last slot": [(1, 1, 2), (1, 2, 1, 3), (1, 2, 2, 3), (1, 2, 1, 2, 3)],
    # in words, these letters must land above the child's last letter
    "letters above it after its first slot": [(1, 2, 3, 1, 2), (1, 2, 3, 2), (1, 2, 3, 4, 2), (1, 2, 3, 2, 1)],
}


def contained(sigma, word, sizes):
    """The pattern words of the given sizes that the word contains, as a
    partition (restrictions of sigma, its partition) and as a word."""
    restricted = set(witnesses_by_restriction(sigma, sizes))
    standardized = {
        value_standardize(sub) for size in sizes for sub in itertools.combinations(word, size)
    }
    return {"partition": restricted, "rgf": standardized}


@lru_cache(maxsize=None)
def avoiders():
    """(notion, pattern, prefix, n) -> how many words of length n start with
    the prefix and avoid the pattern, for every pattern of up to MAX_K
    letters and every prefix of up to MAX_PREFIX letters, or up to
    MAX_LONG_PREFIX letters and at most one short of n; a missing key
    counts none."""
    patterns = [word.letters for k in range(MAX_K + 1) for word in rgf_words_of(k)]
    table = Counter()
    for n in range(MAX_N + 1):
        for sigma, word in zip(partitions_of(n), rgf_words_of(n)):
            word = word.letters
            found = contained(sigma, word, range(min(n, MAX_K) + 1))
            for notion, pattern in itertools.product(WALKS, patterns):
                if pattern not in found[notion]:
                    for length in prefix_lengths(n):
                        table[notion, pattern, word[:length], n] += 1
    return table


def prefix_lengths(n):
    """The prefix lengths the scan counts for words of length n."""
    return [d for d in range(n + 1) if d <= MAX_PREFIX or n - 1 <= d <= MAX_LONG_PREFIX]


def long_prefix_cases():
    """Every growth word longer than MAX_PREFIX, up to MAX_LONG_PREFIX
    letters, as the prefix, with n its length and one more."""
    for length in range(MAX_PREFIX + 1, MAX_LONG_PREFIX + 1):
        for prefix in rgf_words_of(length):
            for n in (length, length + 1):
                yield prefix.letters, n


def walk_cases():
    """Every (prefix, n) the scan reaches."""
    for n in range(MAX_N + 1):
        for length in range(min(n, MAX_PREFIX) + 1):
            for prefix in rgf_words_of(length):
                yield prefix.letters, n


def assert_walks_match_the_scan(kernels, notion, patterns):
    walk, table = getattr(kernels, WALKS[notion]), avoiders()
    for pattern in patterns:
        for prefix, n in walk_cases():
            key = (notion, pattern, prefix, n)
            assert walk(prefix, pattern, n) == table[key], key


def test_the_scan_reads_both_notions():
    # Sagan's anchors at n = 8: Catalan for 1,3/2,4 (word 1,2,1,2) in both
    # notions, involutions for 1,2,3, and 2**7 for 1/2/3 (word 1,2,3)
    table = avoiders()
    assert table["partition", (1, 2, 1, 2), (), 8] == table["rgf", (1, 2, 1, 2), (), 8] == 1430
    assert table["partition", (1, 1, 1), (), 8] == 764
    assert table["partition", (1, 2, 3), (), 8] == 128
    # the two notions differ: 1,2,2,1 avoids the word 1,1,2 but, as a
    # partition, contains it
    assert table["rgf", (1, 1, 2), (1, 2, 2, 1), 4] == 1
    assert table["partition", (1, 1, 2), (1, 2, 2, 1), 4] == 0


@pytest.mark.parametrize("notion", WALKS)
@pytest.mark.parametrize("k", range(MAX_K + 1))
def test_walks_match_the_scan(kernels, notion, k):
    assert_walks_match_the_scan(kernels, notion, [word.letters for word in rgf_words_of(k)])


@pytest.mark.parametrize("notion", WALKS)
@pytest.mark.parametrize("edge", ANCHOR_EDGES)
def test_anchor_edges_match_the_scan(kernels, notion, edge):
    assert_walks_match_the_scan(kernels, notion, ANCHOR_EDGES[edge])


@pytest.mark.parametrize("notion", WALKS)
def test_prefixes_that_contain_the_pattern_have_no_avoiders(kernels, notion):
    walk, table = getattr(kernels, WALKS[notion]), avoiders()
    checked = 0
    for k in range(2, MAX_PREFIX + 1):
        for pattern in rgf_words_of(k):
            for prefix, n in walk_cases():
                if len(prefix) >= k and table[notion, pattern.letters, prefix, len(prefix)] == 0:
                    assert walk(prefix, pattern.letters, n) == 0, (prefix, pattern, n)
                    checked += 1
    assert checked > 100


@pytest.mark.parametrize("notion", WALKS)
def test_long_prefixes_match_the_scan(kernels, notion):
    # deep inside these prefixes, only the screens and the anchored find of
    # each forced position can tell that the prefix contains the pattern
    walk, table = getattr(kernels, WALKS[notion]), avoiders()
    none = checked = 0
    for k in range(2, 5):
        for pattern in rgf_words_of(k):
            for prefix, n in long_prefix_cases():
                count = walk(prefix, pattern.letters, n)
                assert count == table[notion, pattern.letters, prefix, n], (prefix, pattern, n)
                none += count == 0
                checked += 1
    # both answers are common: 60-65% of the cases have no avoider
    assert 10_000 < none < checked - 10_000, (none, checked)

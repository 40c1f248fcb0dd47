"""part_count and rgf_count against the definition, on both backends.

A word count steps only down to its tail slot.  Past the last slot whose
letter is new, every slot's letter is bound, and one pass of suffix sums
over their text letters' copies counts the rest; a new last letter is
counted by one scan of the positions after slot k - 2.  These tests check
the counts of every growth word of up to 8 letters against every pattern
of up to 5, in both notions, against a count by definition; the limit of
2**64 - 1, and a sum past it that no count uses; equal answers and polls on
both backends by Hypothesis, on texts with many copies of each letter; and
the reduction's parsimony on matchstick pairs, against perm_count.
"""

import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permpart import Permutation, _kernels_py, reduce_perm
from permpart.core import rgf_of
from helpers import (
    answer_and_polls,
    partitions_of,
    rgf_positions,
    rgf_words_of,
    value_standardize,
    witnesses_by_restriction,
)

MAX_N = 8
MAX_K = 5
PATTERNS = [word.letters for k in range(MAX_K + 1) for word in rgf_words_of(k)]
COUNTS = ("part_count", "rgf_count")
TOO_LARGE = r"^count exceeds 2\*\*64 - 1$"


def counts_by_definition(sigma, word):
    """How many subsets of sigma's ground set restrict to each pattern of up
    to MAX_K letters, and how many position sets of its word hold a
    subsequence that value-standardizes to it, keyed by the pattern's
    word."""
    sizes = range(MAX_K + 1)
    restricted = Counter({key: len(hits) for key, hits in witnesses_by_restriction(sigma, sizes).items()})
    standardized = Counter(
        value_standardize(sub) for size in sizes for sub in itertools.combinations(word, size)
    )
    return restricted, standardized


@pytest.mark.parametrize("n", range(MAX_N + 1))
def test_word_counts_match_the_definition(kernels, n):
    for sigma, word in zip(partitions_of(n), rgf_words_of(n)):
        restricted, standardized = counts_by_definition(sigma, word.letters)
        for pattern in PATTERNS:
            args = (word.letters, pattern)
            assert kernels.part_count(*args) == restricted[pattern], args
            assert kernels.rgf_count(*args) == standardized[pattern], args
            if n <= 5:
                assert standardized[pattern] == len(rgf_positions(*args)), args


@pytest.mark.parametrize("name", COUNTS)
def test_counts_past_two_to_the_64_raise(kernels, name):
    # C(200, 100), about 9e58: the first pass's sums are past the limit.
    with pytest.raises(OverflowError, match=TOO_LARGE):
        getattr(kernels, name)((1,) * 200, (1,) * 100)


@pytest.mark.parametrize("name", COUNTS)
def test_counts_up_to_the_limit_are_exact(kernels, name):
    # C(67, 33) is the largest C(n, n // 2) below 2**64, and C(68, 34) the
    # first one past it.
    count = getattr(kernels, name)
    assert count((1,) * 67, (1,) * 33) == math.comb(67, 33) > 2**63
    with pytest.raises(OverflowError, match=TOO_LARGE):
        count((1,) * 68, (1,) * 34)


@pytest.mark.parametrize("name", COUNTS)
def test_sums_that_no_count_uses_may_pass_the_limit(kernels, name):
    # Slot 0 takes the first 1 and slot 1 one of the 201 2s after it; the
    # tail, 1 and then 60 2s, has one run, at the end.  The 2s before the
    # second 1 start C(260, 60) runs of the tail's last 60 slots, past
    # 2**64, but none of them follows a copy of 1 after slot 1.  A pass
    # that sums every copy from the front and subtracts the prefix it
    # skips would overflow here.
    text = (1,) + (2,) * 201 + (1,) + (2,) * 60
    pattern = (1, 2, 1) + (2,) * 60
    assert getattr(kernels, name)(text, pattern) == 201


@st.composite
def growth_words(draw, max_len, max_letter):
    """A restricted growth word of up to max_len letters, none above
    max_letter."""
    letters, peak = [], 0
    for _ in range(draw(st.integers(0, max_len))):
        letter = draw(st.integers(1, min(peak + 1, max_letter)))
        letters.append(letter)
        peak = max(peak, letter)
    return tuple(letters)


@st.composite
def many_copies(draw):
    # 30 to 60 letters over 1..2 to 1..4, so every letter has many copies
    # and the tail's sums run over long lists; patterns of 4 to 6 letters
    # over 1..3, so the steps before the tail stay few enough for the pure
    # kernels, and about one pair in eight reaches a poll.
    n = draw(st.integers(30, 60))
    letters = st.integers(1, draw(st.integers(2, 4)))
    pattern = draw(growth_words(6, 3).filter(lambda p: len(p) >= 4))
    return tuple(draw(st.lists(letters, min_size=n, max_size=n))), pattern


@settings(max_examples=60, deadline=None)
@given(many_copies())
def test_word_counts_poll_alike(compiled, pair):
    for name in COUNTS:
        assert answer_and_polls(compiled, name, *pair) == answer_and_polls(_kernels_py, name, *pair), name


@st.composite
def permutation_pairs(draw):
    n = draw(st.integers(1, 25))
    k = draw(st.integers(1, min(n, 5)))
    return tuple(draw(st.permutations(range(1, n + 1)))), tuple(draw(st.permutations(range(1, k + 1))))


@settings(max_examples=60, deadline=None)
@given(permutation_pairs())
def test_matchstick_counts_equal_perm_count(compiled, pair):
    # The reduction is parsimonious: each occurrence of q in p is one
    # restriction witness of reduce_perm(q) in reduce_perm(p), and the two
    # notions coincide on matchstick pairs.
    text, pattern = pair
    words = (rgf_of(reduce_perm(Permutation(text))).letters, rgf_of(reduce_perm(Permutation(pattern))).letters)
    expected = _kernels_py.perm_count(text, pattern)
    for module in (compiled, _kernels_py):
        assert module.perm_count(text, pattern) == expected
        for name in COUNTS:
            assert getattr(module, name)(*words) == expected, (module, name)

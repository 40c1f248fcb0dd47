"""perm_count against brute force and closed forms, on both backends.

A permutation count steps through its matches only down to the pattern's
second-to-last slot: each time that slot takes a position, one pass counts
the later positions whose values fit the last slot.  These tests check the
count on every size pair up to a text of 8 and a pattern of 5, on texts
with repeated values, values outside 1..n and the extremes of a C int and
patterns with distinct values, against a count by definition; against
closed forms past brute-force sizes, one of them past 2**32; and that both
backends poll equally often.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permpart import _kernels_py
from helpers import answer_and_polls, value_standardize

INT_MIN, INT_MAX = -(2**31), 2**31 - 1
POLL_INTERVAL = 2**14


def brute_count(text, pattern):
    """The number of position sets whose text values are order isomorphic
    to the pattern, by enumerating all of them.  The pattern's values are
    distinct, so a subsequence with a repeated value never is."""
    shape = value_standardize(pattern)
    return sum(
        value_standardize(sub) == shape for sub in itertools.combinations(text, len(pattern))
    )


def texts_of(n, rng):
    """Texts of length n: the identity and its reversal, then three each of
    random permutations, random words over 1..3 (repeats), over -5..n + 5
    (values outside 1..n) and over the extremes of a C int and 0."""
    extremes = (INT_MIN, INT_MIN + 1, -1, 0, 1, INT_MAX - 1, INT_MAX)
    kinds = [range(1, n + 1), range(1, 4), range(-5, n + 6), extremes]
    texts = [tuple(range(1, n + 1)), tuple(range(n, 0, -1))]
    texts += [tuple(rng.sample(kinds[0], n)) for _ in range(3)]
    texts += [tuple(rng.choice(values) for _ in range(n)) for values in kinds[1:] for _ in range(3)]
    return texts


def patterns_of(k):
    """Every word of k distinct values from 1, 2, 3 and 7, and every
    permutation of k."""
    words = set(itertools.permutations((1, 2, 3, 7), k))
    words.update(itertools.permutations(range(1, k + 1)))
    return sorted(words)


@pytest.mark.parametrize("n", range(9))
def test_perm_count_matches_brute_force(kernels, n):
    rng = random.Random(n)
    for text in texts_of(n, rng):
        for k in range(6):
            for pattern in patterns_of(k):
                assert kernels.perm_count(text, pattern) == brute_count(text, pattern), (text, pattern)


def test_brute_force_counts_order_isomorphic_subsequences():
    assert brute_count((2, 1, 3, 3), (1, 2)) == brute_count((2, 1, 3, 3), (3, 7)) == 4
    assert brute_count((5, 5, 5), (1, 2)) == brute_count((5, 5, 5), (2, 1)) == 0
    assert brute_count((1, 2, 3), (2, 1)) == 0


# The three cases of the last slot's bounds: a lower bound only, an upper
# bound only, and both; with k >= 2 distinct values it has at least one.
# Each text puts the last slot's candidates on the extremes of a C int,
# which no sentinel bound may stand in for.
EXTREMES = [
    ((1, INT_MAX), (1, 2), 1),
    ((INT_MAX, INT_MAX), (1, 2), 0),
    ((INT_MIN, INT_MAX, INT_MAX), (1, 2), 2),
    ((1, INT_MIN), (2, 1), 1),
    ((INT_MIN, INT_MIN), (2, 1), 0),
    ((INT_MAX, INT_MIN, INT_MIN), (2, 1), 2),
    ((INT_MIN, INT_MAX, 0), (1, 3, 2), 1),
    ((INT_MIN, INT_MAX, INT_MIN + 1, INT_MAX - 1), (1, 3, 2), 2),
    ((INT_MIN, INT_MAX, INT_MIN, INT_MAX), (1, 3, 2), 0),
    ((INT_MIN, INT_MAX, 0), (3, 7), 2),
]


@pytest.mark.parametrize("text, pattern, count", EXTREMES)
def test_last_slot_bounds_at_the_extremes_of_an_int(kernels, text, pattern, count):
    assert kernels.perm_count(text, pattern) == count == brute_count(text, pattern)


@pytest.mark.parametrize("n", [0, 1, 5, 13, 24])
@pytest.mark.parametrize("k", range(1, 6))
def test_monotone_counts_are_binomials(kernels, n, k):
    # Every k-set of the identity is an occurrence of 1..k, and every k-set
    # of the reversal one of k..1.
    rising, falling = tuple(range(1, k + 1)), tuple(range(k, 0, -1))
    assert kernels.perm_count(tuple(range(1, n + 1)), rising) == math.comb(n, k)
    assert kernels.perm_count(tuple(range(n, 0, -1)), falling) == math.comb(n, k)
    assert kernels.perm_count(tuple(range(1, n + 1)), falling) == (n if k == 1 else 0)


def test_compiled_count_past_two_to_the_32(compiled):
    # C(600, 4) = 5,346,164,850: the count and the passes' sums must not wrap
    # at 32 bits.
    assert compiled.perm_count(tuple(range(1, 601)), (1, 2, 3, 4)) == math.comb(600, 4) > 2**32


@st.composite
def count_pairs(draw):
    # Texts long enough that about one count in five reaches the poll, and
    # permutations or other patterns with distinct values.
    n = draw(st.integers(30, 90))
    text = tuple(draw(st.permutations(range(1, n + 1))))
    k = draw(st.integers(1, 5))
    if draw(st.booleans()):
        pattern = tuple(draw(st.permutations(range(1, k + 1))))
    else:
        pattern = tuple(draw(st.lists(st.integers(-5, 12), min_size=k, max_size=k, unique=True)))
    return text, pattern


@settings(max_examples=60, deadline=None)
@given(count_pairs())
def test_perm_count_polls_alike(compiled, pair):
    # Equal poll counts: both backends take as many steps, and charge a pass
    # over the last slot's positions alike.
    text, pattern = pair
    assert answer_and_polls(compiled, "perm_count", text, pattern) == answer_and_polls(
        _kernels_py, "perm_count", text, pattern
    )


@pytest.mark.parametrize(
    "text, pattern", [(tuple(range(1, 6001)), (1, 2)), (tuple(range(3000, 0, -1)), (2, 1))]
)
def test_passes_count_toward_the_poll(compiled, text, pattern):
    # Slot 0 takes every position i but the last, and each pass then reads
    # the n - 1 - i positions after it, adding one step for every 64 of
    # them, so the passes alone reach the poll this often: 16 times for the
    # last slot's lower bound, 4 for its upper bound.
    n = len(text)
    floor = sum((n - 1 - i) >> 6 for i in range(n - 1)) // POLL_INTERVAL
    answer, polls = answer_and_polls(compiled, "perm_count", text, pattern)
    assert (answer, polls) == answer_and_polls(_kernels_py, "perm_count", text, pattern)
    assert answer == math.comb(n, 2) and polls >= floor > 0

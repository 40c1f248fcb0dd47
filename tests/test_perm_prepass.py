"""The permutation kernels' pre-pass, on both backends.

Before the search, perm_find and perm_count compare the longest increasing
and decreasing subsequences of the pattern with the text's, and answer at
once when the text's fall short, with no poll.  A pattern must have
distinct values.  These tests check that the pass rules out only absent
patterns, that the loop behind it still meets brute force and polls alike
on both backends, that both refuse a pattern with a repeated value alike,
and that the pass answers the monotone cases that the loop needs about
n**3 steps or more for in milliseconds.
"""

import collections
import gc
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permpart import (
    MatchResult,
    Permutation,
    _kernels_py,
    partition_contains,
    perm_contains,
    reduce_perm,
    rgf_contains,
)
from permpart.core import rgf_of
from helpers import answer_and_polls, layered, perms_of, rows, value_standardize


def monotone_runs(values):
    """The lengths of the longest strictly increasing and strictly decreasing
    subsequences, by the quadratic recurrence."""
    up, down = [], []
    for j, v in enumerate(values):
        up.append(1 + max((up[i] for i in range(j) if values[i] < v), default=0))
        down.append(1 + max((down[i] for i in range(j) if values[i] > v), default=0))
    return max(up, default=0), max(down, default=0)


# Exhaustive searches that the pre-pass now rules out: 24..1 has no
# increasing pair, 1..80,000 no decreasing one, and a constant text neither,
# as the runs are strict.
RULED_OUT = [
    (tuple(range(24, 0, -1)), (4, 3, 2, 1, 5)),
    (tuple(range(1, 80001)), (2, 1)),
    ((5,) * 1000, (1, 2)),
]


@pytest.mark.parametrize("text, pattern", RULED_OUT, ids=["falling-24", "rising-80000", "constant-1000"])
def test_ruled_out_searches_never_poll(kernels, text, pattern):
    # A cancel that stops at its first call: a search that took a single
    # poll interval would raise.
    for name, absent in (("perm_find", None), ("perm_count", 0)):
        assert answer_and_polls(kernels, name, text, pattern) == (absent, 0)
        assert getattr(kernels, name)(text, pattern, lambda: True) == absent


def test_perm_kernels_match_brute_force(compiled):
    # Every pair with n <= 7 and k <= 4.  Among the absent patterns, some
    # are ruled out by the pre-pass and the rest by the search.
    patterns = [p.values for k in range(5) for p in perms_of(k)]
    negatives = collections.Counter()
    for n in range(8):
        for text in perms_of(n):
            text = text.values
            hits = {}
            for k in range(min(n, 4) + 1):
                for indices in itertools.combinations(range(n), k):
                    hits.setdefault(value_standardize([text[i] for i in indices]), []).append(
                        tuple(i + 1 for i in indices)
                    )
            runs = monotone_runs(text)
            for pattern in patterns:
                found = hits.get(pattern, [])
                for kernels in (compiled, _kernels_py):
                    assert kernels.perm_find(text, pattern) == (found[0] if found else None)
                    assert kernels.perm_count(text, pattern) == len(found)
                if not found and len(pattern) <= n:
                    need = monotone_runs(pattern)
                    negatives[need[0] > runs[0] or need[1] > runs[1]] += 1
    assert negatives[True] > 0 and negatives[False] > 0


@st.composite
def layered_avoiders(draw):
    # At least 16 blocks, so that the longer texts reach the poll, and one
    # of two or more: the text has increasing and decreasing pairs, so both
    # patterns pass the pre-pass.
    sizes = draw(st.lists(st.integers(1, 3), min_size=16, max_size=40).filter(lambda s: max(s) > 1))
    return layered(sizes), draw(st.sampled_from([(2, 4, 1, 3), (3, 1, 4, 2)]))


@settings(max_examples=50, deadline=None)
@given(layered_avoiders())
def test_searched_negatives_poll_alike(compiled, pair):
    # Equal poll counts: both backends search as many steps past the pass.
    text, pattern = pair
    assert min(monotone_runs(text)) >= 2
    for name, absent in (("perm_find", None), ("perm_count", 0)):
        answer = answer_and_polls(compiled, name, text, pattern)
        assert answer == answer_and_polls(_kernels_py, name, text, pattern)
        assert answer[0] == absent


# A pattern with a repeated value is refused, after any TypeError of either
# word; an empty pattern, or one longer than its text, is answered before
# any value is read.  The text may repeat values.
REPEATS = "a permutation pattern must have distinct values"
REPEATED_PATTERNS = [
    ((2, 1, 3, 3), (2, 1, 2, 3), ValueError, REPEATS),
    ((5, 5, 5), (1, 1), ValueError, REPEATS),
    ((1, 2, 3, 4), (3, 7, 3), ValueError, REPEATS),
    ((-(2**31), 2**31 - 1, 0), (2**31 - 1, 2**31 - 1), ValueError, REPEATS),
    ((2.0, 1, 3), (1, 1), TypeError, "integer"),
    ((2, 1, 3), (1, 1.5, 1), TypeError, "integer"),
    ((1,), (1, 1), None, (None, 0)),
    (("a",), (2, 2), None, (None, 0)),
    (("a", "b"), (), None, ((), 1)),
]


@pytest.mark.parametrize(
    "text, pattern, error, outcome",
    REPEATED_PATTERNS,
    ids="text-ties pair spread int-extremes float-text float-pattern longer longer-unread empty".split(),
)
def test_repeated_pattern_values_are_refused(kernels, text, pattern, error, outcome):
    if error is None:
        assert (kernels.perm_find(text, pattern), kernels.perm_count(text, pattern)) == outcome
        return
    for name in ("perm_find", "perm_count"):
        with pytest.raises(error, match=outcome):
            getattr(kernels, name)(text, pattern)


def random_avoided_pair():
    """A random 200-permutation and the decreasing pattern one longer than
    its longest decreasing subsequence."""
    text = tuple(random.Random(200).sample(range(1, 201), 200))
    return text, tuple(range(monotone_runs(text)[1] + 1, 0, -1))


GATED = [random_avoided_pair(), (rows(1000), (3, 2, 1))]


def best_time(call, make):
    """The fastest of three calls, each on new objects from make, with the
    collector off, so that one pause on a busy machine does not count."""
    times, answers = [], []
    gc.disable()
    try:
        for _ in range(3):
            args = make()
            start = time.perf_counter()
            answers.append(call(*args))
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return min(times), answers


@pytest.mark.parametrize("text, pattern", GATED, ids=["random-200", "rows-2000"])
def test_monotone_absences_answer_within_ten_ms(kernels, text, pattern):
    # Compiled, the loop took 1.9 s for the decreasing pattern at n = 150
    # and 283 ms for 3,2,1 in two rows at n = 2,000.  The reductions go to
    # the permutation kernel by the matchstick route; each call is timed on
    # new objects, so matchstick recognition counts too.
    for call, make in (
        (perm_contains, lambda: (Permutation(text), Permutation(pattern))),
        (
            partition_contains,
            lambda: (reduce_perm(Permutation(text)), reduce_perm(Permutation(pattern))),
        ),
        (
            rgf_contains,
            lambda: (
                rgf_of(reduce_perm(Permutation(text))),
                rgf_of(reduce_perm(Permutation(pattern))),
            ),
        ),
    ):
        seconds, answers = best_time(call, make)
        assert seconds < 0.01, call.__name__
        assert answers == [MatchResult(False)] * 3

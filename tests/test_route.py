"""The matchstick route: a find on two matchstick partitions, or on their
words, is answered by the permutation kernel on the permutations they
encode, with the least occurrence carried to its witness.  These tests pin
the route down (which kernel each pair reaches), the one matchstick test
behind it, and that every answer is the one the partition and word
kernels give without it."""

import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permpart import (
    MatchResult,
    Permutation,
    RGFWord,
    SetPartition,
    is_matchstick,
    partition_contains,
    perm_of_matchstick,
    reduce_perm,
    rgf_contains,
)
from permpart import _kernels_py, matchers
from permpart.core import rgf_of
from helpers import partitions_of, perms_of, rgf_words_of

SEARCHES = ("perm_find", "perm_count", "part_find", "part_count", "rgf_find", "rgf_count")


@pytest.fixture
def calls(monkeypatch):
    """A stand-in for matchers._K that runs the pure kernels and counts
    the calls to each search."""
    seen = dict.fromkeys(SEARCHES, 0)

    def counted(name):
        def search(*args):
            seen[name] += 1
            return getattr(_kernels_py, name)(*args)

        return search

    monkeypatch.setattr(
        matchers, "_K", types.SimpleNamespace(**{name: counted(name) for name in SEARCHES})
    )
    return seen


def _unrouted(find, text, pattern):
    """The answer of a partition or word find kernel, as a MatchResult."""
    hit = find(text, pattern)
    return MatchResult(hit is not None, hit)


def _by_blocks(sigma):
    """The definition: [2n] in n pairs, each joining an element <= n to one
    above n; the permutation, read off the pairs, or None."""
    half, odd = divmod(sigma.n, 2)
    if odd or len(sigma.blocks) != half:
        return None
    if not all(len(block) == 2 and block[0] <= half < block[1] for block in sigma.blocks):
        return None
    values = [0] * half
    for low, high in sigma.blocks:
        values[low - 1] = high - half
    return tuple(values)


REDUCED = {m: [(p, reduce_perm(p)) for p in perms_of(m)] for m in range(7)}


@pytest.mark.parametrize("notion", ["partition", "rgf"])
def test_reduced_pair_goes_to_the_permutation_kernel(calls, notion):
    text, pattern = Permutation((3, 7, 1, 5, 2, 6, 4)), Permutation((2, 3, 1))
    reduced_text, reduced_pattern = reduce_perm(text), reduce_perm(pattern)
    if notion == "partition":
        result = partition_contains(reduced_text, reduced_pattern)
    else:
        result = rgf_contains(rgf_of(reduced_text), rgf_of(reduced_pattern))
    assert result == MatchResult(True, (1, 2, 3, 8, 10, 14))  # 3, 7, 1 and their values + 7
    assert calls == dict.fromkeys(SEARCHES, 0) | {"perm_find": 1}


@pytest.mark.parametrize(
    "text",
    [
        SetPartition(((1, 3, 5), (2, 4), (6,))),  # 3 blocks over 6, as a matchstick has
        SetPartition(((1, 2), (3, 5), (4, 6))),  # 3 pairs, but 1 and 2 pair up
        SetPartition(((1, 4), (2, 6), (3,), (5,))),  # 4 blocks over 6
    ],
    ids=["lower-half-repeats", "pair-in-lower-half", "four-blocks"],
)
@pytest.mark.parametrize("notion", ["partition", "rgf"])
def test_other_pairs_never_reach_the_permutation_kernel(calls, text, notion):
    pattern = reduce_perm(Permutation((2, 1)))
    if notion == "partition":
        for a, b in ((text, pattern), (pattern, text)):
            expected = _unrouted(_kernels_py.part_find, a.word, b.word)
            assert partition_contains(a, b) == expected
    else:
        for a, b in ((rgf_of(text), rgf_of(pattern)), (rgf_of(pattern), rgf_of(text))):
            expected = _unrouted(_kernels_py.rgf_find, a.letters, b.letters)
            assert rgf_contains(a, b) == expected
    assert calls["perm_find"] == 0


def test_recognition_is_the_block_definition():
    for n in range(10):
        for sigma in partitions_of(n):
            values = _by_blocks(sigma)
            assert is_matchstick(sigma) == (values is not None)
            assert RGFWord(sigma.word)._unreduced == values
            if values is not None:
                assert perm_of_matchstick(sigma).values == values
                assert reduce_perm(Permutation(values)) == sigma
            else:
                with pytest.raises(ValueError, match="matchstick"):
                    perm_of_matchstick(sigma)
    assert sum(1 for sigma in partitions_of(8) if is_matchstick(sigma)) == 24


def test_recognition_recovers_the_reduced_permutation():
    for m in range(7):
        for perm, reduced in REDUCED[m]:
            assert reduced._unreduced == perm.values
            assert rgf_of(reduced)._unreduced == perm.values


def test_reduced_pairs_answer_as_the_word_kernels(kernels, compiled):
    # All 133,569 reduced pairs, texts of up to 6 and patterns of up to 5,
    # in both notions.  The references are the compiled find kernels, whose
    # answers tests/test_kernels.py ties to the pure ones.
    for m in range(1, 7):
        for _, text in REDUCED[m]:
            text_word = rgf_of(text)
            for k in range(1, 6):
                for _, pattern in REDUCED[k]:
                    expected = _unrouted(compiled.part_find, text.word, pattern.word)
                    assert partition_contains(text, pattern) == expected
                    assert rgf_contains(text_word, rgf_of(pattern)) == expected


def test_small_pairs_answer_as_the_word_kernels(kernels, compiled):
    # Every partition pair and every word pair with both sizes up to 6.
    partitions = [sigma for n in range(7) for sigma in partitions_of(n)]
    words = [word for n in range(7) for word in rgf_words_of(n)]
    for text in partitions:
        for pattern in partitions:
            expected = _unrouted(compiled.part_find, text.word, pattern.word)
            assert partition_contains(text, pattern) == expected
    for text in words:
        for pattern in words:
            expected = _unrouted(compiled.rgf_find, text.letters, pattern.letters)
            assert rgf_contains(text, pattern) == expected


def perms_up_to(size):
    return st.integers(0, size).flatmap(lambda n: st.permutations(range(1, n + 1)))


@settings(max_examples=150, deadline=None)
@given(text_values=perms_up_to(20), pattern_values=perms_up_to(7))
def test_reduced_pairs_past_the_exhaustive_range(compiled, text_values, pattern_values):
    text = reduce_perm(Permutation(tuple(text_values)))
    pattern = reduce_perm(Permutation(tuple(pattern_values)))
    text_word, pattern_word = rgf_of(text), rgf_of(pattern)
    saved = matchers._K
    try:
        for table in (compiled, _kernels_py):
            matchers._K = table
            expected = _unrouted(table.part_find, text.word, pattern.word)
            assert partition_contains(text, pattern) == expected
            assert _unrouted(table.rgf_find, text_word.letters, pattern_word.letters) == expected
            assert rgf_contains(text_word, pattern_word) == expected
    finally:
        matchers._K = saved

import itertools
import pickle
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permpart import (
    Permutation,
    RGFWord,
    SetPartition,
    partition_of_rgf,
    restrict,
    rgf_of,
)
from helpers import Index, flatten, partitions_of, value_standardize


def subsets(n):
    for k in range(n + 1):
        yield from itertools.combinations(range(1, n + 1), k)


class TestTypes:
    def test_permutation_validates(self):
        assert Permutation((2, 3, 1)).n == 3
        assert Permutation(()).n == 0
        with pytest.raises(ValueError):
            Permutation((2, 2, 1))
        with pytest.raises(ValueError):
            Permutation((1, 3))

    def test_set_partition_canonicalizes(self):
        sigma = SetPartition(((4, 2), (3, 1)))
        assert sigma.blocks == ((1, 3), (2, 4))
        assert sigma == SetPartition(((1, 3), (2, 4)))
        assert hash(sigma) == hash(SetPartition(((2, 4), (1, 3))))

    def test_set_partition_validates(self):
        with pytest.raises(ValueError):
            SetPartition(((1, 2), (2, 3)))  # overlap
        with pytest.raises(ValueError):
            SetPartition(((1, 3),))  # gap
        with pytest.raises(ValueError):
            SetPartition(((1,), ()))  # empty block
        assert SetPartition(()).n == 0

    def test_rgf_word_validates(self):
        assert RGFWord((1, 2, 1, 3)).max_letter == 3
        assert len(RGFWord(())) == 0
        with pytest.raises(ValueError):
            RGFWord((2, 1))
        with pytest.raises(ValueError):
            RGFWord((1, 3))


def block_index_word(sigma):
    """The block-index word, recomputed here from the blocks alone."""
    return tuple(
        next(index for index, block in enumerate(sigma.blocks, start=1) if e in block)
        for e in range(1, sum(map(len, sigma.blocks)) + 1)
    )


class TestStoredWordAndSize:
    def test_every_partition_up_to_7(self):
        for n in range(8):
            for sigma in partitions_of(n):
                rebuilt = SetPartition(tuple(reversed(sigma.blocks)))
                for part in (sigma, rebuilt):
                    assert part.n == n
                    assert part.word == rgf_of(part).letters == block_index_word(part)

    def test_restrictions(self):
        for n in range(7):
            for sigma in partitions_of(n):
                for subset in subsets(n):
                    restricted = restrict(sigma, subset)
                    assert restricted.n == len(subset)
                    assert restricted.word == block_index_word(restricted)

    def test_word_is_not_a_field(self):
        assert SetPartition.__match_args__ == ("blocks",)
        decoded = partition_of_rgf(RGFWord((1, 2, 1, 2)))  # word stored
        fresh = SetPartition(((2, 4), (1, 3)))  # word not yet computed
        assert "word" in vars(decoded) and "word" not in vars(fresh)
        for _ in range(2):  # before and after fresh computes its word
            assert decoded == fresh
            assert hash(decoded) == hash(fresh) == hash((fresh.blocks,))
            assert repr(decoded) == repr(fresh) == "SetPartition(blocks=((1, 3), (2, 4)))"
            assert fresh.word == (1, 2, 1, 2)

    def test_pickle_keeps_size_and_word(self):
        for sigma in (SetPartition(()), partition_of_rgf(RGFWord((1, 2, 2, 1, 3)))):
            copy = pickle.loads(pickle.dumps(sigma))
            assert copy == sigma
            assert (copy.n, copy.word) == (sigma.n, sigma.word)


class TestRestrict:
    def test_examples(self):
        assert restrict(SetPartition(((1, 3), (2, 4))), {1, 3, 4}) == SetPartition(
            ((1, 2), (3,))
        )
        sigma = SetPartition(((1, 4), (2, 6), (3, 5)))
        assert restrict(sigma, {2, 3, 5, 6}) == SetPartition(((1, 4), (2, 3)))

    def test_identity_restriction(self):
        for n in range(7):
            for sigma in partitions_of(n):
                assert restrict(sigma, range(1, n + 1)) == sigma

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside the ground set"):
            restrict(SetPartition(((1, 2),)), {1, 3})

    @pytest.mark.parametrize("subset, bad", [({1.5}, 1.5), ({1, 2.0}, 2.0), ([3, 1.0], 1.0)])
    def test_rejects_non_integer_elements(self, subset, bad):
        # 1.5 used to give the invalid SetPartition(blocks=()) of [1], and
        # 2.0 passed for 2: the subset is read as the constructors read
        # their values
        sigma = SetPartition(((1, 3), (2, 4)))
        message = re.escape(f"subset elements must be integers, not {bad!r}")
        with pytest.raises(TypeError, match=message):
            restrict(sigma, subset)

    def test_reads_integer_types_as_plain_ints(self):
        sigma = SetPartition(((1, 3), (2, 4)))
        restricted = restrict(sigma, iter([Index(3), True, Index(4)]))
        assert restricted == restrict(sigma, {1, 3, 4}) == SetPartition(((1, 2), (3,)))
        assert {type(e) for block in restricted.blocks for e in block} == {int}

    def test_composition_exhaustive(self):
        # restricting to T and then to the standardized image of U <= T is
        # the same as restricting to U directly
        for n in range(6):
            for sigma in partitions_of(n):
                for big in subsets(n):
                    rank = {e: i for i, e in enumerate(big, start=1)}
                    inner = restrict(sigma, big)
                    for size in range(len(big) + 1):
                        for small in itertools.combinations(big, size):
                            assert restrict(sigma, small) == restrict(
                                inner, [rank[e] for e in small]
                            )


class TestWordEncodings:
    def test_rgf_of_examples(self):
        assert rgf_of(SetPartition(((1, 3), (2, 4)))).letters == (1, 2, 1, 2)
        assert rgf_of(SetPartition(((1, 2, 3, 4, 5),))).letters == (1,) * 5
        assert rgf_of(SetPartition(((1, 4), (2, 6), (3, 5)))).letters == (1, 2, 3, 1, 3, 2)

    def test_partition_of_rgf_examples(self):
        assert partition_of_rgf(RGFWord((1, 2, 1, 2))) == SetPartition(((1, 3), (2, 4)))
        assert partition_of_rgf(RGFWord((1,))) == SetPartition(((1,),))
        assert partition_of_rgf(RGFWord((1, 1, 2))) == SetPartition(((1, 2), (3,)))

    def test_roundtrip_exhaustive(self):
        for n in range(9):
            for sigma in partitions_of(n):
                word = rgf_of(sigma)
                assert partition_of_rgf(word) == sigma
                assert rgf_of(partition_of_rgf(word)) == word

    def test_flatten_examples(self):
        assert flatten((2, 2)) == (1, 1)
        assert flatten((3, 1, 3)) == (1, 2, 1)
        assert flatten((2, 3, 3, 2)) == (1, 2, 2, 1)
        assert flatten(()) == ()

    def test_value_standardize_examples(self):
        assert value_standardize((2, 3, 3, 2)) == (1, 2, 2, 1)
        # not a restricted growth word, which is what separates it from flatten
        assert value_standardize((3, 1, 3)) == (2, 1, 2)
        assert value_standardize((1, 2)) == (1, 2)

    def test_restriction_flattening_lemma(self):
        # the flattening of a subsequence of the block-index word equals the
        # block-index word of the restriction
        for n in range(7):
            for sigma in partitions_of(n):
                word = rgf_of(sigma).letters
                for subset in subsets(n):
                    sub = tuple(word[e - 1] for e in subset)
                    assert flatten(sub) == rgf_of(restrict(sigma, subset)).letters

    def test_value_standardize_rgf_iff_flatten(self):
        # whenever value standardization lands on a restricted growth word it
        # agrees with first-occurrence flattening; exhaustive over short words
        for length in range(7):
            for word in itertools.product(range(1, 7), repeat=length):
                ranked = value_standardize(word)
                try:
                    RGFWord(ranked)
                except ValueError:
                    continue
                assert ranked == flatten(word)


@given(st.lists(st.integers(min_value=1, max_value=50), max_size=30))
def test_flatten_always_rgf(word):
    RGFWord(flatten(word))  # must not raise


@given(st.lists(st.integers(min_value=1, max_value=50), max_size=30))
def test_value_standardize_preserves_comparisons(word):
    ranked = value_standardize(word)
    assert len(ranked) == len(word)
    for a in range(len(word)):
        for b in range(len(word)):
            assert (word[a] < word[b]) == (ranked[a] < ranked[b])
            assert (word[a] == word[b]) == (ranked[a] == ranked[b])

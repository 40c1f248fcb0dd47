import itertools
import pickle
import re
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permpart import (
    Permutation,
    RGFWord,
    SetPartition,
    partition_of_rgf,
    restrict,
    rgf_of,
)
from helpers import Index, flatten, partitions_of, reference_partition, value_standardize


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


class Small(IntEnum):
    ONE = 1
    TWO = 2
    THREE = 3


# How a block, or the block list, is handed over; "iter" and "gen" are
# one-shot.  A "scalar" block is a bare value, not iterable at all.
CONTAINERS = {
    "tuple": tuple,
    "list": list,
    "iter": iter,
    "gen": lambda values: (value for value in values),
}
NON_INTEGERS = st.sampled_from([2.0, 1.5, Fraction(2), Fraction(1, 2), "1", "a"])
ELEMENTS = st.one_of(
    st.integers(min_value=-2, max_value=12),
    st.booleans(),
    st.sampled_from(Small),
    st.integers(min_value=-1, max_value=12).map(Index),
    NON_INTEGERS,
)


def same_value(v):
    """v, or another integer type holding it, or now and then a non-integer."""
    kinds = [st.just(v), st.just(Index(v))]
    if 1 <= v <= 3:
        kinds.append(st.just(Small(v)))
    if v in (0, 1):
        kinds.append(st.just(bool(v)))
    return st.one_of(st.one_of(kinds), st.sampled_from([v, float(v), Fraction(v), str(v)]))


@st.composite
def partition_inputs(draw):
    """A block list as (container, [(container, elements)...]): a partition
    of [n] with its blocks and elements shuffled and perhaps spoiled by a
    repeated element, a gap, an empty block, a 0 or a negative element; or
    arbitrary blocks.  Either may get a block that is not iterable."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=0, max_value=9))
        order = draw(st.permutations(range(1, n + 1)))
        cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
        blocks = [list(order[a:b]) for a, b in zip([0, *cuts], [*cuts, n]) if a < b]
        spoil = draw(st.sampled_from(["none", "none", "repeat", "gap", "empty", "zero", "negative"]))
        if spoil == "repeat" and n:
            blocks[-1].append(draw(st.integers(1, n)))
        elif spoil == "gap" and n:
            blocks[0].pop()
        elif spoil == "empty":
            blocks.insert(draw(st.integers(0, len(blocks))), [])
        elif spoil in ("zero", "negative"):
            blocks.append([0 if spoil == "zero" else draw(st.integers(-3, -1))])
        if draw(st.integers(0, 3)) == 0:
            blocks = [[draw(same_value(v)) for v in block] for block in blocks]
    else:
        blocks = draw(st.lists(st.lists(ELEMENTS, max_size=5), max_size=5))
    containers = st.sampled_from(sorted(CONTAINERS))
    spec = [(draw(containers), block) for block in blocks]
    if draw(st.integers(0, 9)) == 0:
        spec.insert(draw(st.integers(0, len(spec))), ("scalar", draw(st.integers(1, 3))))
    return draw(containers), spec


def build(outer, spec):
    """Fresh inputs from a partition_inputs spec, since one-shot iterators
    can be read only once."""
    blocks = [block if kind == "scalar" else CONTAINERS[kind](block) for kind, block in spec]
    return CONTAINERS[outer](blocks)


def outcome(construct, outer, spec):
    try:
        return construct(build(outer, spec))
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@settings(max_examples=1000, deadline=None)
@given(partition_inputs())
@example(("tuple", [("tuple", [2, "a", 1])]))  # the TypeError, not a sort's comparison error
@example(("list", [("tuple", [1, 3]), ("list", ["2", 4])]))
@example(("tuple", [("tuple", [1]), ("scalar", 2)]))  # a block that is not iterable
@example(("gen", [("tuple", ["a"]), ("scalar", 2)]))  # the bad element before it first
@example(("iter", [("gen", [3, 1]), ("iter", [Small.TWO, True])]))
def test_constructor_matches_its_reference(inputs):
    """SetPartition builds the blocks and n of its earlier form, as plain
    ints, and raises the same exception type with the same message."""

    def construct(blocks):
        sigma = SetPartition(blocks)
        return sigma.blocks, sigma.n

    got = outcome(construct, *inputs)
    assert got == outcome(reference_partition, *inputs)
    if isinstance(got[0], tuple):
        assert all(type(e) is int for block in got[0] for e in block)


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

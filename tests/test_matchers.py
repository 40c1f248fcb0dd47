import dataclasses
import pickle
import re
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permpart import (
    MatchResult,
    Permutation,
    RGFWord,
    SearchCancelled,
    SetPartition,
    partition_contains,
    partition_count,
    perm_contains,
    perm_count,
    rgf_contains,
    rgf_count,
)
from permpart import matchers
from permpart.core import restrict, rgf_of
from permpart.reduction import is_matchstick, reduce_perm
from helpers import (
    Index,
    partitions_of,
    perm_occurrences,
    perms_of,
    rgf_positions,
    rgf_words_of,
    value_standardize,
    witnesses_by_restriction,
)


class TestPermMatcher:
    def test_contains_examples(self):
        result = perm_contains(Permutation((1, 3, 2)), Permutation((2, 1)))
        assert result.contains and result.witness == (2, 3)
        tau = Permutation((3, 1, 2))
        assert perm_contains(tau, tau).witness == (1, 2, 3)
        assert not perm_contains(Permutation((1, 2, 3)), Permutation((2, 1))).contains

    def test_count_examples(self):
        assert perm_count(Permutation((1, 2, 3)), Permutation((1, 2))) == 3
        assert perm_count(Permutation((2, 3, 1)), Permutation((2, 1))) == 2
        assert perm_count(Permutation((2, 3, 1)), Permutation(())) == 1

    def test_pattern_longer_than_text(self):
        assert not perm_contains(Permutation((1,)), Permutation((1, 2))).contains
        assert perm_count(Permutation((1,)), Permutation((1, 2))) == 0


class TestPartitionMatcher:
    def test_contains_examples(self):
        result = partition_contains(SetPartition(((1, 3), (2, 4))), SetPartition(((1, 2),)))
        assert result.contains and result.witness == (1, 3)
        singletons = SetPartition(((1,), (2,), (3,), (4,)))
        assert not partition_contains(singletons, SetPartition(((1, 2),))).contains
        result = partition_contains(
            SetPartition(((1, 4), (2, 6), (3, 5))), SetPartition(((1, 4), (2, 3)))
        )
        assert result.contains and result.witness == (2, 3, 5, 6)

    def test_count_examples(self):
        assert partition_count(SetPartition(((1, 3), (2, 4))), SetPartition(((1, 2),))) == 2
        sigma = SetPartition(((1, 4), (2, 6), (3, 5)))
        assert partition_count(sigma, sigma) == 1
        # exhaustive over all 15 subsets: {2,3,5,6} is the only witness,
        # matching the single occurrence on the permutation side
        assert partition_count(sigma, SetPartition(((1, 4), (2, 3)))) == 1


class TestRgfMatcher:
    def test_contains_examples(self):
        result = rgf_contains(RGFWord((1, 2, 1, 2)), RGFWord((1, 1)))
        assert result.contains and result.witness == (1, 3)
        # the pair separating the word notion from the partition notion:
        # the partitions of these words DO contain
        assert not rgf_contains(RGFWord((1, 2, 2, 1)), RGFWord((1, 1, 2))).contains
        word = RGFWord((1, 2, 3, 1))
        assert rgf_contains(word, word).witness == (1, 2, 3, 4)

    def test_count_examples(self):
        assert rgf_count(RGFWord((1, 2, 1, 2)), RGFWord((1, 1))) == 2
        assert rgf_count(RGFWord((1, 1, 1)), RGFWord((1, 1))) == 3
        assert rgf_count(RGFWord((1, 2, 1)), RGFWord(())) == 1


class TestAgainstBruteForce:
    def test_perm_engine_exhaustive(self):
        # all text/pattern pairs up to size 5: answer, least witness, count
        for n in range(6):
            for k in range(6):
                for text in perms_of(n):
                    for pattern in perms_of(k):
                        hits = perm_occurrences(text.values, pattern.values)
                        result = perm_contains(text, pattern)
                        assert result.contains == bool(hits)
                        assert result.witness == (min(hits) if hits else None)
                        assert perm_count(text, pattern) == len(hits)

    def test_partition_engine_exhaustive(self):
        # containment and counts against one subset scan per text, for all
        # pairs up to n = 6
        for n in range(7):
            for text in partitions_of(n):
                groups = witnesses_by_restriction(text, range(n + 1))
                for k in range(7):
                    for pattern in partitions_of(k):
                        hits = groups.get(pattern.word, [])
                        assert partition_contains(text, pattern).contains == bool(hits)
                        assert partition_count(text, pattern) == len(hits)

    def test_partition_witnesses_exhaustive(self):
        for n in range(6):
            for text in partitions_of(n):
                groups = witnesses_by_restriction(text, range(n + 1))
                for k in range(6):
                    for pattern in partitions_of(k):
                        hits = groups.get(pattern.word, [])
                        result = partition_contains(text, pattern)
                        assert result.witness == (hits[0] if hits else None)

    def test_partition_witnesses_compiled(self, compiled, monkeypatch):
        # the same entry on the compiled kernels, which the rest of this
        # module runs only when permpart picked them at import: answer and
        # least witness for all pairs up to n = 6
        monkeypatch.setattr(matchers, "_K", compiled)
        for n in range(7):
            for text in partitions_of(n):
                groups = witnesses_by_restriction(text, range(n + 1))
                for k in range(7):
                    for pattern in partitions_of(k):
                        hits = groups.get(pattern.word)
                        expected = MatchResult(True, hits[0]) if hits else MatchResult(False)
                        assert partition_contains(text, pattern) == expected

    def test_rgf_engine_exhaustive(self):
        for n in range(6):
            for k in range(6):
                for text in rgf_words_of(n):
                    for pattern in rgf_words_of(k):
                        hits = rgf_positions(text.letters, pattern.letters)
                        result = rgf_contains(text, pattern)
                        assert result.contains == bool(hits)
                        assert result.witness == (min(hits) if hits else None)
                        assert rgf_count(text, pattern) == len(hits)

    def test_partition_block_size_shortcut(self, monkeypatch):
        # exactly the pairs whose block sizes cannot host the pattern's are
        # answered before any kernel runs, on either backend; the kernels
        # themselves rule nothing out before searching.  partition_contains
        # answers the two linear shapes (k singletons, one block of k)
        # without a kernel too; partition_count searches every fitting pair.
        # A find on two matchstick partitions goes to perm_find instead,
        # fitting or not.
        real, searched = matchers._K, []

        def kernel(name):
            def call(*args):
                searched.append(name)
                return getattr(real, name)(*args)

            return call

        monkeypatch.setattr(
            matchers,
            "_K",
            types.SimpleNamespace(
                perm_find=kernel("perm_find"),
                part_find=kernel("part_find"),
                part_count=kernel("part_count"),
            ),
        )
        shortcut = 0
        for n in range(7):
            for text in partitions_of(n):
                groups = witnesses_by_restriction(text, range(n + 1))
                hosts = sorted((len(b) for b in text.blocks), reverse=True)
                for k in range(7):
                    for pattern in partitions_of(k):
                        sizes = sorted((len(b) for b in pattern.blocks), reverse=True)
                        fits = len(sizes) <= len(hosts) and all(
                            s <= h for s, h in zip(sizes, hosts)
                        )
                        linear = len(sizes) in (k, 1)
                        searched.clear()
                        result = partition_contains(text, pattern)
                        if linear:
                            assert searched == []
                        elif is_matchstick(text) and is_matchstick(pattern):
                            assert searched == ["perm_find"]
                        else:
                            assert searched == (["part_find"] if fits else [])
                        searched.clear()
                        count = partition_count(text, pattern)
                        assert searched == (["part_count"] if fits else [])
                        if not fits:
                            shortcut += 1
                            assert groups.get(pattern.word, []) == []
                            assert (result, count) == (MatchResult(False), 0)
        assert shortcut > 50_000

    def test_block_fit_is_dominance(self, kernels):
        # the fit test, on sizes each partition sorts once, is the dominance
        # definition on every pair of partitions of [0..6]; partition_count
        # and partition_contains answer by it and, past it, by the kernel
        everything = [sigma for n in range(7) for sigma in partitions_of(n)]
        unfit = 0
        for text in everything:
            groups = witnesses_by_restriction(text, range(text.n + 1))
            hosts = sorted((len(b) for b in text.blocks), reverse=True)
            for pattern in everything:
                sizes = sorted((len(b) for b in pattern.blocks), reverse=True)
                fits = len(sizes) <= len(hosts) and all(s <= h for s, h in zip(sizes, hosts))
                assert matchers._blocks_fit(text, pattern) is fits, (text, pattern)
                witnesses = groups.get(pattern.word, [])
                assert partition_count(text, pattern) == len(witnesses)
                assert partition_contains(text, pattern).contains is bool(witnesses)
                unfit += not fits
        assert len(everything) == 279 and unfit > 50_000

    def test_rgf_letter_count_shortcut(self, monkeypatch):
        # a text word with fewer distinct letters than the pattern is
        # answered before any kernel runs, on either backend
        def no_kernel(*args):
            raise AssertionError("kernel called")

        monkeypatch.setattr(
            matchers, "_K", types.SimpleNamespace(rgf_find=no_kernel, rgf_count=no_kernel)
        )
        pairs = 0
        for n in range(8):
            for k in range(1, 6):
                for text in rgf_words_of(n):
                    for pattern in rgf_words_of(k):
                        if pattern.max_letter <= text.max_letter:
                            continue
                        pairs += 1
                        assert rgf_positions(text.letters, pattern.letters) == []
                        assert rgf_contains(text, pattern) == MatchResult(False)
                        assert rgf_count(text, pattern) == 0
        assert pairs > 10_000


class TestProperties:
    def test_witnesses_reverify(self):
        # every reported witness re-checks against the definition it certifies
        for n in range(6):
            for k in range(n + 1):
                for text in perms_of(n):
                    for pattern in perms_of(k):
                        result = perm_contains(text, pattern)
                        if result.contains:
                            sub = [text.values[i - 1] for i in result.witness]
                            assert value_standardize(sub) == pattern.values
                for text in partitions_of(n):
                    for pattern in partitions_of(k):
                        result = partition_contains(text, pattern)
                        if result.contains:
                            assert restrict(text, result.witness) == pattern
                for text in rgf_words_of(n):
                    for pattern in rgf_words_of(k):
                        result = rgf_contains(text, pattern)
                        if result.contains:
                            sub = [text.letters[i - 1] for i in result.witness]
                            assert value_standardize(sub) == pattern.letters

    def test_containment_reflexive_transitive(self):
        for structures, holds in (
            (
                [p for n in range(6) for p in perms_of(n)],
                lambda a, b: perm_contains(a, b).contains,
            ),
            (
                [p for n in range(6) for p in partitions_of(n)],
                lambda a, b: partition_contains(a, b).contains,
            ),
            (
                [w for n in range(6) for w in rgf_words_of(n)],
                lambda a, b: rgf_contains(a, b).contains,
            ),
        ):
            matrix = {
                (a, b): holds(a, b) for a in structures for b in structures
            }
            for a in structures:
                assert matrix[(a, a)]
            for (a, b), ab in matrix.items():
                if not ab:
                    continue
                for c in structures:
                    if matrix[(b, c)]:
                        assert matrix[(a, c)], (a, b, c)

    def test_block_size_injection_necessary(self):
        # containment requires an injection from pattern blocks to text
        # blocks that never shrinks a block
        for n in range(6):
            for k in range(n + 1):
                for text in partitions_of(n):
                    text_sizes = sorted((len(b) for b in text.blocks), reverse=True)
                    for pattern in partitions_of(k):
                        if not partition_contains(text, pattern).contains:
                            continue
                        pattern_sizes = sorted(
                            (len(b) for b in pattern.blocks), reverse=True
                        )
                        assert len(pattern_sizes) <= len(text_sizes)
                        assert all(
                            p <= t for p, t in zip(pattern_sizes, text_sizes)
                        )

    def test_contains_iff_count_positive(self):
        for n in range(6):
            for k in range(6):
                for text in perms_of(n):
                    for pattern in perms_of(k):
                        assert perm_contains(text, pattern).contains == (
                            perm_count(text, pattern) >= 1
                        )
                for text in partitions_of(n):
                    for pattern in partitions_of(k):
                        assert partition_contains(text, pattern).contains == (
                            partition_count(text, pattern) >= 1
                        )
                for text in rgf_words_of(n):
                    for pattern in rgf_words_of(k):
                        assert rgf_contains(text, pattern).contains == (
                            rgf_count(text, pattern) >= 1
                        )

    def test_word_containment_implies_partition_containment(self):
        # one direction holds everywhere; the recorded pair breaks the converse
        for n in range(6):
            for k in range(6):
                for text in partitions_of(n):
                    for pattern in partitions_of(k):
                        if rgf_contains(rgf_of(text), rgf_of(pattern)).contains:
                            assert partition_contains(text, pattern).contains
        text = RGFWord((1, 2, 2, 1))
        pattern = RGFWord((1, 1, 2))
        assert not rgf_contains(text, pattern).contains
        assert partition_contains(
            SetPartition(((1, 4), (2, 3))), SetPartition(((1, 2), (3,)))
        ).contains


class TestCancellation:
    def test_cancel_aborts_long_count(self):
        text = Permutation(tuple(range(1, 1501)))
        with pytest.raises(SearchCancelled):
            perm_count(text, Permutation((1, 2, 3)), cancel=lambda: True)

    def test_cancel_false_completes(self):
        assert perm_count(Permutation((1, 2, 3)), Permutation((1, 2)), cancel=lambda: False) == 3
        sigma = SetPartition(((1, 3), (2, 4)))
        assert partition_count(sigma, SetPartition(((1, 2),)), cancel=lambda: False) == 2
        assert rgf_count(RGFWord((1, 1, 1)), RGFWord((1, 1)), cancel=lambda: False) == 3


@st.composite
def rgf_word_strategy(draw, max_len=9):
    length = draw(st.integers(min_value=0, max_value=max_len))
    letters = []
    peak = 0
    for _ in range(length):
        letter = draw(st.integers(min_value=1, max_value=peak + 1))
        letters.append(letter)
        if letter > peak:
            peak = letter
    return RGFWord(tuple(letters))


@settings(max_examples=150, deadline=None)
@given(
    st.permutations(list(range(1, 8))),
    st.permutations(list(range(1, 4))),
)
def test_perm_engine_matches_brute_random(text_values, pattern_values):
    text = Permutation(tuple(text_values))
    pattern = Permutation(tuple(pattern_values))
    hits = perm_occurrences(text.values, pattern.values)
    assert perm_contains(text, pattern).contains == bool(hits)
    assert perm_count(text, pattern) == len(hits)


@settings(max_examples=150, deadline=None)
@given(rgf_word_strategy(), rgf_word_strategy(max_len=4))
def test_rgf_engine_matches_brute_random(text, pattern):
    hits = rgf_positions(text.letters, pattern.letters)
    result = rgf_contains(text, pattern)
    assert result.contains == bool(hits)
    assert result.witness == (min(hits) if hits else None)
    assert rgf_count(text, pattern) == len(hits)


# "No" answers of each contains engine, by every route that gives one.
NO_ANSWERS = [
    (perm_contains, Permutation((1, 2, 3)), Permutation((2, 1))),
    (perm_contains, Permutation((1,)), Permutation((1, 2))),
    (partition_contains, SetPartition(((1, 2), (3,))), SetPartition(((1,), (2,), (3,)))),
    (partition_contains, SetPartition(((1,), (2,), (3,))), SetPartition(((1, 2),))),
    (partition_contains, SetPartition(((1, 2), (3, 4))), SetPartition(((1, 2, 3), (4,)))),
    (partition_contains, SetPartition(((1, 3), (2, 4))), SetPartition(((1, 2), (3, 4)))),
    (rgf_contains, RGFWord((1, 1)), RGFWord((1, 2))),
    (rgf_contains, RGFWord((1, 2, 2, 1)), RGFWord((1, 1, 2))),
]


@pytest.mark.parametrize("engine, text, pattern", NO_ANSWERS)
def test_no_answers_look_freshly_built(kernels, engine, text, pattern):
    result = engine(text, pattern)
    fresh = MatchResult(False)
    assert result is matchers._ABSENT
    for seen in (result, pickle.loads(pickle.dumps(result))):
        assert seen == fresh and hash(seen) == hash(fresh) and repr(seen) == repr(fresh)


def test_shared_no_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        matchers._ABSENT.contains = True


@pytest.mark.parametrize("bad", [2.0, Fraction(2)], ids=["float", "Fraction"])
@pytest.mark.parametrize(
    "build, what",
    [
        (lambda v: Permutation((v, 1, 3)), "permutation values"),
        (lambda v: SetPartition(((1,), (v,))), "block elements"),
        (lambda v: RGFWord((1, v)), "word letters"),
    ],
    ids=["Permutation", "SetPartition", "RGFWord"],
)
def test_constructors_refuse_values_equal_to_integers(kernels, build, what, bad):
    # 2.0 and Fraction(2) compare equal to 2, and used to get through: the
    # pure kernels then answered where the compiled ones raised TypeError.
    with pytest.raises(TypeError, match=re.escape(f"{what} must be integers, not {bad!r}")):
        build(bad)


def test_set_partition_reads_each_block_once():
    # A block may be a one-shot iterator: it is read once, so its values
    # are neither lost nor mistaken for an empty block.
    sigma = SetPartition((iter([Index(2), Index(1)]), (x for x in (3,))))
    assert sigma.blocks == ((1, 2), (3,)) and {type(v) for v in sigma.word} == {int}
    with pytest.raises(TypeError, match=re.escape("block elements must be integers, not 1.0")):
        SetPartition(((x for x in (1.0,)),))


def test_integer_types_are_stored_as_plain_ints(kernels):
    perm = Permutation((Index(2), True, Index(3)))
    sigma = SetPartition(((Index(3), True), [Index(2)]))
    word = RGFWord((True, Index(2), 1))
    assert (perm.values, sigma.blocks, word.letters) == ((2, 1, 3), ((1, 3), (2,)), (1, 2, 1))
    stored = [*perm.values, *sigma.word, *word.letters, *reduce_perm(perm).word]
    assert {type(v) for v in stored} == {int}
    assert perm_contains(perm, Permutation((Index(2), Index(1)))).witness == (1, 2)
    assert partition_contains(sigma, SetPartition(((True, Index(2)),))).witness == (1, 3)
    assert rgf_contains(word, RGFWord((1, Index(2)))).witness == (1, 2)

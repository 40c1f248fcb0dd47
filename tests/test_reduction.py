import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permpart import (
    Permutation,
    SetPartition,
    brute_partition_contains,
    is_matchstick,
    partition_contains,
    partition_count,
    perm_contains,
    perm_count,
    perm_of_matchstick,
    recover_occurrence,
    reduce_perm,
    rgf_count,
    rgf_of,
    transport_occurrence,
)
from permpart import matchers
from permpart.core import restrict
from helpers import perm_occurrences, perms_of, value_standardize, witnesses_by_restriction


class TestReducePerm:
    def test_examples(self):
        assert reduce_perm(Permutation((2, 3, 1))) == SetPartition(((1, 5), (2, 6), (3, 4)))
        assert reduce_perm(Permutation((1,))) == SetPartition(((1, 2),))
        assert reduce_perm(Permutation((2, 1))) == SetPartition(((1, 4), (2, 3)))
        assert reduce_perm(Permutation(())) == SetPartition(())

    def test_size_property(self):
        # always a partition of [2n] into n blocks of size 2
        for n in range(9):
            for perm in perms_of(n):
                reduced = reduce_perm(perm)
                assert reduced.n == 2 * n
                assert len(reduced.blocks) == n
                assert all(len(block) == 2 for block in reduced.blocks)

    def test_roundtrip_identity(self):
        for n in range(7):
            for perm in perms_of(n):
                assert perm_of_matchstick(reduce_perm(perm)) == perm


class TestMatchstickRecognition:
    def test_examples(self):
        assert is_matchstick(SetPartition(((1, 5), (2, 6), (3, 4))))
        # pairs two lower-half elements
        assert not is_matchstick(SetPartition(((1, 2), (3, 4))))
        assert not is_matchstick(SetPartition(((1, 2, 3),)))
        assert is_matchstick(SetPartition(()))

    def test_odd_ground_set(self):
        assert not is_matchstick(SetPartition(((1, 3), (2,))))

    def test_perm_of_matchstick_rejects(self):
        with pytest.raises(ValueError, match="matchstick"):
            perm_of_matchstick(SetPartition(((1, 2), (3, 4))))

    def test_matchstick_iff_in_image(self):
        images = {reduce_perm(p) for n in range(5) for p in perms_of(n)}
        from helpers import partitions_of

        for n in range(9):
            for sigma in partitions_of(n):
                assert is_matchstick(sigma) == (sigma in images)


class TestWitnessTransport:
    def test_transport_examples(self):
        assert transport_occurrence(Permutation((1, 3, 2)), (2, 3)) == (2, 3, 5, 6)
        perm = Permutation((3, 1, 2))
        assert transport_occurrence(perm, (1, 2, 3)) == (1, 2, 3, 4, 5, 6)
        assert transport_occurrence(Permutation((2, 3, 1)), (1, 3)) == (1, 3, 4, 5)

    def test_transport_validates(self):
        with pytest.raises(ValueError, match="out of range"):
            transport_occurrence(Permutation((2, 1)), (3,))
        with pytest.raises(ValueError, match="strictly increasing"):
            transport_occurrence(Permutation((2, 3, 1)), (3, 1))

    def test_recover_examples(self):
        assert recover_occurrence(Permutation((1, 3, 2)), (2, 3, 5, 6)) == (2, 3)
        assert recover_occurrence(Permutation((2, 3, 1)), (1, 2, 3, 4, 5, 6)) == (1, 2, 3)
        assert recover_occurrence(Permutation((2, 3, 1)), (1, 3, 4, 5)) == (1, 3)

    def test_recover_rejects_split_blocks(self):
        # {1, 4} picks position 1 without its value partner 5
        with pytest.raises(ValueError, match="witness"):
            recover_occurrence(Permutation((2, 3, 1)), (1, 4))
        with pytest.raises(ValueError, match="witness"):
            recover_occurrence(Permutation((2, 1)), (1, 2, 3))

    def test_transport_recover_bijection(self):
        # occurrences of the pattern correspond one-to-one to restriction
        # witnesses on the reduced pair
        for n in range(5):
            for k in range(4):
                for perm in perms_of(n):
                    reduced_text = reduce_perm(perm)
                    groups = witnesses_by_restriction(reduced_text, (2 * k,))
                    for pattern in perms_of(k):
                        reduced_pattern = reduce_perm(pattern)
                        occurrences = [
                            occ
                            for occ in perm_occurrences(perm.values, pattern.values)
                        ]
                        witnesses = groups.get(reduced_pattern.word, [])
                        transported = [
                            transport_occurrence(perm, occ) for occ in occurrences
                        ]
                        for witness in transported:
                            assert restrict(reduced_text, witness) == reduced_pattern
                        assert sorted(transported) == sorted(witnesses)
                        recovered = [
                            recover_occurrence(perm, witness) for witness in witnesses
                        ]
                        assert sorted(recovered) == sorted(occurrences)
                        for occ in occurrences:
                            assert recover_occurrence(
                                perm, transport_occurrence(perm, occ)
                            ) == occ

    def test_transported_subsequence_standardizes_to_pattern(self):
        perm = Permutation((4, 1, 3, 2))
        for occ in perm_occurrences(perm.values, (2, 1)):
            witness = transport_occurrence(perm, occ)
            sub = [perm.values[i - 1] for i in occ]
            assert value_standardize(sub) == (2, 1)
            assert restrict(reduce_perm(perm), witness) == reduce_perm(Permutation((2, 1)))


class TestEquivalence:
    def test_containment_transfers_small(self):
        # quick version of the main gate; the full range runs in the
        # acceptance suite
        for n in range(5):
            for k in range(4):
                for perm in perms_of(n):
                    reduced_text = reduce_perm(perm)
                    for pattern in perms_of(k):
                        assert perm_contains(perm, pattern).contains == (
                            brute_partition_contains(reduced_text, reduce_perm(pattern))
                        )


def perms_up_to(size):
    return st.integers(1, size).flatmap(lambda n: st.permutations(range(1, n + 1)))


@settings(max_examples=100, deadline=None)
@given(perms_up_to(20), perms_up_to(6))
def test_reduction_is_parsimonious_past_brute_force(text_values, pattern_values):
    # The paper's theorem as a metamorphic relation, on texts far past the
    # brute-force range: the three counts agree, and the least partition
    # witness is the transported least occurrence, both as partition_contains
    # gives it (through the permutation kernel) and as the partition and
    # word find kernels give it.
    text, pattern = Permutation(tuple(text_values)), Permutation(tuple(pattern_values))
    reduced_text, reduced_pattern = reduce_perm(text), reduce_perm(pattern)
    count = perm_count(text, pattern)
    assert partition_count(reduced_text, reduced_pattern) == count
    assert rgf_count(rgf_of(reduced_text), rgf_of(reduced_pattern)) == count
    hit = perm_contains(text, pattern)
    transported = transport_occurrence(text, hit.witness) if hit.contains else None
    assert partition_contains(reduced_text, reduced_pattern).witness == transported
    assert matchers._K.part_find(reduced_text.word, reduced_pattern.word) == transported
    assert matchers._K.rgf_find(reduced_text.word, reduced_pattern.word) == transported

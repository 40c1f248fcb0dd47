from permpart import MatchResult, SetPartition, dispatch_contains, partition_contains
from permpart.core import restrict
from helpers import partitions_of


def singleton_pattern(k):
    return SetPartition(tuple((i,) for i in range(1, k + 1)))


def block_pattern(k):
    return SetPartition((tuple(range(1, k + 1)),) if k else ())


class TestDispatch:
    def test_examples(self):
        sigma = SetPartition(((1, 3), (2, 4)))
        result = dispatch_contains(sigma, singleton_pattern(2))
        assert result.contains and result.witness == (1, 2)
        result = dispatch_contains(sigma, block_pattern(2))
        assert result.contains and result.witness == (1, 3)
        assert not dispatch_contains(singleton_pattern(2), block_pattern(2)).contains
        assert not dispatch_contains(sigma, singleton_pattern(3)).contains
        assert not dispatch_contains(sigma, block_pattern(3)).contains
        result = dispatch_contains(SetPartition(((1, 2, 3), (4,))), block_pattern(3))
        assert result.witness == (1, 2, 3)
        # the empty pattern and {{1}} are both a row of singletons and a
        # single block; every text contains the empty pattern, the empty
        # text included, and every nonempty text contains {{1}}
        for text in (SetPartition(()), SetPartition(((1, 3), (2,)))):
            assert dispatch_contains(text, SetPartition(())) == MatchResult(True, ())
        assert dispatch_contains(SetPartition(((1, 3), (2,))), block_pattern(1)) == (
            MatchResult(True, (1,))
        )
        assert not dispatch_contains(SetPartition(()), block_pattern(1)).contains

    def test_matches_general_engine_exhaustive(self):
        # identical MatchResult (witness included) on every pair up to n = 5
        for n in range(6):
            for k in range(6):
                for text in partitions_of(n):
                    for pattern in partitions_of(k):
                        assert dispatch_contains(text, pattern) == partition_contains(
                            text, pattern
                        )

    def test_fast_path_witnesses_reverify(self):
        for n in range(7):
            for sigma in partitions_of(n):
                for k in range(n + 1):
                    for pattern in (singleton_pattern(k), block_pattern(k)):
                        result = dispatch_contains(sigma, pattern)
                        if result.contains:
                            assert restrict(sigma, result.witness) == pattern

"""Containment and occurrence counting for all three structure classes.

Three notions of containment are implemented:

- permutations: some subsequence of the text is order isomorphic to the
  pattern;
- set partitions: some subset of the ground set restricts the text to the
  pattern;
- restricted growth words: some subsequence of the text value-standardizes
  to the pattern.

Each engine is a pruned backtracking search (permpart._kernels_py documents
the algorithms; a compiled twin is preferred when built).  Before it
searches, the permutation kernel rules out a pattern whose longest
increasing or decreasing subsequence is longer than the text's, in O(n log
k) and without polling ``cancel``; the word kernels only search.  The
answers that need no search are given here first: the two linear
partition shapes (k singletons, one block of k), partitions whose block
sizes cannot hold the pattern's, and words with fewer distinct letters
than the pattern.  Witnesses are deterministic: always the
lexicographically least index or element sequence.  A pattern longer than
its text is simply not contained, never an error.

The paper's reduction also runs backwards.  A matchstick partition
reduce_perm(p) has the block-index word 1, ..., n followed by the inverse
of p, and p contains q iff reduce_perm(p) contains reduce_perm(q), their
occurrences and restriction witnesses corresponding one to one.  So when
text and pattern are both matchstick, as partitions or as words (the two
notions coincide there), a find is answered by the permutation kernel on
p and q, several times faster than the word search: the least occurrence,
its indices followed by the sorted p_i + n, is the least witness.  A
partition or word is recognised as matchstick once, by one scan of its
word (core._unreduce), behind a one-comparison test (n blocks, or largest
letter n, over 2n elements), and the permutation is kept on the object.
Counts stay on the word kernels for now.  Routed as well, they let the
layered benchmark's search workload run so many more operations that its
per-operation samples took peak memory past its bound; the count route
waits until the benchmark keeps its latency samples in memory that does not
grow with the number of operations.

The subset-enumeration references these engines are validated against live
in permpart.oracle and share no search code with them.
"""

from __future__ import annotations

from operator import le
from typing import Callable

from ._backend import kernels as _K
from .core import Permutation, RGFWord, SetPartition, _first, _Frozen, _store

# A strictly increasing 1-based index sequence certifying a permutation
# occurrence, and an ascending element subset certifying a partition
# restriction.
OccurrenceIndices = tuple[int, ...]
SubsetWitness = tuple[int, ...]

Cancel = Callable[[], bool] | None


class MatchResult(_Frozen):
    """Outcome of a containment query; witness is present iff contains."""

    _fields = ("contains", "witness")
    contains: bool
    witness: tuple[int, ...] | None

    def __init__(self, contains: bool, witness: tuple[int, ...] | None = None) -> None:
        _store(self, "contains", contains)
        _store(self, "witness", witness)


# Every "no" answer: building a MatchResult costs more than a small kernel
# call, and a frozen one can be shared.
_ABSENT = MatchResult(False)


def perm_contains(text: Permutation, pattern: Permutation) -> MatchResult:
    """Does the text permutation contain the pattern permutation?

    On success the witness is the lexicographically least occurrence.
    """
    hit = _K.perm_find(text.values, pattern.values)
    return _ABSENT if hit is None else MatchResult(True, hit)


def perm_count(text: Permutation, pattern: Permutation, *, cancel: Cancel = None) -> int:
    """Number of occurrences of the pattern permutation in the text.

    ``cancel`` is polled periodically; returning True raises SearchCancelled.
    """
    return _K.perm_count(text.values, pattern.values, cancel)


def _blocks_fit(text: SetPartition, pattern: SetPartition) -> bool:
    """Can the pattern's blocks go into distinct text blocks, none larger
    than its host?  A restriction keeps blocks apart and never grows one, so
    containment needs the text's descending block sizes to dominate the
    pattern's; a pattern longer than its text never fits.  The block counts
    decide first; past them each partition sorts its sizes once, on first
    use (SetPartition._sizes)."""
    if len(pattern.blocks) > len(text.blocks):
        return False
    return all(map(le, pattern._sizes, text._sizes))


def _matchstick_find(
    text: SetPartition | RGFWord, pattern: SetPartition | RGFWord
) -> MatchResult | None:
    """The find on a pair that passed the one-comparison matchstick test
    (n blocks or letters over 2n elements), by the permutation kernel; None
    if either turns out not to be matchstick.

    On reduce_perm(p) and reduce_perm(q), the witness of an occurrence of q
    in p is its indices followed by the sorted p_i + n.  Every witness puts
    its k lower elements first, so witnesses sort as their occurrences do,
    and the least occurrence gives the least witness.
    """
    q = pattern._unreduced
    if q is None:
        return None
    p = text._unreduced
    if p is None:
        return None
    hit = _K.perm_find(p, q)
    if hit is None:
        return _ABSENT
    n = len(p)
    return MatchResult(True, hit + tuple(sorted([p[i - 1] + n for i in hit])))


def partition_contains(text: SetPartition, pattern: SetPartition) -> MatchResult:
    """Does the text partition contain the pattern partition?

    On success the witness is the lexicographically least subset of the
    ground set whose restriction equals the pattern.  k singletons and one
    block of k are answered in linear time, without a search:

    >>> sigma = SetPartition(((1, 3), (2, 4)))
    >>> partition_contains(sigma, SetPartition(((1,), (2,))))
    MatchResult(contains=True, witness=(1, 2))
    >>> partition_contains(sigma, SetPartition(((1, 2),)))
    MatchResult(contains=True, witness=(1, 3))
    """
    k = pattern.n
    blocks = len(pattern.blocks)
    if blocks == k:
        # All singletons, the empty pattern and {{1}} included.  Block minima
        # ascend with the canonical order, so the first k minima form the
        # least witness.
        if len(text.blocks) < k:
            return _ABSENT
        return MatchResult(True, tuple(map(_first, text.blocks[:k])))
    if blocks == 1:
        # The first block with k elements holds the least witness: its first
        # k elements.
        for block in text.blocks:
            if len(block) >= k:
                return MatchResult(True, block[:k])
        return _ABSENT
    if 2 * blocks == k and 2 * len(text.blocks) == text.n:
        found = _matchstick_find(text, pattern)
        if found is not None:
            return found
    if not _blocks_fit(text, pattern):
        return _ABSENT
    hit = _K.part_find(text.word, pattern.word)
    return _ABSENT if hit is None else MatchResult(True, hit)


def partition_count(
    text: SetPartition, pattern: SetPartition, *, cancel: Cancel = None
) -> int:
    """Number of subsets whose restriction equals the pattern partition."""
    if not _blocks_fit(text, pattern):
        return 0
    return _K.part_count(text.word, pattern.word, cancel)


def rgf_contains(text: RGFWord, pattern: RGFWord) -> MatchResult:
    """Does the text word contain the pattern word?

    On success the witness is the lexicographically least position set whose
    subsequence value-standardizes to the pattern.
    """
    # A subsequence has no more distinct letters than its text, and a
    # restricted growth word has exactly max_letter of them.
    peak = pattern.max_letter
    if peak > text.max_letter:
        return _ABSENT
    if 2 * peak == len(pattern.letters) and 2 * text.max_letter == len(text.letters):
        found = _matchstick_find(text, pattern)
        if found is not None:
            return found
    hit = _K.rgf_find(text.letters, pattern.letters)
    return _ABSENT if hit is None else MatchResult(True, hit)


def rgf_count(text: RGFWord, pattern: RGFWord, *, cancel: Cancel = None) -> int:
    """Number of position sets whose subsequence value-standardizes to the
    pattern word."""
    if pattern.max_letter > text.max_letter:
        return 0
    return _K.rgf_count(text.letters, pattern.letters, cancel)

"""Containment and occurrence counting for all three structure classes.

Three notions of containment are implemented:

- permutations: some subsequence of the text is order isomorphic to the
  pattern;
- set partitions: some subset of the ground set restricts the text to the
  pattern;
- restricted growth words: some subsequence of the text value-standardizes
  to the pattern.

Each engine is a pruned backtracking search (permpart._kernels_py documents
the algorithms; a compiled twin is preferred when built).  The kernels only
search; the answers that need no search are given here first: the two
linear partition shapes (k singletons, one block of k), partitions whose
block sizes cannot hold the pattern's, and words with fewer distinct
letters than the pattern.  Witnesses are deterministic: always the
lexicographically least index or element sequence.  A pattern longer than
its text is simply not contained, never an error.

The subset-enumeration references these engines are validated against live
in permpart.oracle and share no search code with them.
"""

from __future__ import annotations

from typing import Callable

from ._backend import kernels as _K
from .core import Permutation, RGFWord, SetPartition, _Frozen, _store

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
    pattern's; a pattern longer than its text never fits."""
    hosts = sorted(map(len, text.blocks), reverse=True)
    sizes = sorted(map(len, pattern.blocks), reverse=True)
    return len(sizes) <= len(hosts) and all(s <= h for s, h in zip(sizes, hosts))


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
        return MatchResult(True, tuple(block[0] for block in text.blocks[:k]))
    if blocks == 1:
        # The first block with k elements holds the least witness: its first
        # k elements.
        for block in text.blocks:
            if len(block) >= k:
                return MatchResult(True, block[:k])
        return _ABSENT
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
    if pattern.max_letter > text.max_letter:
        return _ABSENT
    hit = _K.rgf_find(text.letters, pattern.letters)
    return _ABSENT if hit is None else MatchResult(True, hit)


def rgf_count(text: RGFWord, pattern: RGFWord, *, cancel: Cancel = None) -> int:
    """Number of position sets whose subsequence value-standardizes to the
    pattern word."""
    if pattern.max_letter > text.max_letter:
        return 0
    return _K.rgf_count(text.letters, pattern.letters, cancel)

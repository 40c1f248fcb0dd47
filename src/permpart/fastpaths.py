"""Linear-time containment for the two polynomially easy pattern shapes.

A pattern of size k with k blocks is a row of singletons {{1}, ..., {k}};
a text contains it iff the text has at least k blocks.  A pattern with a
single block {{1, ..., k}} is contained iff some text block has at least k
elements.  dispatch_contains answers these shapes directly and routes
everything else to the general backtracking matcher, returning exactly what
the general matcher would, witness included.
"""

from __future__ import annotations

from .core import SetPartition
from .matchers import MatchResult, partition_contains


def dispatch_contains(sigma: SetPartition, pattern: SetPartition) -> MatchResult:
    """Containment with fast-path routing; agrees with partition_contains on
    every input, including the witness."""
    k = pattern.n
    blocks = len(pattern.blocks)
    if blocks == k:
        # All singletons, the empty pattern and {{1}} included.  Block minima
        # ascend with the canonical order, so the first k minima form the
        # lexicographically least witness.
        if len(sigma.blocks) < k:
            return MatchResult(False)
        return MatchResult(True, tuple(block[0] for block in sigma.blocks[:k]))
    if blocks == 1:
        # The first block with k elements holds the least witness: its first
        # k elements.
        for block in sigma.blocks:
            if len(block) >= k:
                return MatchResult(True, block[:k])
        return MatchResult(False)
    return partition_contains(sigma, pattern)

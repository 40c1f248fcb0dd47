"""The permutation-to-partition reduction and its witness transport.

A permutation p of [n] maps to the "matchstick" partition of [2n] whose
blocks are the pairs {i, p_i + n}: every block joins a position in the lower
half to its value in the upper half.  Containment transfers exactly:
p contains a pattern q iff reduce_perm(p) contains reduce_perm(q), and the
occurrences of q correspond one-to-one to the restriction witnesses, via
transport_occurrence / recover_occurrence below.  The input size only
doubles, so any partition matcher decides permutation containment.
"""

from __future__ import annotations

from .core import Permutation, SetPartition
from .matchers import OccurrenceIndices, SubsetWitness


def reduce_perm(perm: Permutation) -> SetPartition:
    """Matchstick partition of [2n] with blocks {i, p_i + n}.

    >>> reduce_perm(Permutation((2, 3, 1))).blocks
    ((1, 5), (2, 6), (3, 4))
    """
    n = perm.n
    # The blocks, ordered by their lower ends, are canonical already, and
    # the word numbers each upper end n + v by the block of v: 1..n, then
    # the inverse of perm.
    inverse = [0] * n
    for i, v in enumerate(perm.values, start=1):
        inverse[v - 1] = i
    return SetPartition._from_canonical(
        tuple((i, v + n) for i, v in enumerate(perm.values, start=1)),
        2 * n,
        tuple(range(1, n + 1)) + tuple(inverse),
    )


def is_matchstick(sigma: SetPartition) -> bool:
    """Is this partition the image of some permutation under reduce_perm?

    That is: an even ground set [2n] in n blocks of size 2, each pairing an
    element <= n with one > n.  The test reads the block-index word once
    (see core._unreduce) and keeps the permutation it recovers on sigma,
    where the matchers look for it.
    """
    return sigma._unreduced is not None


def perm_of_matchstick(sigma: SetPartition) -> Permutation:
    """Recover the permutation a matchstick partition encodes.

    Inverse of reduce_perm; raises ValueError on anything else.
    """
    values = sigma._unreduced
    if values is None:
        raise ValueError(f"not a matchstick partition: {sigma.blocks}")
    return Permutation(values)


def transport_occurrence(perm: Permutation, occurrence: OccurrenceIndices) -> SubsetWitness:
    """Turn an occurrence of some pattern inside perm into a restriction
    witness on the reduced instance.

    The witness is the union of the occurrence's indices with the shifted
    values {p_i + n}; restricting reduce_perm(perm) to it yields the
    reduction of the standardized subsequence.
    """
    n = perm.n
    indices = tuple(occurrence)
    if any(not 1 <= i <= n for i in indices):
        raise ValueError(f"occurrence indices {indices} out of range for [{n}]")
    if list(indices) != sorted(set(indices)):
        raise ValueError(f"occurrence indices must be strictly increasing: {indices}")
    values = [perm.values[i - 1] for i in indices]
    # Facts the transport relies on, active in test builds: the lower and
    # upper halves of the witness cannot interleave.
    assert not indices or max(indices) < n + min(values)
    return tuple(sorted(indices + tuple(v + n for v in values)))


def recover_occurrence(perm: Permutation, witness: SubsetWitness) -> OccurrenceIndices:
    """Turn a restriction witness on the reduced instance back into the
    occurrence it came from.

    A valid witness is a union of complete blocks {i, p_i + n}; its lower
    half, sorted ascending, indexes the occurrence.  Anything else (in
    particular a witness splitting some block) is rejected.
    """
    n = perm.n
    chosen = set(witness)
    lower = sorted(e for e in chosen if 1 <= e <= n)
    paired = set(lower) | {perm.values[i - 1] + n for i in lower}
    if chosen != paired:
        raise ValueError(
            f"not a witness on the reduced instance of {perm.values}: {tuple(sorted(chosen))}"
        )
    return tuple(lower)

"""Independent reference code for checking the program's outputs.

Nothing here imports permpart.  Structures are plain tuples: a permutation
is its value word, a set partition is its canonical block tuple (elements
ascending in each block, blocks ordered by their minima), a word is its
letter tuple.  Everything is 1-based, as in permpart's public API.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence


def standardize(seq: Sequence[int]) -> tuple[int, ...]:
    """Replace each value by its rank among the distinct values."""
    rank = {v: i for i, v in enumerate(sorted(set(seq)), start=1)}
    return tuple(rank[v] for v in seq)


def canonical(blocks: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))


def restrict(blocks: Sequence[Sequence[int]], subset: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Restriction of a partition to a subset, standardized to [#subset]."""
    rank = {e: i for i, e in enumerate(sorted(subset), start=1)}
    kept = (tuple(rank[e] for e in b if e in rank) for b in blocks)
    return canonical(b for b in kept if b)


def word_of(blocks: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Block-index word: letter i names the block (by order of minima) holding i."""
    letters = [0] * sum(len(b) for b in blocks)
    for index, block in enumerate(canonical(blocks), start=1):
        for e in block:
            letters[e - 1] = index
    return tuple(letters)


def blocks_of(word: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    groups: dict[int, list[int]] = {}
    for position, letter in enumerate(word, start=1):
        groups.setdefault(letter, []).append(position)
    return canonical(groups.values())


def is_rgf(word: Sequence[int]) -> bool:
    peak = 0
    for letter in word:
        if not 1 <= letter <= peak + 1:
            return False
        peak = max(peak, letter)
    return True


def matchstick(perm: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The reduction of the paper: blocks {i, p_i + n}."""
    n = len(perm)
    return canonical((i, v + n) for i, v in enumerate(perm, start=1))


def format_blocks(blocks: Sequence[Sequence[int]]) -> str:
    return "/".join(",".join(map(str, b)) for b in blocks)


def format_seq(seq: Iterable[int]) -> str:
    return ",".join(map(str, seq))


# Witness predicates: does this 1-based position/element tuple certify an
# occurrence of the pattern?

def part_occurs_at(text: Sequence[Sequence[int]], pattern: Sequence[Sequence[int]], witness: Sequence[int]) -> bool:
    n = sum(len(b) for b in text)
    return (
        sum(len(b) for b in pattern) == len(witness)
        and list(witness) == sorted(set(witness))
        and all(1 <= e <= n for e in witness)
        and restrict(text, witness) == canonical(pattern)
    )


def seq_occurs_at(text: Sequence[int], pattern: Sequence[int], witness: Sequence[int]) -> bool:
    """Permutations and words alike: the subsequence standardizes to the pattern."""
    return (
        len(witness) == len(pattern)
        and list(witness) == sorted(set(witness))
        and all(1 <= i <= len(text) for i in witness)
        and standardize([text[i - 1] for i in witness]) == tuple(pattern)
    )


# Brute force over all subsets, in lexicographic order, so the first hit is
# the lexicographically least witness.

def brute_witnesses(kind: str, text, pattern) -> Iterable[tuple[int, ...]]:
    """kind is "partition" (block tuples) or anything else (sequences)."""
    if kind == "partition":
        n = sum(len(b) for b in text)
        k = sum(len(b) for b in pattern)
        target = canonical(pattern)
        return (s for s in itertools.combinations(range(1, n + 1), k) if restrict(text, s) == target)
    target = tuple(pattern)
    return (
        s
        for s in itertools.combinations(range(1, len(text) + 1), len(pattern))
        if standardize([text[i - 1] for i in s]) == target
    )


def brute_least(kind: str, text, pattern) -> tuple[int, ...] | None:
    return next(iter(brute_witnesses(kind, text, pattern)), None)


def brute_count(kind: str, text, pattern) -> int:
    return sum(1 for _ in brute_witnesses(kind, text, pattern))


# Known values for the census anchors (Sagan, "Pattern avoidance in set
# partitions", arXiv:math/0604292).

def bell_numbers(n: int) -> list[int]:
    """Bell(0..n) from the Bell triangle."""
    bells = [1]
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
        bells.append(row[0])
    return bells


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def involutions(n: int) -> int:
    a, b = 1, 1  # I(0), I(1)
    for m in range(2, n + 1):
        a, b = b, b + (m - 1) * a
    return b if n >= 1 else a

"""Brute-force references, exhaustive enumerators, and verification gates.

The references here are deliberately naive transcriptions of the
definitions: partition containment scans every subset of the right size and
compares restrictions.  They share no search code with the engines in
permpart.matchers, which is the point; verify_reduction and
verify_rgf_coincidence judge the engines (and the permutation-to-partition
reduction itself) against them over every instance up to the given bounds.
The gates tally each text's restrictions once per subset size and answer
every pattern of that size from the tally, so each subset is restricted
once per text rather than once per pattern.

Enumeration orders are fixed so runs reproduce byte for byte:
permutations stream in lexicographic order of their value words, partitions
in lexicographic order of their canonical block forms.

Factorial and Bell growth make unbounded runs runaway jobs, so the
verification and census entry points refuse bounds above a safety limit
unless forced.  Verification may spread independent instances over worker
processes; reports aggregate associatively and mismatch lists are sorted,
so the outcome is schedule independent.  The process pool is imported only
when one runs (jobs > 1 and more than one item), so a serial run does not
import concurrent.futures or multiprocessing.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal

from . import matchers
from .core import (
    Permutation,
    RGFWord,
    SetPartition,
    partition_of_rgf,
    restrict,
    rgf_of,
)
from .errors import BoundExceeded
from .matchers import partition_count, perm_contains, perm_count, rgf_contains
from .reduction import reduce_perm

VERIFY_BOUND = 6
CENSUS_BOUND = 10

# The two containment notions provably differ on this pair: the word text
# avoids the word pattern, yet the corresponding partitions do contain.
SEPARATION_TEXT = (1, 2, 2, 1)
SEPARATION_PATTERN = (1, 1, 2)

Notion = Literal["partition", "rgf"]


def bell_number(n: int) -> int:
    """n-th Bell number via the Bell triangle recurrence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def enumerate_permutations(n: int) -> Iterator[Permutation]:
    """All n! permutations of [n], in lexicographic order of value words."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    for values in itertools.permutations(range(1, n + 1)):
        yield Permutation(values)


def _rgf_words(n: int) -> list[tuple[int, ...]]:
    """All restricted growth words of length n, lexicographically.

    Grown one letter at a time: a prefix whose maximum is m extends by each
    of 1..m, keeping m, and by m + 1, raising it.
    """
    words: list[tuple[int, ...]] = [()]
    peaks = [0]
    for _ in range(n):
        longer: list[tuple[int, ...]] = []
        longer_peaks: list[int] = []
        for word, peak in zip(words, peaks):
            for letter in range(1, peak + 1):
                longer.append(word + (letter,))
                longer_peaks.append(peak)
            longer.append(word + (peak + 1,))
            longer_peaks.append(peak + 1)
        words, peaks = longer, longer_peaks
    return words


def enumerate_partitions(n: int) -> Iterator[SetPartition]:
    """All Bell(n) partitions of [n], in lexicographic order of canonical
    block forms."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    parts = [partition_of_rgf(RGFWord(word)) for word in _rgf_words(n)]
    parts.sort(key=lambda p: p.blocks)
    yield from parts


def brute_partition_contains(text: SetPartition, pattern: SetPartition) -> bool:
    """Literal containment definition: does any subset of the text's ground
    set, of the pattern's size, restrict the text to the pattern?"""
    k = pattern.n
    for subset in itertools.combinations(range(1, text.n + 1), k):
        if restrict(text, subset) == pattern:
            return True
    return False


def brute_partition_count(text: SetPartition, pattern: SetPartition) -> int:
    """Number of witnesses, by full subset enumeration."""
    k = pattern.n
    return sum(
        1
        for subset in itertools.combinations(range(1, text.n + 1), k)
        if restrict(text, subset) == pattern
    )


@dataclass(frozen=True)
class Mismatch:
    """One disagreement found by a verification run."""

    check: str
    text: tuple[int, ...]
    pattern: tuple[int, ...]
    engine: bool | int
    oracle: bool | int


@dataclass(frozen=True)
class VerificationReport:
    max_n: int
    max_k: int
    pairs_checked: int
    mismatches: tuple[Mismatch, ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _check_verify_bounds(max_n: int, max_k: int, force: bool) -> None:
    if max_n < 0 or max_k < 0:
        raise ValueError("bounds must be nonnegative")
    if not force and (max_n > VERIFY_BOUND or max_k > VERIFY_BOUND):
        raise BoundExceeded(
            f"refusing max_n={max_n}, max_k={max_k}: factorial growth past "
            f"{VERIFY_BOUND} is a runaway job (pass force=True / --force to override)"
        )


def _sorted_mismatches(mismatches: Iterable[Mismatch]) -> tuple[Mismatch, ...]:
    return tuple(
        sorted(
            mismatches,
            key=lambda m: (len(m.text), m.text, len(m.pattern), m.pattern, m.check),
        )
    )


def _map_chunks(worker, items: list, args: tuple, jobs: int) -> list:
    """worker((chunk, *args)) for each chunk of the items, in chunk order:
    one chunk of all the items run here when jobs is 1 or there is at most
    one item, else at most one chunk per job, each in a worker process of a
    pool sized to the chunks (the fork start method starts every worker the
    pool may have, needed or not)."""
    if jobs <= 1 or len(items) < 2:
        return [worker((items, *args))]
    per = (len(items) + jobs - 1) // jobs
    payloads = [(items[i : i + per], *args) for i in range(0, len(items), per)]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(payloads)) as pool:
        return list(pool.map(worker, payloads))


def _verify_texts(worker, max_n: int, max_k: int, jobs: int) -> tuple[int, list[Mismatch]]:
    """Run a gate's worker over every permutation text of size 1..max_n and
    merge the pair counts and mismatches of its chunks."""
    texts = [
        perm.values for n in range(1, max_n + 1) for perm in enumerate_permutations(n)
    ]
    results = _map_chunks(worker, texts, (max_k,), jobs)
    return sum(pairs for pairs, _ in results), [m for _, chunk in results for m in chunk]


def _reduction_patterns(max_k: int) -> list[tuple[Permutation, SetPartition]]:
    return [
        (tau, reduce_perm(tau))
        for k in range(1, max_k + 1)
        for tau in enumerate_permutations(k)
    ]


def _restriction_tally(text: SetPartition, sizes: Iterable[int]) -> Counter[SetPartition]:
    """Restrictions of the text to every subset of each given size, tallied.

    The brute-force reference for all patterns of those sizes at once: a
    pattern of size k is contained iff its tally is positive, and its tally
    is brute_partition_count(text, pattern), by the same subset scan.
    """
    tally: Counter[SetPartition] = Counter()
    ground = range(1, text.n + 1)
    for k in sizes:
        tally.update(restrict(text, subset) for subset in itertools.combinations(ground, k))
    return tally


def _verify_reduction_chunk(payload) -> tuple[int, list[Mismatch]]:
    perm_values, max_k = payload
    patterns = _reduction_patterns(max_k)
    sizes = sorted({reduced.n for _, reduced in patterns})
    pairs = 0
    mismatches = []
    for values in perm_values:
        perm = Permutation(values)
        reduced_text = reduce_perm(perm)
        tally = _restriction_tally(reduced_text, sizes)
        for tau, reduced_pattern in patterns:
            pairs += 1
            witnesses = tally[reduced_pattern]
            engine = perm_contains(perm, tau).contains
            reference = witnesses > 0
            if engine != reference:
                mismatches.append(
                    Mismatch("containment", values, tau.values, engine, reference)
                )
            if perm.n <= 5 and tau.n <= 3:
                occurrences = perm_count(perm, tau)
                if occurrences != witnesses:
                    mismatches.append(
                        Mismatch("parsimony", values, tau.values, occurrences, witnesses)
                    )
                engine_witnesses = partition_count(reduced_text, reduced_pattern)
                if engine_witnesses != witnesses:
                    mismatches.append(
                        Mismatch(
                            "count-agreement",
                            values,
                            tau.values,
                            engine_witnesses,
                            witnesses,
                        )
                    )
    return pairs, mismatches


def verify_reduction(
    max_n: int = 6, max_k: int = 5, *, force: bool = False, jobs: int = 1
) -> VerificationReport:
    """Check the reduction against the subset-enumeration reference.

    For every permutation pair (text of size 1..max_n, pattern of size
    1..max_k): the permutation engine's containment answer must equal
    brute-force containment of the reduced partitions.  For texts up to 5
    and patterns up to 3, occurrence counts must also match witness counts
    exactly (the reduction is parsimonious), on both the brute-force and
    backtracking count routes.  The defaults check all 133,569 pairs with
    texts to 6 and patterns to 5.
    """
    _check_verify_bounds(max_n, max_k, force)
    start = time.perf_counter()
    pairs, mismatches = _verify_texts(_verify_reduction_chunk, max_n, max_k, jobs)
    return VerificationReport(
        max_n, max_k, pairs, _sorted_mismatches(mismatches), time.perf_counter() - start
    )


def _verify_rgf_chunk(payload) -> tuple[int, list[Mismatch]]:
    perm_values, max_k = payload
    patterns = [
        (tau.values, reduced, rgf_of(reduced)) for tau, reduced in _reduction_patterns(max_k)
    ]
    sizes = sorted({reduced.n for _, reduced, _ in patterns})
    pairs = 0
    mismatches = []
    for values in perm_values:
        perm = Permutation(values)
        reduced_text = reduce_perm(perm)
        text_word = rgf_of(reduced_text)
        tally = _restriction_tally(reduced_text, sizes)
        for tau_values, reduced_pattern, pattern_word in patterns:
            pairs += 1
            word_answer = rgf_contains(text_word, pattern_word).contains
            partition_answer = tally[reduced_pattern] > 0
            if word_answer != partition_answer:
                mismatches.append(
                    Mismatch(
                        "rgf-coincidence", values, tau_values, word_answer, partition_answer
                    )
                )
    return pairs, mismatches


def verify_rgf_coincidence(
    max_n: int = 5, max_k: int = 3, *, force: bool = False, jobs: int = 1
) -> VerificationReport:
    """Check that word containment and partition containment coincide on
    reduced instances, and that they differ in general.

    On every reduced pair the word notion must answer exactly as brute-force
    partition containment.  Separately, the recorded separation pair (word
    text 1,2,2,1 against pattern 1,1,2) must avoid as words yet contain as
    partitions, pinning down that the coincidence is special to reduced
    instances.
    """
    _check_verify_bounds(max_n, max_k, force)
    start = time.perf_counter()
    pairs, mismatches = _verify_texts(_verify_rgf_chunk, max_n, max_k, jobs)

    word_answer = rgf_contains(RGFWord(SEPARATION_TEXT), RGFWord(SEPARATION_PATTERN)).contains
    partition_answer = brute_partition_contains(
        partition_of_rgf(RGFWord(SEPARATION_TEXT)),
        partition_of_rgf(RGFWord(SEPARATION_PATTERN)),
    )
    if word_answer is not False or partition_answer is not True:
        mismatches.append(
            Mismatch(
                "rgf-separation",
                SEPARATION_TEXT,
                SEPARATION_PATTERN,
                word_answer,
                partition_answer,
            )
        )
    return VerificationReport(
        max_n, max_k, pairs, _sorted_mismatches(mismatches), time.perf_counter() - start
    )


@dataclass(frozen=True)
class CensusRow:
    """Avoider/container counts for one pattern over all structures of [n]."""

    n: int
    pattern: SetPartition | RGFWord
    notion: Notion
    avoiders: int
    containers: int

    @property
    def total(self) -> int:
        return self.avoiders + self.containers


def _census_chunk(payload) -> int:
    """How many of the words contain the pattern word.

    The words are restricted growth words, read as partitions (their
    block-index words) or as words by notion; the pattern is a restricted
    growth word too.  Its two linear shapes are decided from the letters,
    with the same answers under both notions; any other pattern goes to the
    kernel, looked up here so that a substituted kernel table is used.
    """
    words, pattern, notion = payload
    k = len(pattern)
    if k == 0:
        return len(words)
    # A restricted growth word uses every letter up to its maximum, so it has
    # at least m blocks (distinct letters) iff the letter m occurs.
    m = max(pattern)
    if m == k:
        # 1, 2, ..., k: the text needs k blocks.
        return sum(1 for word in words if k in word)
    if m == 1:
        # One block of k: some letter must occur k times.
        return sum(
            1 for word in words if any(word.count(letter) >= k for letter in set(word))
        )
    # Otherwise the text needs m blocks too, then a kernel search.
    kernels = matchers._K
    find = kernels.part_find if notion == "partition" else kernels.rgf_find
    return sum(1 for word in words if m in word and find(word, pattern) is not None)


def census(
    n: int,
    pattern: SetPartition | RGFWord,
    notion: Notion = "partition",
    *,
    force: bool = False,
    jobs: int = 1,
) -> CensusRow:
    """Count avoiders and containers of a pattern among all Bell(n)
    structures of [n], under the chosen containment notion.

    The partition notion takes a SetPartition pattern and the word notion
    an RGFWord pattern.  Both run over the block-index words of all
    partitions of [n] with the pattern encoded once: all-singleton and
    single-block patterns are decided from letter counts, as in
    permpart.fastpaths, and any other pattern by the partition or the word
    kernel.  No structure is built per text.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not force and n > CENSUS_BOUND:
        raise BoundExceeded(
            f"refusing census at n={n}: Bell growth past {CENSUS_BOUND} is a "
            "runaway job (pass force=True / --force to override)"
        )
    if notion == "partition":
        if not isinstance(pattern, SetPartition):
            raise ValueError("partition-notion census needs a SetPartition pattern")
    elif notion == "rgf":
        if not isinstance(pattern, RGFWord):
            raise ValueError("word-notion census needs an RGFWord pattern")
    else:
        raise ValueError(f"unknown notion: {notion!r}")

    pattern_word = pattern.word if isinstance(pattern, SetPartition) else pattern.letters
    words = _rgf_words(n)
    hits = sum(_map_chunks(_census_chunk, words, (pattern_word, notion), jobs))
    return CensusRow(n, pattern, notion, len(words) - hits, hits)

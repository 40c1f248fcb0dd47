"""Brute-force references, exhaustive enumerators, and verification gates.

The references here are deliberately naive transcriptions of the
definitions: partition containment scans every subset of the right size and
compares restrictions, each read off the text's block-index word (the
letters at the subset, renumbered by first appearance).  One subset scan
serves brute_partition_contains, brute_partition_count and the gates'
tally.  The references share no search code with the engines in
permpart.matchers, which is the point; verify_reduction and
verify_rgf_coincidence judge the engines (and the permutation-to-partition
reduction itself) against them over every instance up to the given bounds.

Both gates run one gate loop and differ only in their check, made once
per text.  A chunk worker encodes each permutation once per chunk (the
permutation and its reduced partition), a text that is also a pattern
reusing the pattern's encoding; it tallies the text's restrictions to its
subsets of every pattern size in one Counter, and hands the text, every
pattern and the tally to the check, which reads each pattern's witness
count off the tally; so each subset is restricted once per text rather
than once per pattern.  The texts share few letter tuples, so the chunk
keeps one relabel memo: each distinct tuple is renumbered once, and the
memo holds those tuples (51,612 for verify_reduction at its default bounds,
398 at (4, 4)) until the chunk ends.  A forced run past the bounds has
more, so the memo starts afresh whenever it reaches _RELABEL_MEMO_CAP
(65,536) tuples, which bounds its memory whatever the run.  Nothing is kept
from one call to the next.  One runner checks the bounds, times the run,
merges the chunks and sorts the report.

The tally is most of what a gate costs beyond its engine calls.  At
(4, 4), on the compiled kernels, a gate whose check does nothing, so the
encodings and the tallies alone, takes about 0.85 ms of the 1.5 ms
verify_reduction takes: the tallies make one memo lookup for each of the
3,249 subsets, and for the 398 distinct tuples a relabel of about 0.5 us
(2-core x86-64, Python 3.11).

Enumeration orders are fixed so runs reproduce byte for byte, and both
enumerators yield one structure at a time: permutations in lexicographic
order of their value words, partitions in lexicographic order of their
canonical block forms, which are built block by block with no word.

A census walks the tree of avoiding prefixes rather than all Bell(n)
words.  Containment is hereditary under prefixes, since a word's prefix of
length m is its restriction to [m] (Sagan's restriction notion), so only
avoiders are extended, a child of an avoider is tested only through its
last position, by one search in its parent with the pattern's last letter
bound to the child's, and the containers are Bell(n) less the avoiders.
The cost follows the avoiders, not Bell(n).  The walk runs inside the kernels
(part_avoiders and rgf_avoiders, see permpart._kernels_py), found at call
time on permpart._backend.

Factorial and Bell growth make unbounded runs runaway jobs, so the
verification and census entry points refuse bounds above a safety limit
unless forced.  Both may spread independent work over worker processes:
the gates their texts, a census the avoiding prefixes at a fixed cut
depth, which it takes only then; jobs below 1 raise ValueError before any
work.  Reports aggregate associatively and mismatch lists are sorted, and
avoider counts add, so the outcome is schedule independent.  The process pool is imported only when one runs
(jobs > 1 and more than one item), so a serial run does not import
concurrent.futures or multiprocessing, and it is never larger than the
chunks or the CPUs this process may use.
"""

from __future__ import annotations

import itertools
import operator
import os
import time
from collections import Counter
from typing import Iterable, Iterator, Literal

from . import _backend, matchers
from .core import Permutation, RGFWord, SetPartition, _Frozen
from .errors import BoundExceeded
from .matchers import partition_count, perm_contains, perm_count, rgf_contains
from .reduction import reduce_perm

VERIFY_BOUND = 6
CENSUS_BOUND = 10
# A census with jobs > 1 picks its avoiding prefixes of this length here,
# then hands them to the chunk workers: the at most 15 words of [4] are
# cheap to test serially and, even after pruning, enough to split over a
# few jobs.  A one-job census needs no cut and walks from the empty prefix.
_CUT_DEPTH = 4
# A gate chunk's relabel memo starts afresh once it holds this many letter
# tuples: above the 51,612 of the default bounds, so those runs never clear
# it, and a forced run holds at most about 16 MB of memo, whatever its size.
_RELABEL_MEMO_CAP = 1 << 16

# The two containment notions provably differ on this pair: the word text
# avoids the word pattern, yet the corresponding partitions do contain.
SEPARATION_TEXT = (1, 2, 2, 1)
SEPARATION_PATTERN = (1, 1, 2)

Notion = Literal["partition", "rgf"]


def bell_number(n: int) -> int:
    """n-th Bell number via the Bell triangle recurrence.

    >>> [bell_number(n) for n in range(6)]
    [1, 1, 2, 5, 15, 52]
    """
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
    n = operator.index(n)
    if n < 0:
        raise ValueError("n must be nonnegative")
    for values in itertools.permutations(range(1, n + 1)):
        yield Permutation(values)


def _block_forms(block: tuple[int, ...], rest: tuple[int, ...]) -> Iterator[tuple]:
    """Ascending canonical block forms of the partitions of block and rest
    (ascending) whose first block is block, closed first, then extended by
    each later element of rest in increasing order."""
    for tail in _block_forms(rest[:1], rest[1:]) if rest else [()]:
        yield (block,) + tail
    for i, e in enumerate(rest):
        if e > block[-1]:
            yield from _block_forms(block + (e,), rest[:i] + rest[i + 1 :])


def enumerate_partitions(n: int) -> Iterator[SetPartition]:
    """All Bell(n) partitions of [n], one at a time, in lexicographic order
    of canonical block forms."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("n must be nonnegative")
    ground = tuple(range(1, n + 1))
    for blocks in _block_forms(ground[:1], ground[1:]) if n else [()]:
        yield SetPartition._from_canonical(blocks, n)


def _relabel(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The letters renumbered 1, 2, ... by first appearance."""
    labels: dict[int, int] = {}
    return tuple([labels.setdefault(x, len(labels) + 1) for x in letters])


class _Relabelled(dict):
    """A relabel memo: letters -> _relabel(letters), computed on first
    lookup and kept until the memo holds _RELABEL_MEMO_CAP tuples, when it
    starts afresh."""

    def __missing__(self, letters: tuple[int, ...]) -> tuple[int, ...]:
        if len(self) >= _RELABEL_MEMO_CAP:
            self.clear()
        self[letters] = word = _relabel(letters)
        return word


def _restrictions(word: tuple[int, ...], k: int, relabel) -> Iterator[tuple[int, ...]]:
    """The block-index words of a partition's restrictions to its k-subsets,
    read off the partition's own word, subsets in lexicographic order: the
    one subset scan behind every brute-force reference.  relabel renumbers
    the letters at a subset by first appearance: _relabel itself, or a
    chunk's _Relabelled memo."""
    return map(relabel, itertools.combinations(word, k))


def brute_partition_contains(text: SetPartition, pattern: SetPartition) -> bool:
    """Literal containment definition: does any subset of the text's ground
    set, of the pattern's size, restrict the text to the pattern?"""
    return any(r == pattern.word for r in _restrictions(text.word, pattern.n, _relabel))


def brute_partition_count(text: SetPartition, pattern: SetPartition) -> int:
    """Number of witnesses, by full subset enumeration.

    >>> brute_partition_count(SetPartition(((1, 3), (2, 4))), SetPartition(((1,), (2,))))
    4
    """
    return sum(r == pattern.word for r in _restrictions(text.word, pattern.n, _relabel))


class Mismatch(_Frozen):
    """One disagreement found by a verification run."""

    _fields = ("check", "text", "pattern", "engine", "oracle")
    check: str
    text: tuple[int, ...]
    pattern: tuple[int, ...]
    engine: bool | int
    oracle: bool | int

    def __init__(
        self,
        check: str,
        text: tuple[int, ...],
        pattern: tuple[int, ...],
        engine: bool | int,
        oracle: bool | int,
    ) -> None:
        self._store_fields(check, text, pattern, engine, oracle)


class VerificationReport(_Frozen):
    """The outcome of a verification gate: its bounds, how many pairs it
    checked, its sorted mismatches and its run time in seconds."""

    _fields = ("max_n", "max_k", "pairs_checked", "mismatches", "elapsed")
    max_n: int
    max_k: int
    pairs_checked: int
    mismatches: tuple[Mismatch, ...]
    elapsed: float

    def __init__(
        self,
        max_n: int,
        max_k: int,
        pairs_checked: int,
        mismatches: tuple[Mismatch, ...],
        elapsed: float,
    ) -> None:
        self._store_fields(max_n, max_k, pairs_checked, mismatches, elapsed)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _sorted_mismatches(mismatches: Iterable[Mismatch]) -> tuple[Mismatch, ...]:
    return tuple(
        sorted(
            mismatches,
            key=lambda m: (len(m.text), m.text, len(m.pattern), m.pattern, m.check),
        )
    )


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_chunks(worker, items: list, args: tuple, jobs: int) -> list:
    """worker((chunk, *args)) for each chunk of the items, in chunk order:
    one chunk of all the items run here when jobs is 1 or there is at most
    one item, else at most one chunk per job, run by a pool of worker
    processes no larger than the chunks or the usable CPUs (the fork start
    method starts every worker the pool may have, needed or not).  On any
    exception here, a Ctrl-C sent to this process alone included, the
    pending chunks are cancelled and the workers stopped before it
    propagates: leaving the pool's block would otherwise wait for every
    chunk to finish."""
    if jobs <= 1 or len(items) < 2:
        return [worker((items, *args))]
    per = (len(items) + jobs - 1) // jobs
    payloads = [(items[i : i + per], *args) for i in range(0, len(items), per)]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(len(payloads), _usable_cpus())) as pool:
        try:
            return list(pool.map(worker, payloads))
        except BaseException:
            # The executor has no public way to stop its workers.
            workers = list((getattr(pool, "_processes", None) or {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            for process in workers:
                process.terminate()
            raise


# A gate's view of one permutation: the permutation and its reduced
# partition.
Encoded = tuple[Permutation, SetPartition]


def _encode(perm: Permutation) -> Encoded:
    return perm, reduce_perm(perm)


def _verify_chunk(payload) -> tuple[int, list[Mismatch]]:
    """check(text, patterns, tally) for every text of the chunk, patterns
    all those of size 1..max_k and tally the text's restriction words,
    where each pattern finds its brute_partition_count.  A text that is
    also a pattern reuses the pattern's encoding, and one relabel memo
    serves the whole chunk and goes with it."""
    texts, max_k, check = payload
    encoded = {
        tau.values: _encode(tau) for k in range(1, max_k + 1) for tau in enumerate_permutations(k)
    }
    patterns = list(encoded.values())
    sizes = sorted({reduced.n for _, reduced in patterns})
    relabel = _Relabelled().__getitem__
    mismatches: list[Mismatch] = []
    for values in texts:
        text = encoded.get(values) or _encode(Permutation(values))
        word = text[1].word
        tally = Counter(
            itertools.chain.from_iterable(_restrictions(word, k, relabel) for k in sizes)
        )
        mismatches += check(text, patterns, tally)
    return len(texts) * len(patterns), mismatches


def _run_gate(check, max_n: int, max_k: int, force: bool, jobs: int, extra=tuple):
    """The gate loop over permutation texts of size 1..max_n, plus the
    mismatches extra() returns, as a sorted and timed report."""
    max_n, max_k, jobs = operator.index(max_n), operator.index(max_k), operator.index(jobs)
    if max_n < 0 or max_k < 0:
        raise ValueError("bounds must be nonnegative")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if not force and (max_n > VERIFY_BOUND or max_k > VERIFY_BOUND):
        raise BoundExceeded(
            f"refusing max_n={max_n}, max_k={max_k}: factorial growth past "
            f"{VERIFY_BOUND} is a runaway job (pass force=True / --force to override)"
        )
    start = time.perf_counter()
    texts = [v for n in range(1, max_n + 1) for v in itertools.permutations(range(1, n + 1))]
    results = _map_chunks(_verify_chunk, texts, (max_k, check), jobs)
    mismatches = [m for _, chunk in results for m in chunk] + list(extra())
    pairs = sum(pairs for pairs, _ in results)
    return VerificationReport(
        max_n, max_k, pairs, _sorted_mismatches(mismatches), time.perf_counter() - start
    )


def _reduction_check(text: Encoded, patterns: list[Encoded], tally: Counter) -> list[Mismatch]:
    perm, reduced_text = text
    counted = len(perm.values) <= 5
    mismatches = []
    for tau, reduced_pattern in patterns:
        witnesses = tally.get(reduced_pattern.word, 0)
        engine = perm_contains(perm, tau).contains
        if engine != (witnesses > 0):
            mismatches.append(
                Mismatch("containment", perm.values, tau.values, engine, witnesses > 0)
            )
        if counted and len(tau.values) <= 3:
            occurrences = perm_count(perm, tau)
            if occurrences != witnesses:
                mismatches.append(
                    Mismatch("parsimony", perm.values, tau.values, occurrences, witnesses)
                )
            engine_witnesses = partition_count(reduced_text, reduced_pattern)
            if engine_witnesses != witnesses:
                mismatches.append(
                    Mismatch(
                        "count-agreement", perm.values, tau.values, engine_witnesses, witnesses
                    )
                )
    return mismatches


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
    return _run_gate(_reduction_check, max_n, max_k, force, jobs)


def _word_contains(text: tuple[int, ...], pattern: tuple[int, ...]) -> bool:
    """The word search's own answer on two words' letters.  rgf_contains
    would hand a reduced pair to the permutation kernel, and the gate is
    there to judge the word search; it is looked up on matchers._K when
    called, as the engines do."""
    return matchers._K.rgf_find(text, pattern) is not None


def _rgf_check(text: Encoded, patterns: list[Encoded], tally: Counter) -> list[Mismatch]:
    perm, reduced_text = text
    mismatches = []
    for tau, reduced_pattern in patterns:
        contained = tally.get(reduced_pattern.word, 0) > 0
        word_answer = _word_contains(reduced_text.word, reduced_pattern.word)
        if word_answer != contained:
            mismatches.append(
                Mismatch("rgf-coincidence", perm.values, tau.values, word_answer, contained)
            )
    return mismatches


def _separation_check() -> Iterator[Mismatch]:
    text, pattern = SEPARATION_TEXT, SEPARATION_PATTERN
    word_answer = rgf_contains(RGFWord(text), RGFWord(pattern)).contains
    partition_answer = pattern in _restrictions(text, len(pattern), _relabel)
    if word_answer is not False or partition_answer is not True:
        yield Mismatch("rgf-separation", text, pattern, word_answer, partition_answer)


def verify_rgf_coincidence(
    max_n: int = 5, max_k: int = 3, *, force: bool = False, jobs: int = 1
) -> VerificationReport:
    """Check that word containment and partition containment coincide on
    reduced instances, and that they differ in general.

    On every reduced pair the word search must answer exactly as
    brute-force partition containment: the gate asks the word kernel
    itself, since rgf_contains answers reduced pairs by the permutation
    kernel.  Separately, the recorded separation pair (word
    text 1,2,2,1 against pattern 1,1,2) must avoid as words yet contain as
    partitions, pinning down that the coincidence is special to reduced
    instances.
    """
    return _run_gate(_rgf_check, max_n, max_k, force, jobs, _separation_check)


class CensusRow(_Frozen):
    """Avoider/container counts for one pattern over all structures of [n]."""

    _fields = ("n", "pattern", "notion", "avoiders", "containers")
    n: int
    pattern: SetPartition | RGFWord
    notion: Notion
    avoiders: int
    containers: int

    def __init__(
        self,
        n: int,
        pattern: SetPartition | RGFWord,
        notion: Notion,
        avoiders: int,
        containers: int,
    ) -> None:
        self._store_fields(n, pattern, notion, avoiders, containers)

    @property
    def total(self) -> int:
        return self.avoiders + self.containers


def _avoiders_kernel(notion: Notion):
    """The census walk of the active kernels for the notion.  Looked up on
    permpart._backend when called, so that a substituted kernel module is
    used; matchers._K may be a stand-in that holds only the searches."""
    kernels = _backend.kernels
    return kernels.part_avoiders if notion == "partition" else kernels.rgf_avoiders


def _census_chunk(payload) -> int:
    """How many restricted growth words of length n extend the chunk's
    prefixes and avoid the pattern word, read as partitions (their
    block-index words) or as words by notion."""
    prefixes, pattern, n, notion = payload
    walk = _avoiders_kernel(notion)
    return sum(walk(prefix, pattern, n) for prefix in prefixes)


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
    an RGFWord pattern.  Both grow the block-index words of [n] one letter
    at a time, keeping only those that avoid the pattern word, and count
    the avoiders of length n; the kernels walk the tree (part_avoiders,
    rgf_avoiders), so no Python object is built per text.  With one job the
    census is one walk from the empty prefix.  With jobs > 1 the avoiding
    words of length 4 (or n, if less) are picked here and split into at
    most jobs chunks for worker processes, each walking below its prefixes.
    The containers are Bell(n) less the avoiders.  Bell(n) comes from the
    Bell triangle, about n**2 / 2 additions of n-digit integers, so it
    dominates a forced census of a pattern with few avoiders:
    bell_number(2000) takes about 0.5 s, the pure walk of 1,2 at n = 2,000
    about 6 ms.

    >>> census(6, SetPartition(((1, 3), (2, 4)))).avoiders
    132
    """
    n, jobs = operator.index(n), operator.index(jobs)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
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
    depth = min(n, _CUT_DEPTH) if jobs > 1 else 0
    walk = _avoiders_kernel(notion)
    words = [p.word for p in enumerate_partitions(depth)] if depth else [()]
    prefixes = [word for word in words if walk(word, pattern_word, depth)]
    avoiders = sum(_map_chunks(_census_chunk, prefixes, (pattern_word, n, notion), jobs))
    return CensusRow(n, pattern, notion, avoiders, bell_number(n) - avoiders)

import json
import os
import tracemalloc
from itertools import combinations, product
from types import SimpleNamespace

import pytest

from permpart import (
    BoundExceeded,
    MatchResult,
    Mismatch,
    Permutation,
    RGFWord,
    SetPartition,
    bell_number,
    brute_partition_contains,
    brute_partition_count,
    census,
    dispatch_contains,
    enumerate_partitions,
    enumerate_permutations,
    partition_of_rgf,
    reduce_perm,
    restrict,
    rgf_contains,
    rgf_of,
    verify_reduction,
    verify_rgf_coincidence,
)
from permpart import _backend, _kernels_py, matchers, oracle
from permpart.cli import run_command
from helpers import (
    SAGAN_ANCHORS,
    Index,
    bell_by_triangle,
    flatten,
    partitions_of,
    perms_of,
    reversed_partition,
    rgf_words_of,
    value_standardize,
)


class TestBellNumbers:
    def test_known_values(self):
        assert [bell_number(n) for n in range(11)] == [
            1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975,
        ]

    def test_matches_independent_triangle(self):
        for n in range(12):
            assert bell_number(n) == bell_by_triangle(n)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bell_number(-1)


class TestEnumerators:
    def test_permutations_lexicographic(self):
        perms = list(enumerate_permutations(3))
        assert len(perms) == 6
        assert perms[0].values == (1, 2, 3)
        assert perms[-1].values == (3, 2, 1)
        values = [p.values for p in perms]
        assert values == sorted(values)

    def test_permutation_counts(self):
        assert len(list(enumerate_permutations(0))) == 1
        assert len(list(enumerate_permutations(5))) == 120

    def test_partitions_counts_and_distinct(self):
        for n in range(7):
            parts = list(enumerate_partitions(n))
            assert len(parts) == bell_by_triangle(n)
            assert len(set(parts)) == len(parts)
            for sigma in parts:
                SetPartition(sigma.blocks)  # re-validates the invariants
                assert sigma.n == n

    def test_partitions_canonical_lexicographic(self):
        for n in range(9):
            keys = [p.blocks for p in enumerate_partitions(n)]
            assert keys == sorted(keys), n

    def test_partitions_stream_one_at_a_time(self):
        # The first of Bell(11) = 678,570 partitions comes before any other
        # is built: all of them at once take hundreds of megabytes.
        tracemalloc.start()
        try:
            first = next(enumerate_partitions(11))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first.blocks == tuple((i,) for i in range(1, 12))
        assert first.n == 11
        assert peak < 1 << 20

    def test_partitions_small(self):
        assert list(enumerate_partitions(1)) == [SetPartition(((1,),))]
        assert len(list(enumerate_partitions(3))) == 5


class TestBruteForce:
    def test_contains_examples(self):
        assert brute_partition_contains(
            SetPartition(((1, 3), (2, 4))), SetPartition(((1, 2),))
        )
        sigma = SetPartition(((1, 4), (2, 6), (3, 5)))
        assert brute_partition_contains(sigma, sigma)
        assert not brute_partition_contains(
            SetPartition(((1,), (2,))), SetPartition(((1, 2),))
        )

    def test_count_examples(self):
        assert brute_partition_count(
            SetPartition(((1, 3), (2, 4))), SetPartition(((1, 2),))
        ) == 2
        sigma = SetPartition(((1, 4), (2, 6), (3, 5)))
        assert brute_partition_count(sigma, sigma) == 1


class TestVerifyReduction:
    def test_trivial_bounds(self):
        report = verify_reduction(1, 1)
        assert report.ok and report.pairs_checked == 1

    def test_pattern_longer_than_text(self):
        report = verify_reduction(2, 3)
        assert report.ok and report.pairs_checked == 3 * 9

    def test_small_run_passes(self):
        report = verify_reduction(4, 3)
        assert report.ok
        assert report.pairs_checked == (1 + 2 + 6 + 24) * (1 + 2 + 6)
        assert report.elapsed > 0

    def test_refuses_runaway(self):
        with pytest.raises(BoundExceeded, match="force"):
            verify_reduction(7, 4)
        with pytest.raises(BoundExceeded):
            verify_reduction(4, 7)

    def test_parallel_run_is_deterministic(self):
        serial = verify_reduction(4, 3, jobs=1)
        parallel = verify_reduction(4, 3, jobs=3)
        assert serial.pairs_checked == parallel.pairs_checked
        assert serial.mismatches == parallel.mismatches


class TestVerifyRgfCoincidence:
    def test_trivial_bounds(self):
        report = verify_rgf_coincidence(1, 1)
        assert report.ok and report.pairs_checked == 1

    def test_small_run_passes(self):
        report = verify_rgf_coincidence(4, 3)
        assert report.ok

    def test_refuses_runaway(self):
        with pytest.raises(BoundExceeded):
            verify_rgf_coincidence(7, 3)


class TestCensus:
    def test_partition_notion_examples(self):
        row = census(4, SetPartition(((1, 2),)))
        assert (row.avoiders, row.containers) == (1, 14)
        row = census(4, SetPartition(((1,), (2,))))
        assert row.avoiders == 1
        row = census(3, SetPartition(((1,),)))
        assert row.avoiders == 0

    def test_word_notion(self):
        # only 1,2,3,4 has no repeated letter
        row = census(4, RGFWord((1, 1)), "rgf")
        assert (row.avoiders, row.containers) == (1, 14)

    def test_totals_match_bell(self):
        for n in range(6):
            row = census(n, SetPartition(((1, 2),)))
            assert row.total == bell_by_triangle(n)
            row = census(n, RGFWord((1, 2)), "rgf")
            assert row.total == bell_by_triangle(n)

    def test_refuses_runaway(self):
        with pytest.raises(BoundExceeded, match="force"):
            census(11, SetPartition(((1, 2),)))

    def test_force_overrides(self):
        row = census(4, SetPartition(((1, 2),)), force=True)
        assert row.containers == 14

    def test_parallel_matches_serial(self):
        # n on both sides of the cut depth, below which the chunks hold the
        # census's own avoiders rather than prefixes of them; the serial
        # census walks from the empty prefix, so two cut depths are compared
        cut = oracle._CUT_DEPTH
        for pattern in (SetPartition(((1, 3), (2, 4))), SetPartition(((1, 3), (2,)))):
            for structure, notion in ((pattern, "partition"), (rgf_of(pattern), "rgf")):
                for n in (cut - 1, cut, cut + 1):
                    serial = census(n, structure, notion, jobs=1)
                    for jobs in (2, 3):
                        assert census(n, structure, notion, jobs=jobs) == serial, (structure, n)

    def test_rejects_mismatched_pattern_type(self):
        with pytest.raises(ValueError):
            census(3, RGFWord((1, 1)), "partition")
        with pytest.raises(ValueError):
            census(3, SetPartition(((1, 2),)), "rgf")
        with pytest.raises(ValueError):
            census(3, SetPartition(((1, 2),)), "words")

    def test_matches_per_structure_dispatch(self):
        # every pattern of size <= 4 over n = 0..7, both notions, against
        # avoiders counted one SetPartition at a time
        for k in range(5):
            for pattern in partitions_of(k):
                word = rgf_of(pattern)
                for n in range(8):
                    texts = partitions_of(n)
                    hits = sum(dispatch_contains(sigma, pattern).contains for sigma in texts)
                    row = census(n, pattern)
                    assert (row.avoiders, row.containers) == (len(texts) - hits, hits)
                    hits = sum(rgf_contains(rgf_of(sigma), word).contains for sigma in texts)
                    row = census(n, word, "rgf")
                    assert (row.avoiders, row.containers) == (len(texts) - hits, hits)

    def test_builds_no_structure_per_text(self, monkeypatch):
        built = []
        real_init = SetPartition.__init__
        real_from_canonical = SetPartition._from_canonical.__func__
        real_rgf_init = RGFWord.__init__

        def init(self, *args):
            built.append(self)
            real_init(self, *args)

        def from_canonical(cls, *args):
            built.append(args)
            return real_from_canonical(cls, *args)

        def rgf_init(self, *args):
            built.append(self)
            real_rgf_init(self, *args)

        pattern, word = SetPartition(((1, 3), (2, 4))), RGFWord((1, 2, 1, 2))
        monkeypatch.setattr(SetPartition, "__init__", init)
        monkeypatch.setattr(SetPartition, "_from_canonical", classmethod(from_canonical))
        monkeypatch.setattr(RGFWord, "__init__", rgf_init)
        assert census(7, pattern).avoiders == 429
        assert census(7, word, "rgf").avoiders == 429
        assert built == []

    def test_empty_ground_set(self):
        for pattern in (SetPartition(()), SetPartition(((1,),)), SetPartition(((1, 2),))):
            row = census(0, pattern)
            assert row.total == 1 and row.containers == (pattern.n == 0)
            row = census(0, rgf_of(pattern), "rgf")
            assert row.total == 1 and row.containers == (pattern.n == 0)

    def test_matches_an_independent_scan(self, compiled, monkeypatch):
        # every pattern of size <= 4 at n = 8 and 9, both notions, against
        # a scan of all Bell(n) words that asks the compiled kernel of each
        monkeypatch.setattr(_backend, "kernels", compiled)
        for n in (8, 9):
            texts = [word.letters for word in rgf_words_of(n)]
            for k in range(5):
                for pattern in partitions_of(k):
                    word = rgf_of(pattern)
                    for structure, notion, find in (
                        (pattern, "partition", compiled.part_find),
                        (word, "rgf", compiled.rgf_find),
                    ):
                        hits = sum(find(text, pattern.word) is not None for text in texts)
                        expected = (len(texts) - hits, hits)
                        row = census(n, structure, notion)
                        assert (row.avoiders, row.containers) == expected, (structure, n)

    def test_sagan_anchors(self):
        # n <= 9 on the suite's backend; n = 10 to 12 run on the compiled
        # kernels in test_kernels.py
        for pattern, notion, avoiders in SAGAN_ANCHORS:
            for n in range(10):
                assert census(n, pattern, notion).avoiders == avoiders[n], (pattern, n)

    def test_one_job_census_is_one_walk(self, monkeypatch):
        # The trivial cut test of the empty prefix, then one walk below it:
        # census finds its walk on permpart._backend.kernels at call time.
        calls = []
        kernels = _backend.kernels

        def counted(walk):
            def call(*args):
                calls.append(args)
                return walk(*args)

            return call

        monkeypatch.setattr(
            _backend,
            "kernels",
            SimpleNamespace(
                part_avoiders=counted(kernels.part_avoiders),
                rgf_avoiders=counted(kernels.rgf_avoiders),
            ),
        )
        for pattern, notion, avoiders in SAGAN_ANCHORS:
            calls.clear()
            assert census(8, pattern, notion).avoiders == avoiders[8], pattern
            assert len(calls) == 2, pattern


def _per_pair_reports(max_n, max_k):
    """Both gates' mismatch lists, recomputed one pair at a time with the
    per-pair brute-force references and whatever engines the oracle module
    currently calls."""
    reduction, words = [], []
    for n in range(1, max_n + 1):
        for perm in perms_of(n):
            text = reduce_perm(perm)
            for k in range(1, max_k + 1):
                for tau in perms_of(k):
                    pattern = reduce_perm(tau)
                    args = (perm.values, tau.values)
                    engine = oracle.perm_contains(perm, tau).contains
                    reference = brute_partition_contains(text, pattern)
                    if engine != reference:
                        reduction.append(Mismatch("containment", *args, engine, reference))
                    if n <= 5 and k <= 3:
                        witnesses = brute_partition_count(text, pattern)
                        occurrences = oracle.perm_count(perm, tau)
                        if occurrences != witnesses:
                            reduction.append(
                                Mismatch("parsimony", *args, occurrences, witnesses)
                            )
                        engine = oracle.partition_count(text, pattern)
                        if engine != witnesses:
                            reduction.append(
                                Mismatch("count-agreement", *args, engine, witnesses)
                            )
                    answer = oracle._word_contains(text.word, pattern.word)
                    if answer != reference:
                        words.append(Mismatch("rgf-coincidence", *args, answer, reference))
    return oracle._sorted_mismatches(reduction), oracle._sorted_mismatches(words)


class TestRestrictionTally:
    def test_reports_match_per_pair_references(self, monkeypatch):
        # break every engine the gates call on some pairs, so that the
        # reports have mismatches of every kind to agree on
        real = {
            name: getattr(oracle, name)
            for name in ("perm_contains", "perm_count", "partition_count", "_word_contains")
        }

        def perm_contains(text, tau):
            result = real["perm_contains"](text, tau)
            return MatchResult(not result.contains) if sum(text.values) % 3 == 0 else result

        def perm_count(text, tau):
            return real["perm_count"](text, tau) + (text.values[0] == 2)

        def partition_count(text, pattern):
            return real["partition_count"](text, pattern) * (1 + text.n % 3)

        def _word_contains(text, pattern):
            if text[-1] == 1:
                return len(pattern) == 6
            return real["_word_contains"](text, pattern)

        for fake in (perm_contains, perm_count, partition_count, _word_contains):
            monkeypatch.setattr(oracle, fake.__name__, fake)
        reduction, words = _per_pair_reports(4, 3)
        assert {m.check for m in reduction} == {"containment", "parsimony", "count-agreement"}
        assert words
        report = verify_reduction(4, 3)
        assert report.pairs_checked == 33 * 9 and report.mismatches == reduction
        report = verify_rgf_coincidence(4, 3)
        assert report.pairs_checked == 33 * 9 and report.mismatches == words

    @pytest.mark.parametrize(
        "gate, restrictions",
        [(verify_reduction, 3249), (verify_rgf_coincidence, 3253)],
        ids=["reduction", "rgf"],
    )
    def test_restrictions_made_once_per_subset(self, monkeypatch, gate, restrictions):
        words = []
        real_restrictions = oracle._restrictions

        def counted(word, k, relabel):
            for restriction in real_restrictions(word, k, relabel):
                words.append(restriction)
                yield restriction

        monkeypatch.setattr(oracle, "_restrictions", counted)
        assert gate(4, 4).ok
        # texts of [2n], n = 1..4, each restricted to its subsets of sizes
        # 2, 4, 6, 8: 1 * 1 + 2 * 7 + 6 * 31 + 24 * 127 = 3249; the rgf
        # gate's separation pair adds 4, its scan of the 3-subsets of [4]
        # stopping at the last, its one witness
        assert len(words) == restrictions


def _assert_scan_restricts(relabel, max_n):
    """The scan's words, under the given relabelling and read back as
    partitions, are core.restrict's restrictions to the same subsets in the
    same order, for every partition of [n], n <= max_n, and every subset
    size; returns the subsets seen."""
    seen = 0
    for n in range(max_n + 1):
        for sigma in partitions_of(n):
            for k in range(n + 1):
                scanned = [
                    partition_of_rgf(RGFWord(w))
                    for w in oracle._restrictions(sigma.word, k, relabel)
                ]
                expected = [restrict(sigma, T) for T in combinations(range(1, n + 1), k)]
                assert scanned == expected, (sigma, k)
                seen += len(expected)
    return seen


def test_word_scan_matches_block_restriction():
    assert _assert_scan_restricts(oracle._relabel, 7) == 127203


def test_word_scan_through_a_shared_memo_matches_block_restriction():
    # One memo serves every partition up to [7], as a gate chunk's serves
    # all its texts: a letter tuple met again must relabel as before.
    assert _assert_scan_restricts(oracle._Relabelled().__getitem__, 7) == 127203


def test_relabel_memo_starts_afresh_at_its_cap(monkeypatch):
    # A forced run meets more letter tuples than the memo may hold: it
    # clears at the cap, so its size stays bounded, and relabels as before.
    monkeypatch.setattr(oracle, "_RELABEL_MEMO_CAP", 64)
    memo = oracle._Relabelled()
    sizes = []

    def relabel(letters):
        word = memo[letters]
        sizes.append(len(memo))
        return word

    assert _assert_scan_restricts(relabel, 6) == 14947
    assert max(sizes) == 64 and sizes.count(1) > 1


def test_relabel_is_first_appearance_numbering():
    # every letter tuple of length <= 8 over the letters 1..5
    seen = 0
    for length in range(9):
        for letters in product(range(1, 6), repeat=length):
            assert oracle._relabel(letters) == flatten(letters), letters
            seen += 1
    assert seen == sum(5**length for length in range(9)) == 488_281


def test_memo_relabels_every_scan_as_relabel_does():
    # one memo across every partition of [7], as one gate chunk's serves
    # all its texts
    memo = oracle._Relabelled().__getitem__
    for sigma in partitions_of(7):
        for k in range(8):
            assert list(oracle._restrictions(sigma.word, k, memo)) == list(
                oracle._restrictions(sigma.word, k, oracle._relabel)
            ), (sigma, k)


def test_value_rank_relabelling_is_caught():
    # Numbering the letters at T by value rank numbers the blocks by their
    # minima in the text, not in T: at 1,2,1 restricted to {2, 3} it gives
    # 2,1, which is no block-index word.
    with pytest.raises(ValueError, match="restricted growth"):
        _assert_scan_restricts(value_standardize, 3)


@pytest.mark.parametrize(
    "gate, calls",
    [(verify_reduction, 398), (verify_rgf_coincidence, 402)],
    ids=["reduction", "rgf"],
)
def test_relabel_memo_lives_for_one_call(monkeypatch, gate, calls):
    # A memo kept across calls would make the second call relabel nothing.
    # At (4, 4) the texts' 3,249 subsets hold 398 distinct letter tuples;
    # the rgf gate's separation pair relabels its 4 subsets unmemoized.
    made = []
    real = oracle._relabel

    def counted(letters):
        made.append(letters)
        return real(letters)

    monkeypatch.setattr(oracle, "_relabel", counted)
    for _ in range(2):
        made.clear()
        assert gate(4, 4).ok
        assert len(made) == calls


@pytest.mark.parametrize(
    "gate", [verify_reduction, verify_rgf_coincidence], ids=["reduction", "rgf"]
)
def test_gates_pass_on_the_compiled_kernels(compiled, monkeypatch, gate):
    monkeypatch.setattr(matchers, "_K", compiled)
    report = gate(4, 4)
    assert report.ok and report.pairs_checked == 33 * 33 == 1089


def _faulty(table):
    """The kernel table with wrong answers on some pairs: a permutation
    find of a 2-pattern in a text whose values sum to a multiple of 3
    flips, permutation counts in texts starting with 2 and partition counts
    in texts of [8] ending in 1 gain one, and a word find of a 6-letter
    pattern in a text ending in 1 flips."""

    def perm_find(text, pattern):
        hit = table.perm_find(text, pattern)
        if len(pattern) == 2 and sum(text) % 3 == 0:
            return None if hit else (1, 2)
        return hit

    def perm_count(text, pattern, cancel=None):
        return table.perm_count(text, pattern, cancel) + (text[0] == 2)

    def part_count(text, pattern, cancel=None):
        return table.part_count(text, pattern, cancel) + (len(text) == 8 and text[-1] == 1)

    def rgf_find(text, pattern):
        hit = table.rgf_find(text, pattern)
        if len(pattern) == 6 and text[-1] == 1:
            return None if hit else tuple(range(1, 7))
        return hit

    names = ("perm_find", "perm_count", "part_find", "part_count", "rgf_find", "rgf_count")
    faults = {
        "perm_find": perm_find,
        "perm_count": perm_count,
        "part_count": part_count,
        "rgf_find": rgf_find,
    }
    return SimpleNamespace(**{name: faults.get(name, getattr(table, name)) for name in names})


def _gate_reports(bounds):
    reports = [verify_reduction(*bounds), verify_rgf_coincidence(*bounds)]
    return [(report.pairs_checked, report.mismatches) for report in reports]


@pytest.mark.parametrize("bounds", [(4, 4), (5, 3), ()], ids=["4-4", "5-3", "defaults"])
def test_gates_agree_across_backends(compiled, monkeypatch, bounds):
    reports = []
    for table in (compiled, _kernels_py):
        monkeypatch.setattr(matchers, "_K", table)
        reports.append(_gate_reports(bounds))
    assert reports[0] == reports[1]
    assert [mismatches for _, mismatches in reports[0]] == [(), ()]


@pytest.mark.parametrize("bounds", [(4, 4), (5, 3)], ids=["4-4", "5-3"])
def test_faulty_engines_are_reported_alike_on_both_backends(compiled, monkeypatch, bounds):
    # the gates report a failing engine's mismatches exactly as the per-pair
    # references find them, whichever backend the engine runs on
    reports = []
    for table in (compiled, _kernels_py):
        monkeypatch.setattr(matchers, "_K", _faulty(table))
        reduction, words = _gate_reports(bounds)
        assert (reduction[1], words[1]) == _per_pair_reports(*bounds)
        reports.append((reduction, words))
    assert reports[0] == reports[1]
    reduction, words = reports[0]
    assert {m.check for m in reduction[1]} == {"containment", "parsimony", "count-agreement"}
    assert {m.check for m in words[1]} == {"rgf-coincidence"}


def test_broken_separation_pair_is_reported(monkeypatch, capsys):
    # an rgf_contains that wrongly finds the pattern on the separation pair;
    # reduced patterns have even size, so no gate pair reaches the fault
    real = oracle.rgf_contains
    separation = (oracle.SEPARATION_TEXT, oracle.SEPARATION_PATTERN)

    def rgf_contains(text, pattern):
        if (text.letters, pattern.letters) == separation:
            return MatchResult(True)
        return real(text, pattern)

    monkeypatch.setattr(oracle, "rgf_contains", rgf_contains)
    assert verify_rgf_coincidence(2, 2).mismatches == (
        Mismatch("rgf-separation", (1, 2, 2, 1), (1, 1, 2), True, True),
    )
    assert run_command(["verify", "rgf", "--max-n", "2", "--max-k", "2"]) == 3
    assert "MISMATCH check=rgf-separation" in capsys.readouterr().out


def test_verify_json_line_with_a_mismatch(monkeypatch, capsys):
    # a perm_contains that wrongly avoids 1 in 2,1: each mismatch is a record
    # with the keys in Mismatch's field order, bytes pinned
    real = oracle.perm_contains

    def perm_contains(text, pattern):
        if (text.values, pattern.values) == ((2, 1), (1,)):
            return MatchResult(False)
        return real(text, pattern)

    monkeypatch.setattr(oracle, "perm_contains", perm_contains)
    argv = ["verify", "reduction", "--max-n", "2", "--max-k", "1", "--format", "json"]
    assert run_command(argv) == 3
    assert capsys.readouterr().out == (
        '{"command":"verify","gate":"reduction","max_n":2,"max_k":1,"pairs_checked":3,'
        '"mismatches":[{"check":"containment","text":[2,1],"pattern":[1],'
        '"engine":false,"oracle":true}]}\n'
    )


def test_parallel_reports_and_rows_match_serial():
    for gate in (verify_reduction, verify_rgf_coincidence):
        serial, parallel = gate(4, 3, jobs=1), gate(4, 3, jobs=2)
        assert (serial.pairs_checked, serial.mismatches) == (
            parallel.pairs_checked,
            parallel.mismatches,
        )
    for pattern in (SetPartition(((1, 3), (2, 4))), RGFWord((1, 2, 1, 2))):
        notion = "rgf" if isinstance(pattern, RGFWord) else "partition"
        assert census(6, pattern, notion, jobs=2) == census(6, pattern, notion, jobs=1)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every pool the oracle opens, recorded by an
    in-process stand-in that runs the chunks here instead of forking."""
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, worker, payloads):
            return map(worker, payloads)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def test_pool_starts_one_worker_per_chunk(monkeypatch, pool_sizes):
    # Under the fork start method a pool starts every worker it may have at
    # the first task, so the pool must not outnumber the chunks.
    _cpus(monkeypatch, 64)
    pattern = SetPartition(((1,), (2,), (3,)))
    # The cut level of a census of [5] holds the 8 words of [4] that avoid
    # 1/2/3, 8 chunks of one; for 1/2 it holds 1,1,1,1 alone, one chunk
    # that runs here.
    depth = oracle._CUT_DEPTH
    walk = _backend.kernels.part_avoiders
    prefixes = [p.word for p in enumerate_partitions(depth) if walk(p.word, pattern.word, depth)]
    assert len(prefixes) == 8
    assert census(5, pattern, jobs=8) == census(5, pattern, jobs=1)
    two = SetPartition(((1,), (2,)))
    assert census(5, two, jobs=8) == census(5, two, jobs=1)
    # The 3 permutation texts of size 1..2 make 3 chunks of one.
    serial, parallel = verify_reduction(2, 2, jobs=1), verify_reduction(2, 2, jobs=5)
    assert (parallel.pairs_checked, parallel.mismatches) == (
        serial.pairs_checked,
        serial.mismatches,
    )
    assert pool_sizes == [8, 3]


def test_pool_is_capped_at_the_usable_cpus(monkeypatch, pool_sizes):
    # --jobs far above the CPUs still cuts one chunk per job, but a larger
    # pool than the CPUs only forks idle processes.
    _cpus(monkeypatch, 2)
    pattern = SetPartition(((1, 3), (2, 4)))
    assert census(6, pattern, jobs=500) == census(6, pattern, jobs=1)
    assert verify_reduction(2, 2, jobs=500).ok
    # without sched_getaffinity, the CPU count
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert census(6, pattern, jobs=500) == census(6, pattern, jobs=1)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert census(6, pattern, jobs=500) == census(6, pattern, jobs=1)
    assert pool_sizes == [2, 2, 3, 1]


def test_mismatch_free_reports_survive_permutation_identity():
    # identity pairs must always verify: quick guard that the harness wiring
    # reports pairs faithfully
    report = verify_reduction(3, 3)
    assert report.pairs_checked == 81
    assert report.mismatches == ()


class TestIntegerArguments:
    """The entry points read n, max_n, max_k and jobs through
    operator.index, as the constructors read values."""

    def test_a_bool_becomes_its_int(self):
        row = census(True, SetPartition(((1,),)))
        assert type(row.n) is int and json.dumps(row.n) == "1"
        assert row == census(1, SetPartition(((1,),)))
        report = verify_rgf_coincidence(True, True)
        assert (report.max_n, report.max_k) == (1, 1)
        assert type(report.max_n) is int and type(report.max_k) is int
        report = verify_reduction(True, False)
        assert (type(report.max_n), type(report.max_k)) == (int, int)

    def test_an_index_type_is_accepted(self):
        pattern = SetPartition(((1, 3), (2, 4)))
        row = census(Index(6), pattern, jobs=Index(1))
        assert row == census(6, pattern) and type(row.n) is int
        report = verify_reduction(Index(3), Index(2), jobs=Index(1))
        assert (report.max_n, report.max_k, report.pairs_checked) == (3, 2, 27)
        report = verify_rgf_coincidence(Index(2), Index(2))
        assert (report.max_n, report.max_k) == (2, 2)
        assert list(enumerate_partitions(Index(4))) == list(partitions_of(4))
        assert list(enumerate_permutations(Index(3))) == list(perms_of(3))

    def test_float_jobs_are_refused_before_any_walk_or_pool(self, monkeypatch, pool_sizes):
        def walk(*args):
            raise AssertionError(f"walked {args} before reading jobs")

        monkeypatch.setattr(
            _backend, "kernels", SimpleNamespace(part_avoiders=walk, rgf_avoiders=walk)
        )
        # a cut of many prefixes: jobs is read before any of its walks
        with pytest.raises(TypeError):
            census(8, SetPartition(((1, 3), (2, 4))), jobs=2.5)
        assert pool_sizes == []

    def test_jobs_below_one_are_refused_before_any_walk_or_pool(self, monkeypatch):
        def walk(*args):
            raise AssertionError(f"walked {args} before reading jobs")

        def chunks(*args):
            raise AssertionError("ran a gate's chunks before reading jobs")

        monkeypatch.setattr(
            _backend, "kernels", SimpleNamespace(part_avoiders=walk, rgf_avoiders=walk)
        )
        monkeypatch.setattr(oracle, "_map_chunks", chunks)
        # as the CLI refuses --jobs 0; False reads as 0
        for jobs in (0, -3, False, Index(0)):
            with pytest.raises(ValueError, match="jobs must be at least 1"):
                census(5, SetPartition(((1, 3), (2, 4))), jobs=jobs)
            for gate in (verify_reduction, verify_rgf_coincidence):
                with pytest.raises(ValueError, match="jobs must be at least 1"):
                    gate(2, 2, jobs=jobs)

    def test_float_jobs_are_refused_with_a_one_prefix_cut(self):
        # 1,1,1,1 alone avoids 1/2 at the cut, so no pool would read jobs
        with pytest.raises(TypeError):
            census(5, SetPartition(((1,), (2,))), jobs=2.5)

    def test_float_bounds_are_refused(self, pool_sizes):
        with pytest.raises(TypeError):
            census(5.0, SetPartition(((1,), (2,))))
        for gate in (verify_reduction, verify_rgf_coincidence):
            for args, jobs in (((2.0, 2), 1), ((2, 2.0), 1), ((2, 2), 2.5)):
                with pytest.raises(TypeError):
                    gate(*args, jobs=jobs)
        for enumerator in (enumerate_partitions, enumerate_permutations):
            with pytest.raises(TypeError):
                next(enumerator(3.0))
        assert pool_sizes == []


def test_cut_rows_match_one_walk_for_every_small_pattern(monkeypatch, pool_sizes):
    # jobs = 2 against jobs = 1 for the 23 partition patterns and 23 word
    # patterns of size 1 to 4, at n = 0 to 7: below the cut depth the cut
    # holds the census's own avoiders.  The pools run here.
    _cpus(monkeypatch, 4)
    for k in range(1, 5):
        for pattern in partitions_of(k):
            for structure, notion in ((pattern, "partition"), (rgf_of(pattern), "rgf")):
                for n in range(8):
                    serial = census(n, structure, notion, jobs=1)
                    assert census(n, structure, notion, jobs=2) == serial, (structure, n)
    assert pool_sizes and set(pool_sizes) <= {2}


@pytest.mark.parametrize("backend, max_n", [("compiled", 10), ("pure-python", 7)])
def test_reversal_keeps_partition_census_rows(request, monkeypatch, backend, max_n):
    # Reversing the ground set carries the avoiders of a pattern onto the
    # avoiders of its reversal, past the scale of any brute-force scan.
    if backend == "compiled":
        monkeypatch.setattr(_backend, "kernels", request.getfixturevalue("compiled"))
    else:
        monkeypatch.setattr(_backend, "kernels", _kernels_py)
    for k in range(1, 5):
        for pattern in partitions_of(k):
            flipped = reversed_partition(pattern)
            for n in range(max_n + 1):
                row, twin = census(n, pattern), census(n, flipped)
                assert (row.avoiders, row.containers) == (twin.avoiders, twin.containers), n

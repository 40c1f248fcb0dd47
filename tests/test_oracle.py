from itertools import combinations

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
from permpart import oracle
from permpart.cli import run_command
from helpers import (
    SAGAN_ANCHORS,
    bell_by_triangle,
    partitions_of,
    perms_of,
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
        parts = list(enumerate_partitions(4))
        keys = [p.blocks for p in parts]
        assert keys == sorted(keys)

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
        pattern = SetPartition(((1, 3), (2,)))
        assert census(5, pattern, jobs=3) == census(5, pattern, jobs=1)

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
        real_post_init = SetPartition.__post_init__
        real_from_canonical = SetPartition._from_canonical.__func__
        real_rgf_post_init = RGFWord.__post_init__

        def post_init(self):
            built.append(self)
            real_post_init(self)

        def from_canonical(cls, *args):
            built.append(args)
            return real_from_canonical(cls, *args)

        def rgf_post_init(self):
            built.append(self)
            real_rgf_post_init(self)

        pattern, word = SetPartition(((1, 3), (2, 4))), RGFWord((1, 2, 1, 2))
        monkeypatch.setattr(SetPartition, "__post_init__", post_init)
        monkeypatch.setattr(SetPartition, "_from_canonical", classmethod(from_canonical))
        monkeypatch.setattr(RGFWord, "__post_init__", rgf_post_init)
        monkeypatch.setattr(oracle, "partition_of_rgf", lambda w: built.append(w))
        assert census(7, pattern).avoiders == 429
        assert census(7, word, "rgf").avoiders == 429
        assert built == []

    def test_empty_ground_set(self):
        for pattern in (SetPartition(()), SetPartition(((1,),)), SetPartition(((1, 2),))):
            row = census(0, pattern)
            assert row.total == 1 and row.containers == (pattern.n == 0)
            row = census(0, rgf_of(pattern), "rgf")
            assert row.total == 1 and row.containers == (pattern.n == 0)

    def test_sagan_anchors(self):
        # n <= 9 on the suite's backend; n = 10 runs on the compiled kernels
        # in test_kernels.py
        for pattern, notion, avoiders in SAGAN_ANCHORS:
            for n in range(10):
                assert census(n, pattern, notion).avoiders == avoiders[n], (pattern, n)


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
                    answer = oracle.rgf_contains(rgf_of(text), rgf_of(pattern)).contains
                    if answer != reference:
                        words.append(Mismatch("rgf-coincidence", *args, answer, reference))
    return oracle._sorted_mismatches(reduction), oracle._sorted_mismatches(words)


class TestRestrictionTally:
    def test_reports_match_per_pair_references(self, monkeypatch):
        # break every engine the gates call on some pairs, so that the
        # reports have mismatches of every kind to agree on
        real = {
            name: getattr(oracle, name)
            for name in ("perm_contains", "perm_count", "partition_count", "rgf_contains")
        }

        def perm_contains(text, tau):
            result = real["perm_contains"](text, tau)
            return MatchResult(not result.contains) if sum(text.values) % 3 == 0 else result

        def perm_count(text, tau):
            return real["perm_count"](text, tau) + (text.values[0] == 2)

        def partition_count(text, pattern):
            return real["partition_count"](text, pattern) * (1 + text.n % 3)

        def rgf_contains(text, pattern):
            if text.letters[-1] == 1:
                return MatchResult(len(pattern) == 6)
            return real["rgf_contains"](text, pattern)

        for fake in (perm_contains, perm_count, partition_count, rgf_contains):
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

        def counted(word, k):
            for restriction in real_restrictions(word, k):
                words.append(restriction)
                yield restriction

        monkeypatch.setattr(oracle, "_restrictions", counted)
        assert gate(4, 4).ok
        # texts of [2n], n = 1..4, each restricted to its subsets of sizes
        # 2, 4, 6, 8: 1 * 1 + 2 * 7 + 6 * 31 + 24 * 127 = 3249; the rgf
        # gate's separation pair adds 4, its scan of the 3-subsets of [4]
        # stopping at the last, its one witness
        assert len(words) == restrictions


def _assert_scan_restricts(restrictions, max_n):
    """The scan's words, read back as partitions, are core.restrict's
    restrictions to the same subsets in the same order, for every partition
    of [n], n <= max_n, and every subset size; returns the subsets seen."""
    seen = 0
    for n in range(max_n + 1):
        for sigma in partitions_of(n):
            for k in range(n + 1):
                scanned = [
                    partition_of_rgf(RGFWord(w)) for w in restrictions(sigma.word, k)
                ]
                expected = [restrict(sigma, T) for T in combinations(range(1, n + 1), k)]
                assert scanned == expected, (sigma, k)
                seen += len(expected)
    return seen


def test_word_scan_matches_block_restriction():
    assert _assert_scan_restricts(oracle._restrictions, 7) == 127203


def test_value_rank_relabelling_is_caught():
    # Numbering the letters at T by value rank numbers the blocks by their
    # minima in the text, not in T: at 1,2,1 restricted to {2, 3} it gives
    # 2,1, which is no block-index word.
    def by_value_rank(word, k):
        for letters in combinations(word, k):
            yield value_standardize(letters)

    with pytest.raises(ValueError, match="restricted growth"):
        _assert_scan_restricts(by_value_rank, 3)


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


def test_pool_starts_one_worker_per_chunk(monkeypatch):
    # Under the fork start method a pool starts every worker it may have at
    # the first task, so the pool must not outnumber the chunks.  An
    # in-process stand-in records the size instead of forking.
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
    pattern = SetPartition(((1,), (2,)))
    # The 5 words of [3] make 5 chunks of one.
    assert census(3, pattern, jobs=8) == census(3, pattern, jobs=1)
    # The 3 permutation texts of size 1..2 make 3 chunks of one.
    serial, parallel = verify_reduction(2, 2, jobs=1), verify_reduction(2, 2, jobs=5)
    assert (parallel.pairs_checked, parallel.mismatches) == (
        serial.pairs_checked,
        serial.mismatches,
    )
    assert sizes == [5, 3]


def test_mismatch_free_reports_survive_permutation_identity():
    # identity pairs must always verify: quick guard that the harness wiring
    # reports pairs faithfully
    report = verify_reduction(3, 3)
    assert report.pairs_checked == 81
    assert report.mismatches == ()

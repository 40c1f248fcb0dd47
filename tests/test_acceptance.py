"""Acceptance suite: the exit criteria of the build, one test per criterion.

Each test prints a PASS/FAIL line (run with ``pytest -s`` to see them all),
then asserts.  Everything is exact: zero mismatches, exact counts, byte
identical CLI output.
"""

import json

from permpart import (
    MatchResult,
    Permutation,
    RGFWord,
    SetPartition,
    bell_number,
    brute_partition_contains,
    brute_partition_count,
    dispatch_contains,
    enumerate_partitions,
    enumerate_permutations,
    partition_count,
    perm_count,
    perm_of_matchstick,
    recover_occurrence,
    reduce_perm,
    rgf_contains,
    transport_occurrence,
    verify_reduction,
    verify_rgf_coincidence,
)
from permpart.cli import format_partition, format_permutation, run_command
from permpart.core import restrict, rgf_of
from helpers import (
    bell_by_triangle,
    partitions_of,
    perm_occurrences,
    perms_of,
    rgf_words_of,
    witnesses_by_restriction,
)


def report(number, ok, detail):
    print(f"acceptance criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_containment_equivalence():
    # every text of size 1..6 against every pattern of size 1..4: the
    # permutation engine must answer exactly as brute-force containment on
    # the reduced partitions
    result = verify_reduction(6, 4)
    ok = result.ok and result.pairs_checked == 873 * 33
    report(
        1,
        ok,
        f"{result.pairs_checked} pairs, {len(result.mismatches)} mismatches, "
        f"{result.elapsed:.1f}s",
    )


def test_criterion_2_count_parsimony():
    # occurrence counts transfer exactly through the reduction
    pairs = 0
    mismatches = []
    for n in range(1, 6):
        for perm in perms_of(n):
            reduced_text = reduce_perm(perm)
            for k in range(1, 4):
                for pattern in perms_of(k):
                    pairs += 1
                    occurrences = perm_count(perm, pattern)
                    witnesses = partition_count(reduced_text, reduce_perm(pattern))
                    if occurrences != witnesses:
                        mismatches.append((perm.values, pattern.values))
    report(2, not mismatches, f"{pairs} pairs, {len(mismatches)} mismatches")


def test_criterion_3_witness_transport_bijection():
    pairs = 0
    failures = 0
    for n in range(1, 6):
        for perm in perms_of(n):
            reduced_text = reduce_perm(perm)
            groups = witnesses_by_restriction(reduced_text, (2, 4, 6))
            for k in range(1, 4):
                for pattern in perms_of(k):
                    pairs += 1
                    reduced_pattern = reduce_perm(pattern)
                    occurrences = perm_occurrences(perm.values, pattern.values)
                    witnesses = groups.get(reduced_pattern.word, [])
                    transported = [
                        transport_occurrence(perm, occ) for occ in occurrences
                    ]
                    recovered = [
                        recover_occurrence(perm, witness) for witness in witnesses
                    ]
                    if sorted(transported) != sorted(witnesses):
                        failures += 1
                        continue
                    if sorted(recovered) != sorted(occurrences):
                        failures += 1
                        continue
                    if any(
                        recover_occurrence(perm, transport_occurrence(perm, occ)) != occ
                        for occ in occurrences
                    ):
                        failures += 1
                        continue
                    if any(
                        restrict(reduced_text, witness) != reduced_pattern
                        for witness in transported
                    ):
                        failures += 1
    report(3, failures == 0, f"{pairs} pairs, {failures} failures")


def test_criterion_4_rgf_coincidence_and_separation():
    result = verify_rgf_coincidence(5, 3)
    separation_holds = (
        not rgf_contains(RGFWord((1, 2, 2, 1)), RGFWord((1, 1, 2))).contains
        and brute_partition_contains(
            SetPartition(((1, 4), (2, 3))), SetPartition(((1, 2), (3,)))
        )
    )
    ok = result.ok and separation_holds
    report(
        4,
        ok,
        f"{result.pairs_checked} reduced pairs coincide, separation pair "
        f"{'separates' if separation_holds else 'DOES NOT separate'}",
    )


def test_criterion_5_fast_paths_match_brute_force():
    def singleton_pattern(k):
        return SetPartition(tuple((i,) for i in range(1, k + 1)))

    def block_pattern(k):
        return SetPartition((tuple(range(1, k + 1)),) if k else ())

    # dispatch_contains, witness included, against one subset scan per text
    checks = 0
    mismatches = 0
    for n in range(9):
        for sigma in enumerate_partitions(n):
            groups = witnesses_by_restriction(sigma, range(n + 1))
            for k in range(n + 2):
                for pattern in (singleton_pattern(k), block_pattern(k)):
                    checks += 1
                    hits = groups.get(pattern.word, [])
                    expected = MatchResult(True, hits[0]) if hits else MatchResult(False)
                    if dispatch_contains(sigma, pattern) != expected:
                        mismatches += 1
    # this run also adjudicates the block-count criterion: "at least k"
    # blocks is the correct reading, and sigma with exactly k blocks of size
    # one contains the size-k all-singleton pattern
    exact = SetPartition(tuple((i,) for i in range(1, 4)))
    assert dispatch_contains(exact, exact).contains
    report(5, mismatches == 0, f"{checks} checks, {mismatches} mismatches")


def test_criterion_6_structural_properties():
    failures = 0
    total = 0
    for n in range(7):
        for perm in enumerate_permutations(n):
            total += 1
            reduced = reduce_perm(perm)
            if reduced.n != 2 * n or len(reduced.blocks) != n:
                failures += 1
                continue
            if any(len(block) != 2 for block in reduced.blocks):
                failures += 1
                continue
            if perm_of_matchstick(reduced) != perm:
                failures += 1
    report(6, failures == 0, f"{total} permutations, {failures} failures")


def test_criterion_7_enumerator_correctness():
    ok = True
    details = []
    factorial = 1
    for n in range(9):
        factorial = factorial * n if n else 1
        perms = list(enumerate_permutations(n))
        if len(perms) != factorial or len(set(perms)) != factorial:
            ok = False
            details.append(f"permutations at n={n}")
        parts = list(enumerate_partitions(n))
        expected = bell_by_triangle(n)  # independent recurrence
        if len(parts) != expected or len(set(parts)) != expected:
            ok = False
            details.append(f"partitions at n={n}")
        if bell_number(n) != expected:
            ok = False
            details.append(f"bell at n={n}")
    report(7, ok, "n <= 8 counts and distinctness" + (f"; bad: {details}" if details else ""))


def test_criterion_8_engine_oracle_agreement():
    pairs = 0
    mismatches = 0
    for n in range(6):
        for text in partitions_of(n):
            for k in range(5):
                for pattern in partitions_of(k):
                    pairs += 1
                    from permpart import partition_contains

                    if partition_contains(text, pattern).contains != (
                        brute_partition_contains(text, pattern)
                    ):
                        mismatches += 1
                    if partition_count(text, pattern) != brute_partition_count(
                        text, pattern
                    ):
                        mismatches += 1
    report(8, mismatches == 0, f"{pairs} pairs, {mismatches} mismatches")


def test_criterion_9_cli_goldens_and_roundtrips(capsys):
    goldens = [
        (
            ["contains", "--kind", "partition", "1,3/2,4", "1,2", "--witness", "--format", "json"],
            0,
            '{"command":"contains","contains":true,"witness":[1,3]}\n',
        ),
        (["reduce", "2,3,1"], 0, "1,5/2,6/3,4\n"),
        (["contains", "--kind", "perm", "1,2,3", "2,1"], 1, "false\n"),
    ]
    golden_ok = True
    for argv, want_code, want_out in goldens:
        code = run_command(argv)
        out = capsys.readouterr().out
        if (code, out) != (want_code, want_out):
            golden_ok = False

    from permpart.cli import parse_partition, parse_permutation, parse_rgf, format_rgf

    roundtrip_ok = True
    for n in range(7):
        for perm in perms_of(n):
            if parse_permutation(format_permutation(perm)) != perm:
                roundtrip_ok = False
        for sigma in partitions_of(n):
            if parse_partition(format_partition(sigma)) != sigma:
                roundtrip_ok = False
        for word in rgf_words_of(n):
            if parse_rgf(format_rgf(word)) != word:
                roundtrip_ok = False

    report(
        9,
        golden_ok and roundtrip_ok,
        f"goldens {'byte-identical' if golden_ok else 'WRONG'}, "
        f"round-trips {'pass' if roundtrip_ok else 'FAIL'} for n <= 6",
    )

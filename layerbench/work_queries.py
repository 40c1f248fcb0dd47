"""queries: single public-API calls on the pure-Python backend.

Each operation builds its structures from plain tuples and makes one call,
as a library user would: constructors, rgf_of and dispatch share the time
with cheap kernel calls.  Sizes come from fixed grids (texts of 8-40
elements, patterns of 2-6), so every seed has the same make-up; the seed
picks the contents.
"""

from __future__ import annotations

import math
import random

import gen
from reference import (
    blocks_of,
    brute_count,
    brute_least,
    matchstick,
    part_occurs_at,
    seq_occurs_at,
    standardize,
)
from harness import Op, Plan, expect_backend

BACKEND = "pure-python"
TAIL_PCT = 99.0
BRUTE_LIMIT = 5000  # subsets; negatives and least witnesses are brute-forced below it

TEXT_SIZES = (8, 12, 16, 20, 24, 28, 32, 36, 40)
PATTERN_SIZES = (2, 3, 4, 5, 6)
# Negatives that only an exhaustive search can answer get smaller texts:
# the search workload covers the hard ones.
NEGATIVE_TEXT_MAX = 14
REDUCED_SIZES = (4, 6, 8, 10, 12, 14, 16, 18, 20)  # permutations; reduced texts are 8-40
REDUCED_NEGATIVE_MAX = 8
COUNT_SIZES = (6, 8, 10, 12)


def _match_check(kind, text, pattern, expect: bool, bound=None):
    """Check a MatchResult: the answer, the witness by the benchmark's own
    predicate, and (when given) that the witness is no later than a known
    occurrence, since the program returns the least one."""
    occurs = part_occurs_at if kind == "partition" else seq_occurs_at

    def check(result):
        if result.contains != expect:
            return f"contains={result.contains}, expected {expect}"
        if not expect:
            return None if result.witness is None else "witness on a negative answer"
        if not occurs(text, pattern, result.witness):
            return f"witness {result.witness} is not an occurrence"
        if bound is not None and tuple(result.witness) > tuple(bound):
            return f"witness {result.witness} is later than occurrence {bound}"
        return None

    return check


def setup(seed: int, quick: bool) -> Plan:
    import permpart as pp

    expect_backend("pure-python")
    rng = random.Random(f"queries:{seed}")
    reps = 1 if quick else 5
    text_sizes = TEXT_SIZES[:3] if quick else TEXT_SIZES
    ops: list[Op] = []
    confirm: list[tuple] = []  # (label, kind, text, pattern, op), brute-forced after the loop

    def add(label, fn, kind, text, pattern, expect, bound=None):
        ops.append(Op(label, fn, _match_check(kind, text, pattern, expect, bound)))
        n = sum(map(len, text)) if kind == "partition" else len(text)
        k = sum(map(len, pattern)) if kind == "partition" else len(pattern)
        if math.comb(n, k) <= BRUTE_LIMIT:
            confirm.append((label, kind, text, pattern, ops[-1]))

    for _ in range(reps):
        for n in text_sizes:
            for k in PATTERN_SIZES:
                # perm_contains, positive by a planted occurrence
                t = gen.perm(rng, n)
                where = gen.planted(rng, t, k)
                p = tuple(standardize([t[i - 1] for i in where]))
                add("perm+", lambda t=t, p=p: pp.perm_contains(pp.Permutation(t), pp.Permutation(p)),
                    "perm", t, p, True, where)
                # perm_contains, negative: the text avoids 321, the pattern has it
                if k >= 3:
                    t = gen.avoids_321(rng, min(n, NEGATIVE_TEXT_MAX))
                    p = gen.pattern_with_321(rng, k)
                    add("perm-", lambda t=t, p=p: pp.perm_contains(pp.Permutation(t), pp.Permutation(p)),
                        "perm", t, p, False)
                # dispatch_contains on a general pattern (3 elements at
                # least), planted
                blocks = gen.partition(rng, n, max_blocks=n // 3)
                hit = k >= 3 and gen.planted_partition(rng, blocks, k, gen.general)
                if hit:
                    where, pb = hit
                    add("dispatch+", lambda b=blocks, q=pb: pp.dispatch_contains(pp.SetPartition(b), pp.SetPartition(q)),
                        "partition", blocks, pb, True, where)
                # dispatch_contains on a general pattern with more blocks
                # than the text has
                if k >= 3:
                    few = gen.partition(rng, n, max_blocks=k - 2, fresh=0.5)
                    pb = blocks_of(gen.rgf(rng, k, k, fresh=0.9))
                    while not (len(pb) > len(few) and gen.general(pb)):
                        pb = blocks_of(gen.rgf(rng, k, k, fresh=0.8))
                    add("dispatch-", lambda b=few, q=pb: pp.dispatch_contains(pp.SetPartition(b), pp.SetPartition(q)),
                        "partition", few, pb, False)
                # dispatch_contains on the two fast-path shapes
                blocks = gen.partition(rng, n, max_blocks=max(2, n // 4))
                singles = tuple((i,) for i in range(1, k + 1))
                expect = len(blocks) >= k
                add("fast-singletons", lambda b=blocks, q=singles: pp.dispatch_contains(pp.SetPartition(b), pp.SetPartition(q)),
                    "partition", blocks, singles, expect, tuple(b[0] for b in blocks[:k]) if expect else None)
                one = (tuple(range(1, k + 1)),)
                fits = [b[:k] for b in blocks if len(b) >= k]
                add("fast-block", lambda b=blocks, q=one: pp.dispatch_contains(pp.SetPartition(b), pp.SetPartition(q)),
                    "partition", blocks, one, bool(fits), min(fits) if fits else None)
                # rgf_contains, planted, and negative by one letter too many
                word = gen.rgf(rng, n, max_blocks=n // 3)
                hit = gen.planted_word(rng, word, k)
                if hit:
                    where, pw = hit
                    add("rgf+", lambda w=word, q=pw: pp.rgf_contains(pp.RGFWord(w), pp.RGFWord(q)),
                        "rgf", word, pw, True, where)
                if k >= 3:
                    word = gen.rgf(rng, min(n, NEGATIVE_TEXT_MAX), max_blocks=k - 1, fresh=0.5)
                    pw = tuple(range(1, k + 1))
                    add("rgf-", lambda w=word, q=pw: pp.rgf_contains(pp.RGFWord(w), pp.RGFWord(q)),
                        "rgf", word, pw, False)
        for n in REDUCED_SIZES[: len(text_sizes)]:
            for k in (2, 3):
                # partition_contains on reduce_perm images, then recover_occurrence
                t = gen.perm(rng, n)
                where = gen.planted(rng, t, k)
                p = tuple(standardize([t[i - 1] for i in where]))
                ops.append(Op("reduced+", _reduced_op(pp, t, p), _reduced_check(t, p, True, where)))
                t = gen.avoids_321(rng, min(n, REDUCED_NEGATIVE_MAX))
                p = (3, 2, 1) if k == 3 else gen.pattern_with_321(rng, 4)
                ops.append(Op("reduced-", _reduced_op(pp, t, p), _reduced_check(t, p, False)))
        for n in COUNT_SIZES[: 2 if quick else None]:
            for k in (2, 3, 4):
                t = gen.perm(rng, n)
                p = gen.perm(rng, k)
                ops.append(Op("perm_count", lambda t=t, p=p: pp.perm_count(pp.Permutation(t), pp.Permutation(p)),
                              _equals(brute_count("perm", t, p))))
                blocks = gen.partition(rng, n, max_blocks=4)
                where, pb = gen.planted_partition(rng, blocks, k)
                ops.append(Op("partition_count", lambda b=blocks, q=pb: pp.partition_count(pp.SetPartition(b), pp.SetPartition(q)),
                              _equals(brute_count("partition", blocks, pb))))
                word = gen.rgf(rng, n, max_blocks=4)
                hit = gen.planted_word(rng, word, k) or ((), (1,) * k)
                ops.append(Op("rgf_count", lambda w=word, q=hit[1]: pp.rgf_count(pp.RGFWord(w), pp.RGFWord(q)),
                              _equals(brute_count("rgf", word, hit[1]))))

    # Warm-up: one pass, checked, so a wrong answer stops the run early.
    errors = [f"{op.label}: {msg}" for op in ops if (msg := op.check(op.fn()))]
    if errors:
        raise AssertionError("; ".join(errors[:3]))

    def post_checks() -> list[str]:
        """Brute-force the answers and least witnesses of the small instances."""
        problems = []
        for label, kind, text, pattern, op in confirm:
            least = brute_least(kind, text, pattern)
            got = op.fn()
            if got.witness != least:
                problems.append(f"{label}: witness {got.witness}, brute force says {least}")
        return problems

    return Plan(ops, post_checks)


def _equals(expected):
    return lambda got: None if got == expected else f"got {got}, expected {expected}"


def _reduced_op(pp, t, p):
    def op():
        perm = pp.Permutation(t)
        result = pp.partition_contains(pp.reduce_perm(perm), pp.reduce_perm(pp.Permutation(p)))
        occurrence = pp.recover_occurrence(perm, result.witness) if result.contains else None
        return result, occurrence

    return op


def _reduced_check(t, p, expect, planted_at=None):
    text, pattern = matchstick(t), matchstick(p)
    check_match = _match_check("partition", text, pattern, expect)

    def check(out):
        result, occurrence = out
        problem = check_match(result)
        if problem or not expect:
            return problem
        if not seq_occurs_at(t, p, occurrence):
            return f"recovered {occurrence} is not an occurrence"
        if occurrence > planted_at:
            return f"recovered {occurrence} is later than occurrence {planted_at}"
        return None

    return check

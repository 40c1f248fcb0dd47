"""search: hard instances on the compiled backend, where the kernel does
nearly all the work.

Structures are built during set-up, so an operation is one matcher call.
Each round counts occurrences on seeded permutation pairs three ways, by
perm_count, by partition_count on their reductions and by rgf_count on the
reductions' words, and runs exhaustive perm_contains / partition_contains
searches on patterns the text avoids.  Sizes come from fixed grids; the
seed picks the contents.
"""

from __future__ import annotations

import math
import random
import sys
import time

import gen
from harness import Op, Plan, expect_backend
from reference import brute_count, brute_least, matchstick, word_of

BACKEND = "compiled"
TAIL_PCT = 99.0
# (text n, pattern k).  Many sizes, two instances each, so that instance
# times are dense around the median and it does not jump between two.
COUNT_SIZES = 2 * (tuple((n, 4) for n in range(20, 31)) + tuple((n, 5) for n in range(18, 29)))
AVOID_SIZES = 2 * (tuple((n, 4) for n in range(18, 31)) + tuple((n, 5) for n in range(18, 27)))
QUICK_SIZES = ((10, 3), (12, 4))
BRUTE_LIMIT = 20_000  # subsets; perm counts and negatives are brute-forced below it
PARITY_MAX_N = 20  # the pure kernels re-run every instance up to this text size


def setup(seed: int, quick: bool) -> Plan:
    import permpart as pp
    from permpart import _kernels, _kernels_py
    from permpart.core import rgf_of

    expect_backend("compiled")
    rng = random.Random(f"search:{seed}")
    ops: list[Op] = []
    counts: dict[int, list] = {}  # triple index -> [perm_count's answer]
    small: list[tuple] = []  # (kind, text, pattern, expected count or None)
    parity: list[tuple] = []  # (kernel name, text, pattern) run on both backends

    for n, k in QUICK_SIZES if quick else COUNT_SIZES:
        t, p = gen.perm(rng, n), gen.perm(rng, k)
        T, P = pp.Permutation(t), pp.Permutation(p)
        RT, RP = pp.reduce_perm(T), pp.reduce_perm(P)
        WT, WP = rgf_of(RT), rgf_of(RP)
        triple = len(counts)
        counts[triple] = []
        ops.append(Op(f"perm_count {n}/{k}", lambda T=T, P=P: pp.perm_count(T, P),
                      _first(counts[triple])))
        ops.append(Op(f"partition_count {2 * n}/{2 * k}", lambda a=RT, b=RP: pp.partition_count(a, b),
                      _parsimony(counts[triple])))
        ops.append(Op(f"rgf_count {2 * n}/{2 * k}", lambda a=WT, b=WP: pp.rgf_count(a, b),
                      _parsimony(counts[triple])))
        if math.comb(n, k) <= BRUTE_LIMIT:
            small.append(("perm", t, p, counts[triple]))
        if n <= PARITY_MAX_N:
            parity += [("perm_count", t, p), ("perm_find", t, p),
                       ("part_count", WT.letters, WP.letters), ("part_find", WT.letters, WP.letters),
                       ("rgf_count", WT.letters, WP.letters), ("rgf_find", WT.letters, WP.letters)]
    for n, k in QUICK_SIZES if quick else AVOID_SIZES:
        # The text avoids 321 and the pattern has it, so both searches
        # must exhaust their trees to answer no.
        t, p = gen.avoids_321(rng, n), gen.pattern_with_321(rng, k)
        T, P = pp.Permutation(t), pp.Permutation(p)
        RT, RP = pp.reduce_perm(T), pp.reduce_perm(P)
        if word_of(matchstick(t)) != rgf_of(RT).letters:
            raise AssertionError(f"reduce_perm({t}) differs from the matchstick map")
        ops.append(Op(f"perm_contains- {n}/{k}", lambda T=T, P=P: pp.perm_contains(T, P), _negative))
        ops.append(Op(f"partition_contains- {2 * n}/{2 * k}", lambda a=RT, b=RP: pp.partition_contains(a, b),
                      _negative))
        if math.comb(n, k) <= BRUTE_LIMIT:
            small.append(("perm", t, p, None))
        if n <= PARITY_MAX_N:
            w, q = rgf_of(RT).letters, rgf_of(RP).letters
            parity += [("perm_find", t, p), ("part_find", w, q), ("part_count", w, q)]

    for op in ops:  # warm-up, checked
        problem = op.check(op.fn())
        if problem:
            raise AssertionError(f"{op.label}: {problem}")

    def post_checks() -> list[str]:
        problems = []
        for kind, t, p, seen in small:
            if seen is None:
                if brute_least(kind, t, p) is not None:
                    problems.append(f"{t} contains {p}, yet it was built to avoid it")
            elif seen and seen[0] != brute_count(kind, t, p):
                problems.append(f"perm_count({t}, {p}) = {seen[0]}, brute force says otherwise")
        spent = {}  # kernel name -> [compiled seconds, pure seconds]
        for name, text, pattern in parity:
            results = []
            for side, module in enumerate((_kernels, _kernels_py)):
                start = time.perf_counter()
                results.append(getattr(module, name)(text, pattern))
                spent.setdefault(name, [0.0, 0.0])[side] += time.perf_counter() - start
            if results[0] != results[1]:
                problems.append(f"{name}{text, pattern}: compiled {results[0]}, pure {results[1]}")
        print("pure/compiled time on the parity slice:",
              ", ".join(f"{name} {pure / compiled:.1f}x" for name, (compiled, pure) in sorted(spent.items())),
              file=sys.stderr)
        return problems

    return Plan(ops, post_checks)


def _first(seen: list):
    """perm_count starts a triple; its value is checked by the two that follow
    and, on small instances, by brute force after the loop."""

    def check(count):
        if seen and seen[0] != count:
            return f"count changed from {seen[0]} to {count}"
        if not seen:
            seen.append(count)
        return None

    return check


def _parsimony(seen: list):
    """The reduction is parsimonious: perm_count(p, q) equals
    partition_count of the reductions equals rgf_count of their words."""

    def check(count):
        expected = seen[0] if seen else None
        return None if count == expected else f"count {count}, perm_count gave {expected}"

    return check


def _negative(result):
    return None if not result.contains and result.witness is None else f"found {result.witness}"

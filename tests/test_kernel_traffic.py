"""What the library hands the kernels.

The permutation kernels refuse a pattern with a repeated value.  The word
kernels refuse a text letter above the text's length, and their patterns
and census prefixes must be restricted growth words.  Library callers hand
the permutation kernels permutations, texts and patterns alike.  Checking
stand-ins, which forward to the pure kernels, sit where the engines
(matchers._K) and the census (permpart._backend.kernels) find their kernels,
and assert that contract on every call the public functions make.  A caller
that starts to hand the kernels sparse letters fails here.
"""

import types
from collections import Counter

from permpart import (
    _backend,
    _kernels_py,
    census,
    matchers,
    partition_contains,
    partition_count,
    rgf_contains,
    rgf_count,
    verify_reduction,
    verify_rgf_coincidence,
)
from permpart.core import rgf_of
from helpers import SAGAN_ANCHORS, flatten, partitions_of

SEARCHES = ("perm_find", "perm_count", "part_find", "part_count", "rgf_find", "rgf_count")
WALKS = ("part_avoiders", "rgf_avoiders")


def is_growth(word):
    """A restricted growth word is its own first-occurrence relabelling."""
    return flatten(word) == tuple(word)


def checked_search(name, seen):
    kernel = getattr(_kernels_py, name)

    def search(text, pattern, cancel=None, /):
        seen[name] += 1
        if name.startswith("perm"):
            assert sorted(text) == list(range(1, len(text) + 1)), (name, text)
            assert sorted(pattern) == list(range(1, len(pattern) + 1)), (name, pattern)
        else:
            assert all(1 <= letter <= len(text) for letter in text), (name, text)
            assert is_growth(pattern), (name, pattern)
        return kernel(text, pattern, cancel)

    return search


def checked_walk(name, seen):
    kernel = getattr(_kernels_py, name)

    def walk(prefix, pattern, n, /):
        seen[name] += 1
        assert is_growth(prefix) and is_growth(pattern), (name, prefix, pattern)
        assert n >= len(prefix), (name, prefix, n)
        return kernel(prefix, pattern, n)

    return walk


def test_the_library_hands_the_kernels_words_within_their_contract(monkeypatch):
    seen = Counter()
    searches = {name: checked_search(name, seen) for name in SEARCHES}
    walks = {name: checked_walk(name, seen) for name in WALKS}
    monkeypatch.setattr(matchers, "_K", types.SimpleNamespace(**searches))
    monkeypatch.setattr(_backend, "kernels", types.SimpleNamespace(**searches, **walks))
    patterns = [(sigma, rgf_of(sigma)) for k in range(5) for sigma in partitions_of(k)]
    for n in range(7):
        for text in partitions_of(n):
            word = rgf_of(text)
            for pattern, pattern_word in patterns:
                partition_contains(text, pattern)
                partition_count(text, pattern)
                rgf_contains(word, pattern_word)
                rgf_count(word, pattern_word)
    assert verify_reduction(4, 3).ok
    assert verify_rgf_coincidence(4, 3).ok
    for pattern, notion, avoiders in SAGAN_ANCHORS:
        assert census(7, pattern, notion, jobs=1).avoiders == avoiders[7], pattern
    # Every kernel was reached, so each was checked.
    assert set(seen) == set(SEARCHES + WALKS)

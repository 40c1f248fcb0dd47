"""Parity between the compiled and pure-Python kernels, and the kernel
contract both must keep.

The two implementations must agree bit for bit: same answers, same
lexicographically least witnesses, same counts, same cancellation polls.
The compiled module comes from the `compiled` fixture in conftest.py, which
builds src/permpart/_kernels.c with the interpreter's own compiler flags,
so these tests run whenever a C compiler is present; it is loaded without
entering sys.modules, so the rest of the suite keeps whichever backend
permpart picked at import.
"""

import inspect
import itertools
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permpart import (
    Permutation,
    RGFWord,
    SetPartition,
    _backend,
    _kernels_py,
    bell_number,
    census,
    perm_contains,
    reduce_perm,
    transport_occurrence,
)
from permpart.core import rgf_of
from permpart.errors import SearchCancelled
from conftest import SOURCE, build_kernels
from helpers import (
    SAGAN_ANCHORS,
    Index,
    answer_and_polls,
    layered,
    partitions_of,
    perms_of,
    rgf_positions,
    rgf_words_of,
    rows,
)

KERNELS = ("perm_find", "perm_count", "part_find", "part_count", "rgf_find", "rgf_count")
WALKS = ("part_avoiders", "rgf_avoiders")


def matchstick_word(values):
    return rgf_of(reduce_perm(Permutation(values))).letters


def two_rows(m):
    """The matchstick image of rows(m)."""
    return matchstick_word(rows(m))


# The word search prunes this text hard (the order lookahead, the jumps of
# bound slots and the stops), and the counts below add their bound tails in
# one pass: they still reach the poll 13 and 4 times.
TWO_ROWS = two_rows(60)

# Searches long enough to reach the poll at least twice: full counts, and
# exhaustive searches for patterns the text avoids.  part_find searches two
# rows for 3,2,1, which they avoid (4 polls): a find on a text with few
# copies of each letter that succeeds, or fails early, settles in a few
# steps per letter, too few to poll.  rgf_find searches 300,...,1 for 1,2,
# which it avoids (2 polls).  perm_find searches the layered text with 40
# blocks of two for 2,4,1,3 (5 polls), and the same text with 82,84,81,83
# appended, whose one occurrence is the last four (5 polls before it is
# found).  perm_count steps down to its second-to-last slot only, and so
# does a word count whose last letter is new, so all three count 1,...,5
# (6 polls); a word count whose last letters are bound steps down to its
# last new letter only, so 1,2,1,2 takes a text of 800 (4 polls).  The
# count of 2,4,1,3 in the layered text backtracks on most of its steps (5
# polls), and a count of one value takes a step for each position (2 polls
# in 40,000).  The last four entries are counts whose passes add ticks for
# the positions they read: a new last letter, after a slot whose letter is
# new and after one whose letter is bound (4 and 3 polls), and a bound tail
# of one letter, in two slots and in three (3 polls each).
LONG_SEARCHES = [
    ("perm_find", layered((2,) * 40), (2, 4, 1, 3)),
    ("perm_find", layered((2,) * 40) + (82, 84, 81, 83), (2, 4, 1, 3)),
    ("perm_count", tuple(range(1, 41)), (1, 2, 3, 4, 5)),
    ("perm_count", layered((2,) * 40), (2, 4, 1, 3)),
    ("perm_count", tuple(range(1, 40001)), (1,)),
    ("part_find", two_rows(60), matchstick_word((3, 2, 1))),
    ("part_count", tuple(range(1, 41)), (1, 2, 3, 4, 5)),
    ("rgf_find", tuple(range(300, 0, -1)), (1, 2)),
    ("rgf_count", tuple(range(1, 41)), (1, 2, 3, 4, 5)),
    ("rgf_count", tuple(range(1, 401)) * 2, (1, 2, 1, 2)),
    ("part_count", TWO_ROWS, matchstick_word((1, 3, 2))),
    ("rgf_count", TWO_ROWS, matchstick_word((3, 1, 2))),
    ("part_count", tuple(range(1, 3001)), (1, 2)),
    ("rgf_count", tuple(range(1, 51)) * 20, (1, 1, 2)),
    ("part_count", (1,) * 2000, (1, 1, 1)),
    ("rgf_count", (1,) * 1500, (1, 1, 1, 1)),
]


@pytest.fixture(params=["compiled", "pure-python"])
def backend(request):
    if request.param == "compiled":
        return request.getfixturevalue("compiled")
    return _kernels_py


def test_backend_reports_a_known_name():
    assert _backend.kernel_backend() in ("compiled", "pure-python")


def test_both_backends_export_the_same_surface(compiled):
    for name in KERNELS + WALKS:
        assert callable(getattr(compiled, name))
        assert callable(getattr(_kernels_py, name))


def test_pure_env_var_forces_fallback():
    # The child imports the same permpart as this suite, installed or not.
    source_root = str(Path(_backend.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PERMPART_PURE="1", PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", "import permpart; print(permpart.kernel_backend())"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "pure-python"


def test_compiled_module_stays_out_of_sys_modules(compiled):
    assert sys.modules.get("permpart._kernels") is not compiled


def test_kernels_build_against_headers_without_py_no_inline(tmp_path):
    # Python.h defines Py_NO_INLINE only from 3.11 on; the kernels must
    # define it themselves for 3.10, which pyproject.toml supports.
    include = "#include <Python.h>\n"
    text = SOURCE.read_text()
    assert include in text
    source = tmp_path / SOURCE.name
    source.write_text(text.replace(include, include + "#undef Py_NO_INLINE\n", 1))
    assert build_kernels(source, tmp_path).exists()


@pytest.mark.parametrize("name", KERNELS)
def test_arguments_are_positional_only(backend, name):
    kernel = getattr(backend, name)
    text, pattern = (1, 2, 1, 2), (1, 2)
    assert kernel(text, pattern, None) == kernel(text, pattern)
    assert [(p.name, p.kind) for p in inspect.signature(kernel).parameters.values()] == [
        ("text", inspect.Parameter.POSITIONAL_ONLY),
        ("pattern", inspect.Parameter.POSITIONAL_ONLY),
        ("cancel", inspect.Parameter.POSITIONAL_ONLY),
    ]
    with pytest.raises(TypeError):
        kernel(pattern=pattern, text=text)
    with pytest.raises(TypeError):
        kernel(text, pattern=pattern)
    with pytest.raises(TypeError):
        kernel(text, pattern, cancel=None)
    with pytest.raises(TypeError):
        kernel(text)
    with pytest.raises(TypeError):
        kernel(text, pattern, None, None)


WORD_KERNELS = ["part_find", "part_count", "rgf_find", "rgf_count"]
LETTERS_BELOW_ONE = [((1, 0), (1,)), ((1, 2), (0,)), ((1, -3, 2), (1, 1))]


@pytest.mark.parametrize("name", WORD_KERNELS)
@pytest.mark.parametrize("text, pattern", LETTERS_BELOW_ONE)
def test_compiled_word_letters_below_one_are_rejected(compiled, name, text, pattern):
    # The C kernels index arrays by letter: a letter below 1 must be refused
    # before it is used, not read or written out of bounds.
    with pytest.raises(ValueError, match="at least 1"):
        getattr(compiled, name)(text, pattern)


@pytest.mark.parametrize("name", WORD_KERNELS)
@pytest.mark.parametrize("text, pattern", LETTERS_BELOW_ONE)
def test_pure_word_letters_below_one_are_rejected(name, text, pattern):
    # The same refusal, with the same message, instead of a plausible wrong
    # answer or an IndexError.
    with pytest.raises(ValueError, match="at least 1"):
        getattr(_kernels_py, name)(text, pattern)


# The C search allocates the largest text letter + 1 entries, which wraps
# for a letter of INT_MAX.
LETTERS_AT_INT_MAX = [((2**31 - 1,) * 2, (1, 1)), ((2**31 - 1, 5), (1, 2))]


@pytest.mark.parametrize("name", WORD_KERNELS)
@pytest.mark.parametrize("text, pattern", LETTERS_AT_INT_MAX)
def test_word_letters_at_int_max_are_rejected(backend, name, text, pattern):
    with pytest.raises(OverflowError, match="below 2"):
        getattr(backend, name)(text, pattern)


AT_LEAST_ONE = (ValueError, "word letters must be at least 1")
BELOW_INT_MAX = (OverflowError, "word letters must be below 2**31 - 1")
NOT_GROWTH = (ValueError, "a word pattern must be a restricted growth word")
NOT_INTEGER = (TypeError, "'float' object cannot be interpreted as an integer")
ABOVE_LENGTH = (ValueError, "word text letters must be at most the text's length")
# The text's letters, then the pattern's, in order: the first bad one names
# the fault, whatever its size and whatever letters follow it.
FIRST_BAD_LETTER = [
    ((2**31 - 1, 0), (1, 1), BELOW_INT_MAX),
    ((-(2**40), 1), (1, 1), AT_LEAST_ONE),
    ((-(2**70), 1), (1, 1), AT_LEAST_ONE),
    ((2**40, 1), (1, 1), BELOW_INT_MAX),
    ((2**70, 1), (1, 1), BELOW_INT_MAX),
    ((1, 2), (1, 2**40), BELOW_INT_MAX),
    ((1, 2), (1, -(2**70)), AT_LEAST_ONE),
    ((1, 2**40), (1, 0), BELOW_INT_MAX),
    ((1, 2, 3), (1, 3, 0), NOT_GROWTH),
    ((1, 2, 3), (1, 3, 2**40), NOT_GROWTH),
    ((2.5, 0), (1, 1), NOT_INTEGER),
    ((0, 2.5), (1, 1), AT_LEAST_ONE),
    ((1, 2), (1, 2.0), NOT_INTEGER),
    ((1, 2.0), (1, 0), NOT_INTEGER),
    ((3, 1), (1, 1), ABOVE_LENGTH),
    ((5, 0, 1), (1,), ABOVE_LENGTH),
    ((0, 5), (1,), AT_LEAST_ONE),
    ((9, 1), (1, 0), ABOVE_LENGTH),
]


@pytest.mark.parametrize("name", WORD_KERNELS)
@pytest.mark.parametrize("text, pattern, fault", FIRST_BAD_LETTER)
def test_first_bad_letter_names_the_fault(backend, name, text, pattern, fault):
    error, message = fault
    with pytest.raises(error) as raised:
        getattr(backend, name)(text, pattern)
    assert str(raised.value) == message


NOT_RESTRICTED_GROWTH = [((1, 1, 2), (1, 1, 3)), ((1, 2, 1), (1, 3)), ((1, 2, 3), (2, 1))]


@pytest.mark.parametrize("name", WORD_KERNELS)
@pytest.mark.parametrize("text, pattern", NOT_RESTRICTED_GROWTH)
def test_word_patterns_must_be_restricted_growth_words(backend, name, text, pattern):
    # The search binds pattern letters in the order 1, 2, ..., and its
    # lookahead takes every letter up to the running peak as bound.  A
    # letter above the running peak + 1 breaks both silently: without the
    # check, (1, 1, 3) would occur once in (1, 1, 2).
    with pytest.raises(ValueError, match="restricted growth word"):
        getattr(backend, name)(text, pattern)


@pytest.mark.parametrize("name, text, pattern", LONG_SEARCHES)
def test_count_cancels_on_the_second_poll(backend, name, text, pattern):
    # Finds too: each search of LONG_SEARCHES reaches the poll twice.
    calls = []

    def cancel():
        calls.append(None)
        return len(calls) == 2

    with pytest.raises(SearchCancelled):
        getattr(backend, name)(text, pattern, cancel)
    assert len(calls) == 2


@pytest.mark.parametrize("name, text, pattern", LONG_SEARCHES)
def test_both_backends_poll_equally_often(compiled, name, text, pattern):
    # The number of polls is the number of search steps over the poll
    # interval, so equal numbers mean both backends took as many steps.
    seen = []
    for module in (compiled, _kernels_py):
        calls = []
        result = getattr(module, name)(text, pattern, lambda: calls.append(None))
        seen.append((result, len(calls)))
    assert seen[0] == seen[1]
    assert seen[0][1] > 0


def test_perm_kernels_parity_exhaustive(compiled):
    for n in range(6):
        for k in range(5):
            for text in perms_of(n):
                for pattern in perms_of(k):
                    assert compiled.perm_find(text.values, pattern.values) == (
                        _kernels_py.perm_find(text.values, pattern.values)
                    )
                    assert compiled.perm_count(text.values, pattern.values) == (
                        _kernels_py.perm_count(text.values, pattern.values)
                    )


def test_partition_and_word_kernels_parity_exhaustive(compiled):
    words = {
        n: [rgf_of(sigma).letters for sigma in partitions_of(n)] for n in range(6)
    }
    for n in range(6):
        for k in range(6):
            for text in words[n]:
                for pattern in words[k]:
                    assert compiled.part_find(text, pattern) == _kernels_py.part_find(
                        text, pattern
                    )
                    assert compiled.part_count(text, pattern) == _kernels_py.part_count(
                        text, pattern
                    )
                    assert compiled.rgf_find(text, pattern) == _kernels_py.rgf_find(
                        text, pattern
                    )
                    assert compiled.rgf_count(text, pattern) == _kernels_py.rgf_count(
                        text, pattern
                    )


def test_compiled_word_kernels_past_the_old_table_limit(compiled):
    # A dense next-position table of this text would hold (n + 1) * letters
    # = 2002 * 2001 entries, past 4,000,000; the next-copy index holds 4,003.
    text = tuple(range(1, 2002))
    assert compiled.part_count(text, (1, 2)) == 2001 * 2000 // 2
    assert compiled.rgf_count(text, (1, 2)) == 2001 * 2000 // 2
    assert compiled.part_find(text, (1, 1)) is None
    assert compiled.rgf_find(text, (1, 1)) is None


@pytest.mark.parametrize("name", ["part_find", "rgf_find"])
def test_word_search_memory_is_linear_in_the_text(backend, name):
    # rows(700) has a matchstick word of 2,800 letters over 1,400: a dense
    # next-position table of it would take 15.7 MB in C, and twice that as
    # a Python list.
    text, pattern = Permutation(rows(700)), Permutation((2, 1, 3))
    word, pattern_word = matchstick_word(text.values), matchstick_word(pattern.values)
    expected = transport_occurrence(text, perm_contains(text, pattern).witness)
    tracemalloc.start()
    try:
        answer = getattr(backend, name)(word, pattern_word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert answer == expected
    assert peak < 2**20


def test_matchstick_search_past_the_old_table_limit(compiled):
    # 1..1500 with 41 and 42 swapped: a dense next-position table of its
    # matchstick word would hold 3001 * 1500 entries, past 4,000,000.  The
    # least partition witness is the transported least occurrence, as in
    # test_reduction_is_parsimonious_past_brute_force, and the pruned search
    # polls as often on both backends.  A budget of 100 polls stops a search
    # that runs unpruned, which takes over 10,000 here.
    values = list(range(1, 1501))
    values[40:42] = [42, 41]
    text = Permutation(tuple(values))
    word = matchstick_word(text.values)
    seen = []
    for pattern in ((1, 2), (2, 1), (1, 3, 2), (2, 1, 3)):
        hit = perm_contains(text, Permutation(pattern))
        expected = transport_occurrence(text, hit.witness)
        for module in (compiled, _kernels_py):
            calls = []

            def cancel():
                calls.append(None)
                return len(calls) > 100

            assert module.part_find(word, matchstick_word(pattern), cancel) == expected
            seen.append(len(calls))
        assert seen[-2] == seen[-1], pattern
    assert max(seen) >= 2


@pytest.mark.parametrize("name", KERNELS)
def test_index_values_are_read_as_ints(backend, name):
    # As the compiled kernels read every value through __index__, so do the
    # pure ones, before they order, index or bisect by it.
    kernel = getattr(backend, name)
    if name.startswith("perm"):
        pairs = [((3, 1, 4, 2), (2, 1, 3))]
    else:
        pairs = [((1, 2, 1, 3, 2), (1, 2, 1)), ((3, 4, 3, 4), (1, 2, 1, 2))]
    for text, pattern in pairs:
        indexed = tuple(map(Index, text)), tuple(map(Index, pattern))
        answer = kernel(text, pattern)
        assert answer
        assert kernel(indexed[0], pattern) == answer
        assert kernel(text, indexed[1]) == answer
        assert kernel(*indexed) == answer


@st.composite
def rgf_letters(draw, max_len=12):
    length = draw(st.integers(min_value=0, max_value=max_len))
    letters = []
    peak = 0
    for _ in range(length):
        letter = draw(st.integers(min_value=1, max_value=peak + 1))
        letters.append(letter)
        if letter > peak:
            peak = letter
    return tuple(letters)


@settings(max_examples=200, deadline=None)
@given(rgf_letters(), rgf_letters(max_len=5))
def test_word_kernels_parity_random(compiled, text, pattern):
    assert compiled.part_find(text, pattern) == _kernels_py.part_find(text, pattern)
    assert compiled.part_count(text, pattern) == _kernels_py.part_count(text, pattern)
    assert compiled.rgf_find(text, pattern) == _kernels_py.rgf_find(text, pattern)
    assert compiled.rgf_count(text, pattern) == _kernels_py.rgf_count(text, pattern)


def outcome(kernel, text, pattern):
    """The kernel's answer, or the type and message of its ValueError."""
    try:
        return kernel(text, pattern)
    except ValueError as error:
        return type(error), str(error)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=6), max_size=12).map(tuple),
    rgf_letters(max_len=5),
)
def test_rgf_kernels_parity_on_general_text_words(compiled, text, pattern):
    # Word containment takes any word of letters 1..its length as its text;
    # both backends refuse any other word alike.
    for name in ("rgf_find", "rgf_count"):
        assert outcome(getattr(compiled, name), text, pattern) == outcome(
            getattr(_kernels_py, name), text, pattern
        ), name


@st.composite
def reduced_pairs(draw):
    n = draw(st.integers(min_value=24, max_value=40))
    k = draw(st.integers(min_value=3, max_value=5))
    text = draw(st.permutations(range(1, n + 1)))
    pattern = draw(st.permutations(range(1, k + 1)))
    return matchstick_word(text), matchstick_word(pattern)


@st.composite
def words_with_repeated_letters(draw):
    # Few text letters and pattern letters that repeat, so bound slots jump
    # and stop early.
    text = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=30, max_size=40))
    pattern = draw(rgf_letters(max_len=7).filter(lambda p: len(p) > 3 and len(set(p)) < len(p)))
    return tuple(text), pattern


@settings(max_examples=30, deadline=None)
@given(st.one_of(reduced_pairs(), words_with_repeated_letters()))
def test_word_kernels_poll_parity_random(compiled, pair):
    # Equal poll counts: both backends take as many steps, so they jump and
    # stop alike.
    for name in WORD_KERNELS:
        assert answer_and_polls(compiled, name, *pair) == answer_and_polls(
            _kernels_py, name, *pair
        ), name


def test_rgf_kernels_match_brute_force_on_general_text_words(backend):
    # Every word over the letters 1..3 up to length 6, so a fault shared by
    # both backends shows too.  A word with a letter above its length is
    # refused wherever a search runs; the empty pattern and one longer than
    # the text are answered before any letter is read.
    patterns = [word.letters for k in range(5) for word in rgf_words_of(k)]
    for n in range(7):
        for text in itertools.product((1, 2, 3), repeat=n):
            for pattern in patterns:
                if max(text, default=0) > n and 0 < len(pattern) <= n:
                    for kernel in (backend.rgf_find, backend.rgf_count):
                        assert outcome(kernel, text, pattern) == ABOVE_LENGTH
                    continue
                hits = rgf_positions(text, pattern)
                assert backend.rgf_find(text, pattern) == (hits[0] if hits else None)
                assert backend.rgf_count(text, pattern) == len(hits)


@pytest.mark.parametrize("name", WORD_KERNELS)
def test_text_letters_above_the_length_are_rejected(backend, name):
    # Two copies of one huge letter: the search refuses the text before it
    # sizes anything by the letter.
    tracemalloc.start()
    try:
        refused = outcome(getattr(backend, name), (10**7, 10**7), (1, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert refused == ABOVE_LENGTH
    assert peak < 2**20


@pytest.mark.parametrize("name", WORD_KERNELS)
@pytest.mark.parametrize("letter", [5.0, 5.5])
def test_sparse_letters_must_be_integers(backend, name, letter):
    # A float letter is refused as no integer, whatever its size.
    with pytest.raises(TypeError):
        getattr(backend, name)((1, letter, 1), (1, 1))


# A float compares like an integer, so an unchecked search would answer
# perm_find((2.0, 1.0, 3.0), (1, 2)) with (1, 3).  Word letters are checked
# in FIRST_BAD_LETTER.
@pytest.mark.parametrize("name", ["perm_find", "perm_count"])
@pytest.mark.parametrize("text, pattern", [((2.0, 1.0, 3.0), (1, 2)), ((2, 1, 3), (1, 2.5))])
def test_permutation_values_must_be_integers(backend, name, text, pattern):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        getattr(backend, name)(text, pattern)


@settings(max_examples=200, deadline=None)
@given(
    st.permutations(list(range(1, 10))),
    st.permutations(list(range(1, 5))),
)
def test_perm_kernels_parity_random(compiled, text, pattern):
    text = tuple(text)
    pattern = tuple(pattern)
    assert compiled.perm_find(text, pattern) == _kernels_py.perm_find(text, pattern)
    assert compiled.perm_count(text, pattern) == _kernels_py.perm_count(text, pattern)


def test_census_sagan_anchors_at_ten(compiled, monkeypatch):
    # census reads the kernel module at call time
    monkeypatch.setattr(_backend, "kernels", compiled)
    for pattern, notion, avoiders in SAGAN_ANCHORS:
        row = census(10, pattern, notion)
        assert (row.avoiders, row.total) == (avoiders[10], 115975), pattern


def test_census_sagan_anchors_past_the_bound(compiled, monkeypatch):
    monkeypatch.setattr(_backend, "kernels", compiled)
    for n, bell in ((11, 678570), (12, 4213597)):
        for pattern, notion, avoiders in SAGAN_ANCHORS:
            row = census(n, pattern, notion, force=True)
            assert (row.avoiders, row.total) == (avoiders[n], bell), (pattern, n)


@pytest.mark.parametrize("name", WALKS)
@pytest.mark.parametrize("k", range(6))
def test_census_walk_parity(compiled, name, k):
    # every restricted growth pattern of length k, every n <= 8 and every
    # prefix of length min(n, 4)
    for pattern in rgf_words_of(k):
        for n in range(9):
            for prefix in rgf_words_of(min(n, 4)):
                args = (prefix.letters, pattern.letters, n)
                assert getattr(compiled, name)(*args) == getattr(_kernels_py, name)(*args), args


@pytest.mark.parametrize("name", WALKS)
def test_census_walk_edges(backend, name):
    walk = getattr(backend, name)
    # a prefix that contains the pattern has no avoiding extension
    assert walk((1, 2, 1, 2), (1, 2, 1, 2), 7) == 0
    assert walk((1, 1), (1, 1), 2) == 0
    # at n == len(prefix), the prefix itself, if it avoids
    assert walk((1, 2, 1), (1, 1, 1), 3) == 1
    assert walk((1, 2, 1, 1), (1, 1, 1), 4) == 0
    assert walk((), (1,), 0) == 1
    # every word contains the empty pattern
    assert walk((), (), 0) == 0
    assert walk((1, 2), (), 5) == 0
    # a pattern longer than n: all Bell(3) words avoid it
    assert walk((), (1, 2, 3, 4), 3) == 5


def test_census_walks_run_far_past_the_recursion_limit(backend, monkeypatch):
    # One avoider each: the all-ones word avoids 1,2, and 1, 2, ..., n
    # avoids 1,1.  The walks go thousands of letters deep.
    assert backend.part_avoiders((), (1, 2), 5000) == 1
    assert backend.rgf_avoiders((), (1, 2), 5000) == 1
    assert backend.part_avoiders((), (1, 1), 5000) == 1
    monkeypatch.setattr(_backend, "kernels", backend)
    row = census(1500, SetPartition(((1,), (2,))), force=True)
    assert (row.avoiders, row.containers) == (1, bell_number(1500) - 1)


@pytest.mark.parametrize("name", WALKS)
def test_census_walk_arguments_are_positional_only(backend, name):
    walk = getattr(backend, name)
    assert [(p.name, p.kind) for p in inspect.signature(walk).parameters.values()] == [
        ("prefix", inspect.Parameter.POSITIONAL_ONLY),
        ("pattern", inspect.Parameter.POSITIONAL_ONLY),
        ("n", inspect.Parameter.POSITIONAL_ONLY),
    ]
    with pytest.raises(TypeError):
        walk((), (1,), n=3)
    with pytest.raises(TypeError):
        walk((), (1,))
    with pytest.raises(TypeError):
        walk((), (1,), 3, None)


NOT_PREFIX = (ValueError, "a prefix must be a restricted growth word")
N_TOO_SMALL = (ValueError, "n must be at least the prefix's length")
N_TOO_LARGE = (OverflowError, "n must be below 2**31 - 1")
WALK_FAULTS = [
    ((1, 2, 3), (1, 2), 2, N_TOO_SMALL),
    ((1, 2), (1,), -1, N_TOO_SMALL),
    ((1, 3), (1,), 4, NOT_PREFIX),
    ((2,), (1,), 4, NOT_PREFIX),
    ((1,), (1, 3), 4, NOT_GROWTH),
    ((1,), (2,), 4, NOT_GROWTH),
    ((0,), (1,), 4, AT_LEAST_ONE),
    ((1,), (1, 0), 4, AT_LEAST_ONE),
    ((1,), (1,), 4.0, NOT_INTEGER),
    ((1.0,), (1,), 4, NOT_INTEGER),
    ((1,), (1, 2.0), 4, NOT_INTEGER),
    ((1,), (1,), 2**31 - 1, N_TOO_LARGE),
    ((1,), (1,), 2**70, N_TOO_LARGE),
]


@pytest.mark.parametrize("name", WALKS)
@pytest.mark.parametrize("prefix, pattern, n, fault", WALK_FAULTS)
def test_census_walk_rejects_bad_input(backend, name, prefix, pattern, n, fault):
    error, message = fault
    with pytest.raises(error) as raised:
        getattr(backend, name)(prefix, pattern, n)
    assert str(raised.value) == message


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM")
@pytest.mark.parametrize("whole", [False, True], ids=["census", "one-walk"])
def test_forced_census_stops_at_an_interrupt(compiled, monkeypatch, whole):
    # census(14) of 1,2,1,2 takes seconds.  With one job it is one walk from
    # the empty prefix, as the one-walk case is, so both stop only through
    # the poll inside the kernel's walk.
    monkeypatch.setattr(_backend, "kernels", compiled)

    class Alarm(Exception):
        pass

    def ring(signum, frame):
        raise Alarm

    previous = signal.signal(signal.SIGALRM, ring)
    try:
        due = time.perf_counter() + 0.1
        signal.setitimer(signal.ITIMER_REAL, 0.1)
        with pytest.raises(Alarm):
            if whole:
                compiled.rgf_avoiders((), (1, 2, 1, 2), 14)
            else:
                census(14, RGFWord((1, 2, 1, 2)), "rgf", force=True)
        stopped = time.perf_counter()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert stopped - due < 0.5


class Alarm(Exception):
    pass


def seconds_past_an_alarm(call):
    """Run call with a SIGALRM due 0.1 s in, whose handler raises Alarm, and
    return how long after the alarm the call stopped."""

    def ring(signum, frame):
        raise Alarm

    previous = signal.signal(signal.SIGALRM, ring)
    try:
        due = time.perf_counter() + 0.1
        signal.setitimer(signal.ITIMER_REAL, 0.1)
        with pytest.raises(Alarm):
            call()
        return time.perf_counter() - due
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# Searches that run for seconds compiled, and far longer pure: the counts
# step down to their second-to-last slot only, so the word counts of
# 1, ..., 6 in 1, ..., 100 take C(100, 5) steps, about 7.5e7, and their
# passes read C(100, 6) positions, about 1.19e9; perm_count takes about as
# many steps for 1, ..., 7; and the find of 2,4,1,3 in the layered text
# 2, 1, 4, 3, ... of 80,000 tries each later position for its third slot
# after each pair of its first two.
LAYERED = layered((2,) * 40000)
ENDLESS_SEARCHES = [
    ("perm_count", tuple(range(1, 101)), tuple(range(1, 8))),
    ("part_count", tuple(range(1, 101)), tuple(range(1, 7))),
    ("rgf_count", tuple(range(1, 101)), tuple(range(1, 7))),
    ("perm_find", LAYERED, (2, 4, 1, 3)),
]


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM")
@pytest.mark.parametrize("name, text, pattern", ENDLESS_SEARCHES)
def test_search_stops_at_an_interrupt(backend, name, text, pattern):
    # With no cancel, a handler that raises stops the search within one
    # poll interval: the compiled kernels check for signals at every poll,
    # and the interpreter runs the pure ones.  The word finds poll through
    # the same run as the counts.
    assert seconds_past_an_alarm(lambda: getattr(backend, name)(text, pattern)) < 0.5


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM")
def test_long_count_passes_stop_at_an_interrupt(compiled):
    # Each step of this count that places the 2 sets off a pass over the
    # rest of a 400,000-entry text.  The passes add steps for the positions
    # they read, so the count still polls within a fraction of a second;
    # were each pass one step, a poll interval would read about 6.5e9
    # positions.
    text = tuple(range(1, 400001))
    assert seconds_past_an_alarm(lambda: compiled.perm_count(text, (1, 2, 3))) < 0.5


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM")
@pytest.mark.parametrize(
    "name, text, pattern",
    [
        ("part_count", tuple(range(1, 400001)), (1, 2)),
        ("rgf_count", tuple(range(1, 400001)), (1, 2)),
        ("part_count", (1,) * 400000, (1, 1, 1)),
        ("rgf_count", (1,) * 400000, (1, 1, 1)),
    ],
)
def test_long_word_count_passes_stop_at_an_interrupt(compiled, name, text, pattern):
    # Each step of slot 0 sets off a pass over the rest of a 400,000-letter
    # text: a scan for the new last letter 2, or suffix sums over the copies
    # of 1 for the bound tail 1,1.  The passes add steps for the positions
    # they read, as the permutation count's do, so the count still polls
    # within a fraction of a second.
    assert seconds_past_an_alarm(lambda: getattr(compiled, name)(text, pattern)) < 0.5


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM")
@pytest.mark.parametrize("name, pattern", [(name, pattern) for name, _, pattern in ENDLESS_SEARCHES])
def test_interrupted_compiled_search_frees_its_arena(compiled, name, pattern):
    # On a text of 80,000 the arena holds at least 320 KB, and the error
    # path frees it as a returning search does.
    text = LAYERED if name == "perm_find" else tuple(range(1, 80001))
    kernel = getattr(compiled, name)
    tracemalloc.start()
    try:
        stopped = seconds_past_an_alarm(lambda: kernel(text, pattern))
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert stopped < 0.5
    assert left < 2**14

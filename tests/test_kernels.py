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
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permpart import Permutation, _backend, _kernels_py, census, matchers, reduce_perm
from permpart.core import rgf_of
from permpart.errors import SearchCancelled
from helpers import SAGAN_ANCHORS, partitions_of, perms_of, rgf_positions, rgf_words_of

KERNELS = ("perm_find", "perm_count", "part_find", "part_count", "rgf_find", "rgf_count")


def matchstick_word(values):
    return rgf_of(reduce_perm(Permutation(values))).letters


# 2, 4, ..., 36, 1, 3, ..., 35, whose matchstick image the order lookahead
# prunes hard: the word kernels take about a fifth of the steps they would
# without it, and still reach the poll six times.
TWO_ROWS = matchstick_word(tuple(range(2, 37, 2)) + tuple(range(1, 36, 2)))

# Searches long enough to reach the poll several times: full counts, and
# exhaustive searches for patterns the text avoids.
LONG_SEARCHES = [
    ("perm_find", tuple(range(24, 0, -1)), (4, 3, 2, 1, 5)),
    ("perm_count", tuple(range(1, 41)), (1, 2, 3, 4)),
    ("part_find", tuple(range(1, 201)) * 2, (1, 1, 2, 2)),
    ("part_count", tuple(range(1, 41)), (1, 2, 3, 4)),
    ("rgf_find", tuple(range(200, 0, -1)), (1, 2)),
    ("rgf_count", tuple(range(1, 41)), (1, 2, 3, 4)),
    ("rgf_count", tuple(range(1, 41)) * 2, (1, 2, 1, 2)),
    ("part_count", TWO_ROWS, matchstick_word((1, 3, 2))),
    ("rgf_count", TWO_ROWS, matchstick_word((3, 1, 2))),
]


@pytest.fixture(params=["compiled", "pure-python"])
def backend(request):
    if request.param == "compiled":
        return request.getfixturevalue("compiled")
    return _kernels_py


def test_backend_reports_a_known_name():
    assert _backend.kernel_backend() in ("compiled", "pure-python")


def test_both_backends_export_the_same_surface(compiled):
    for name in KERNELS:
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


@pytest.mark.parametrize(
    "name, text, pattern", [s for s in LONG_SEARCHES if s[0].endswith("_count")]
)
def test_count_cancels_on_the_second_poll(backend, name, text, pattern):
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


def test_compiled_word_kernels_without_the_table(compiled):
    # (n + 1) * letters = 2002 * 2001 passes TABLE_LIMIT, so the search runs
    # with no next-position table and no order lookahead.
    text = tuple(range(1, 2002))
    assert compiled.part_count(text, (1, 2)) == 2001 * 2000 // 2
    assert compiled.rgf_count(text, (1, 2)) == 2001 * 2000 // 2
    assert compiled.part_find(text, (1, 1)) is None
    assert compiled.rgf_find(text, (1, 1)) is None


def test_pure_word_kernels_without_the_table(monkeypatch):
    words = [w.letters for n in range(6) for w in rgf_words_of(n)]
    pairs = list(itertools.product(words, repeat=2))

    def answers():
        return [getattr(_kernels_py, name)(*pair) for name in WORD_KERNELS for pair in pairs]

    with_table = answers()
    monkeypatch.setattr(_kernels_py, "_TABLE_LIMIT", 0)
    assert answers() == with_table


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


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=6), max_size=12).map(tuple),
    rgf_letters(max_len=5),
)
def test_rgf_kernels_parity_on_general_text_words(compiled, text, pattern):
    # Word containment takes any word of positive letters as its text.
    assert compiled.rgf_find(text, pattern) == _kernels_py.rgf_find(text, pattern)
    assert compiled.rgf_count(text, pattern) == _kernels_py.rgf_count(text, pattern)


def test_rgf_kernels_match_brute_force_on_general_text_words(backend):
    # Every word over the letters 1..3 up to length 6, so a fault shared by
    # both backends shows too.
    patterns = [word.letters for k in range(5) for word in rgf_words_of(k)]
    for n in range(7):
        for text in itertools.product((1, 2, 3), repeat=n):
            for pattern in patterns:
                hits = rgf_positions(text, pattern)
                assert backend.rgf_find(text, pattern) == (hits[0] if hits else None)
                assert backend.rgf_count(text, pattern) == len(hits)


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
    # census reads the kernel table at call time
    monkeypatch.setattr(matchers, "_K", compiled)
    for pattern, notion, avoiders in SAGAN_ANCHORS:
        row = census(10, pattern, notion)
        assert (row.avoiders, row.total) == (avoiders[10], 115975), pattern

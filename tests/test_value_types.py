"""The value types' contract.  Permutation, SetPartition, RGFWord,
MatchResult, Mismatch, VerificationReport and CensusRow are frozen plain
classes; their equality, hashing, repr, match patterns, copies and pickles
are those of the frozen dataclasses they once were, and pickles those
wrote still load."""

import copy
import pickle
import sys
import threading
import weakref
from dataclasses import FrozenInstanceError

import pytest

from permpart import (
    CensusRow,
    MatchResult,
    Mismatch,
    Permutation,
    RGFWord,
    SetPartition,
    VerificationReport,
    partition_of_rgf,
    reduce_perm,
    restrict,
    rgf_of,
)
from permpart.core import _Frozen
from helpers import partitions_of, perms_of


def _with_word(sigma):
    sigma.word  # cached in the instance, and so pickled and copied with it
    return sigma


FAILED = Mismatch("containment", (1,), (1,), False, True)

# (value, its fields in order, its repr, its protocol 2 pickle as the
# dataclass forms wrote it)
VALUES = [
    (
        Permutation((2, 3, 1)),
        ((2, 3, 1),),
        "Permutation(values=(2, 3, 1))",
        b'\x80\x02cpermpart.core\nPermutation\nq\x00)\x81q\x01}q\x02X\x06\x00\x00\x00valuesq'
        b'\x03K\x02K\x03K\x01\x87q\x04sb.',
    ),
    (
        SetPartition(((2,), (3, 1))),
        (((1, 3), (2,)),),
        "SetPartition(blocks=((1, 3), (2,)))",
        b'\x80\x02cpermpart.core\nSetPartition\nq\x00)\x81q\x01}q\x02(X\x06\x00\x00\x00blocksq'
        b'\x03K\x01K\x03\x86q\x04K\x02\x85q\x05\x86q\x06X\x02\x00\x00\x00_nq\x07K\x03ub.',
    ),
    (
        RGFWord((1, 2, 1)),
        ((1, 2, 1),),
        "RGFWord(letters=(1, 2, 1))",
        b'\x80\x02cpermpart.core\nRGFWord\nq\x00)\x81q\x01}q\x02(X\x07\x00\x00\x00lettersq\x03K'
        b'\x01K\x02K\x01\x87q\x04X\x05\x00\x00\x00_peakq\x05K\x02ub.',
    ),
    (
        MatchResult(True, (1, 3)),
        (True, (1, 3)),
        "MatchResult(contains=True, witness=(1, 3))",
        b'\x80\x02cpermpart.matchers\nMatchResult\nq\x00)\x81q\x01}q\x02(X\x08\x00\x00\x00conta'
        b'insq\x03\x88X\x07\x00\x00\x00witnessq\x04K\x01K\x03\x86q\x05ub.',
    ),
    (
        MatchResult(False),
        (False, None),
        "MatchResult(contains=False, witness=None)",
        b'\x80\x02cpermpart.matchers\nMatchResult\nq\x00)\x81q\x01}q\x02(X\x08\x00\x00\x00conta'
        b'insq\x03\x89X\x07\x00\x00\x00witnessq\x04Nub.',
    ),
    (
        Mismatch("parsimony", (2, 1), (1,), 1, 2),
        ("parsimony", (2, 1), (1,), 1, 2),
        "Mismatch(check='parsimony', text=(2, 1), pattern=(1,), engine=1, oracle=2)",
        b'\x80\x02cpermpart.oracle\nMismatch\nq\x00)\x81q\x01}q\x02(X\x05\x00\x00\x00checkq\x03'
        b'X\t\x00\x00\x00parsimonyq\x04X\x04\x00\x00\x00textq\x05K\x02K\x01\x86q\x06X\x07\x00'
        b'\x00\x00patternq\x07K\x01\x85q\x08X\x06\x00\x00\x00engineq\tK\x01X\x06\x00\x00\x00ora'
        b'cleq\nK\x02ub.',
    ),
    (
        VerificationReport(3, 2, 18, (FAILED,), 0.5),
        (3, 2, 18, (FAILED,), 0.5),
        "VerificationReport(max_n=3, max_k=2, pairs_checked=18, "
        "mismatches=(Mismatch(check='containment', text=(1,), pattern=(1,), engine=False, "
        "oracle=True),), elapsed=0.5)",
        b'\x80\x02cpermpart.oracle\nVerificationReport\nq\x00)\x81q\x01}q\x02(X\x05\x00\x00\x00'
        b'max_nq\x03K\x03X\x05\x00\x00\x00max_kq\x04K\x02X\r\x00\x00\x00pairs_checkedq\x05K\x12'
        b'X\n\x00\x00\x00mismatchesq\x06cpermpart.oracle\nMismatch\nq\x07)\x81q\x08}q\t(X\x05'
        b'\x00\x00\x00checkq\nX\x0b\x00\x00\x00containmentq\x0bX\x04\x00\x00\x00textq\x0cK\x01'
        b'\x85q\rX\x07\x00\x00\x00patternq\x0eh\rX\x06\x00\x00\x00engineq\x0f\x89X\x06\x00\x00'
        b'\x00oracleq\x10\x88ub\x85q\x11X\x07\x00\x00\x00elapsedq\x12G?\xe0\x00\x00\x00\x00\x00'
        b'\x00ub.',
    ),
    (
        CensusRow(4, SetPartition(((1,), (2,))), "partition", 1, 14),
        (4, SetPartition(((1,), (2,))), "partition", 1, 14),
        "CensusRow(n=4, pattern=SetPartition(blocks=((1,), (2,))), notion='partition', "
        "avoiders=1, containers=14)",
        b'\x80\x02cpermpart.oracle\nCensusRow\nq\x00)\x81q\x01}q\x02(X\x01\x00\x00\x00nq\x03K'
        b'\x04X\x07\x00\x00\x00patternq\x04cpermpart.core\nSetPartition\nq\x05)\x81q\x06}q\x07('
        b'X\x06\x00\x00\x00blocksq\x08K\x01\x85q\tK\x02\x85q\n\x86q\x0bX\x02\x00\x00\x00_nq\x0c'
        b'K\x02ubX\x06\x00\x00\x00notionq\rX\t\x00\x00\x00partitionq\x0eX\x08\x00\x00\x00avoide'
        b'rsq\x0fK\x01X\n\x00\x00\x00containersq\x10K\x0eub.',
    ),
    (
        _with_word(SetPartition(((1, 3), (2, 4)))),
        (((1, 3), (2, 4)),),
        "SetPartition(blocks=((1, 3), (2, 4)))",
        b'\x80\x02cpermpart.core\nSetPartition\nq\x00)\x81q\x01}q\x02(X\x06\x00\x00\x00blocksq'
        b'\x03K\x01K\x03\x86q\x04K\x02K\x04\x86q\x05\x86q\x06X\x02\x00\x00\x00_nq\x07K\x04X\x04'
        b'\x00\x00\x00wordq\x08(K\x01K\x02K\x01K\x02tq\tub.',
    ),
]
IDS = [type(value).__name__ for value, *_ in VALUES]
IDS[4], IDS[8] = "MatchResult-no", "SetPartition-word"


@pytest.mark.parametrize("value, fields, text, old", VALUES, ids=IDS)
def test_fields_equality_hash_and_repr(value, fields, text, old):
    cls = type(value)
    names = cls.__match_args__
    assert tuple(getattr(value, name) for name in names) == fields
    assert cls(*fields) == value == cls(**dict(zip(names, fields)))
    assert not value != cls(*fields)
    assert hash(value) == hash(fields)
    assert repr(value) == text


def test_equality_is_per_class():
    assert Permutation((1,)) != RGFWord((1,))
    assert Permutation((1,)).__eq__(RGFWord((1,))) is NotImplemented
    for a, *_ in VALUES:
        for b, *_ in VALUES:
            if type(a) is not type(b):
                assert a.__eq__(b) is NotImplemented and a != b
    assert MatchResult(True, (1, 2)) != MatchResult(True, (1, 3))
    assert MatchResult(True, (1, 2)) != (True, (1, 2))


@pytest.mark.parametrize("value, fields, text, old", VALUES, ids=IDS)
def test_pickles_and_copies(value, fields, text, old):
    assert pickle.dumps(value, 2) == old
    for seen in (
        pickle.loads(old),
        pickle.loads(pickle.dumps(value)),
        copy.copy(value),
        copy.deepcopy(value),
    ):
        assert seen == value and type(seen) is type(value)
        assert vars(seen) == vars(value)  # stored size, peak and word included


@pytest.mark.parametrize("value, fields, text, old", VALUES, ids=IDS)
def test_frozen(value, fields, text, old):
    before = dict(vars(value))
    for name in (*type(value).__match_args__, "extra"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field {name!r}"):
            setattr(value, name, None)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field {name!r}"):
            delattr(value, name)
    assert vars(value) == before


@pytest.mark.parametrize("value, fields, text, old", VALUES, ids=IDS)
def test_weak_references(value, fields, text, old):
    assert weakref.ref(value)() is value


def test_keyword_construction():
    assert Permutation(values=(2, 1)) == Permutation((2, 1))
    assert SetPartition(blocks=[(2,), (1,)]).blocks == ((1,), (2,))
    assert RGFWord(letters=(1, 2)).max_letter == 2
    assert MatchResult(True, witness=(1,)) == MatchResult(contains=True, witness=(1,))
    assert MatchResult(contains=False).witness is None


def test_match_statement():
    found = []
    for result in (MatchResult(True, (2, 3)), MatchResult(False)):
        match result:
            case MatchResult(True, witness):
                found.append(witness)
            case MatchResult(False, None):
                found.append("no")
    assert found == [(2, 3), "no"]
    match CensusRow(4, SetPartition(((1,), (2,))), "partition", 1, 14):
        case CensusRow(n, SetPartition(blocks), "partition", avoiders, containers):
            assert (n, blocks, avoiders, containers) == (4, ((1,), (2,)), 1, 14)
        case _:
            pytest.fail("no case matched")


def _assert_same_value(built, validated):
    assert built == validated
    assert (hash(built), repr(built)) == (hash(validated), repr(validated))
    assert pickle.dumps(built) == pickle.dumps(validated)


def test_reduce_perm_builds_what_validation_would():
    # reduce_perm skips validation: its blocks (i, p_i + n) are canonical and
    # its word is 1..n followed by the inverse of p.
    for n in range(8):
        for perm in perms_of(n):
            built = reduce_perm(perm)
            validated = SetPartition(tuple((i, v + n) for i, v in enumerate(perm.values, 1)))
            # the word first: it is cached in the instance, and so pickled
            assert (built.word, built.n) == (validated.word, validated.n)
            _assert_same_value(built, validated)


def test_rgf_of_builds_what_validation_would():
    # rgf_of skips the growth check: a block-index word has restricted
    # growth, and its peak is the number of blocks.
    for n in range(9):
        for sigma in partitions_of(n):
            built, validated = rgf_of(sigma), RGFWord(sigma.word)
            assert (built.letters, built.max_letter) == (validated.letters, validated.max_letter)
            _assert_same_value(built, validated)


# The attributes SetPartition and RGFWord compute on first read and keep.
LAZY = {SetPartition: ("word", "_sizes", "_unreduced"), RGFWord: ("_unreduced",)}


def _expected_lazy(value):
    """The lazy attributes, recomputed here from the fields alone."""
    if isinstance(value, RGFWord):
        letters = value.letters
        blocks = tuple(
            tuple(i for i, x in enumerate(letters, 1) if x == b)
            for b in range(1, value.max_letter + 1)
        )
    else:
        blocks = value.blocks
        letters = tuple(
            next(b for b, block in enumerate(blocks, 1) if e in block)
            for e in range(1, sum(map(len, blocks)) + 1)
        )
    half = len(letters) // 2
    matchstick = 2 * half == len(letters) and all(
        len(block) == 2 and block[0] <= half < block[1] for block in blocks
    )
    values = tuple(block[1] - half for block in blocks) if matchstick else None
    if isinstance(value, RGFWord):
        return {"_unreduced": values}
    sizes = tuple(sorted(map(len, blocks), reverse=True))
    return {"word": letters, "_sizes": sizes, "_unreduced": values}


def _lazy_values(value):
    return {name: getattr(value, name) for name in LAZY[type(value)]}


def test_lazy_attributes_are_invisible_to_equality_hash_and_repr():
    for sigma in (*partitions_of(4), reduce_perm(Permutation((2, 3, 1)))):
        for read in (sigma, rgf_of(sigma)):
            fresh = type(read)(*read._astuple())  # nothing computed yet
            assert not set(LAZY[type(read)]) & set(vars(fresh))
            _lazy_values(read)
            assert set(LAZY[type(read)]) <= set(vars(read))
            assert read == fresh and hash(read) == hash(fresh) == hash(read._astuple())
            assert repr(read) == repr(fresh)
    # the pinned pickles are unchanged, and a pickle carries what was read
    for value, _, _, old in VALUES:
        if type(value) in LAZY:
            fresh = type(value)(*value._astuple())
            for name in set(LAZY[type(value)]) & set(vars(value)):
                getattr(fresh, name)
            assert pickle.dumps(fresh, 2) == old
            _lazy_values(fresh)
            loaded = pickle.loads(pickle.dumps(fresh))
            assert loaded == value and vars(loaded) == vars(fresh)


def test_lazy_attributes_on_every_way_a_value_is_made():
    for n in range(8):
        for perm in perms_of(n // 2):
            sigma = reduce_perm(perm)
            assert sigma._unreduced == perm.values
            assert _lazy_values(sigma) == _expected_lazy(sigma)
            word = rgf_of(sigma)
            assert word._unreduced == perm.values
        for sigma in partitions_of(n):
            word = rgf_of(sigma)
            made = [
                SetPartition(reversed(sigma.blocks)),
                SetPartition._from_canonical(sigma.blocks, n),
                SetPartition._from_canonical(sigma.blocks, n, sigma.word),
                partition_of_rgf(word),
                restrict(sigma, range(1, n + 1)),
                restrict(SetPartition(sigma.blocks + ((n + 1, n + 2),)), range(1, n + 1)),
            ]
            expected = _expected_lazy(sigma)
            for part in made:
                assert _lazy_values(part) == expected, (sigma, part)
            for letters in (word, RGFWord(sigma.word)):
                assert _lazy_values(letters) == {"_unreduced": expected["_unreduced"]}


def test_threads_reading_a_fresh_word_agree():
    blocks = tuple((i, i + 40, i + 80) for i in range(1, 41))
    for _ in range(20):
        sigma = SetPartition(blocks)
        barrier = threading.Barrier(8)
        seen = []

        def read():
            barrier.wait(timeout=10)
            seen.append(sigma.word)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8 and seen.count(_expected_lazy(sigma)["word"]) == 8
        assert sigma.word == seen[0]


def test_a_subclass_fields_are_its_annotations_in_order():
    class Pair(_Frozen):
        right: int
        left: int
        kind = "pair"  # unannotated: not a field

        def __init__(self, right, left):
            self._store_fields(right, left)

        @property
        def total(self):
            return self.right + self.left

    pair = Pair(1, 2)
    assert Pair.__match_args__ == ("right", "left")
    assert vars(pair) == {"right": 1, "left": 2}
    assert repr(pair) == f"{Pair.__qualname__}(right=1, left=2)"
    assert pair == Pair(1, 2) != Pair(2, 1)
    assert hash(pair) == hash((1, 2))
    match pair:
        case Pair(1, left):
            assert left == 2 and pair.total == 3 and pair.kind == "pair"
        case _:
            pytest.fail("no case matched")

"""Core types for permutations, set partitions, and restricted growth words.

Conventions used throughout the package:

- Ground sets are [n] = {1, 2, ..., n}; every element, value, and index that
  crosses a public boundary is 1-based.
- Constructors read every value through operator.index: any integer type is
  stored as a plain int, and a value that only compares equal to one, such
  as 2.0, raises TypeError.
- A set partition is kept in canonical form: elements ascending inside each
  block, blocks ordered by their minimum element.  Equality and hashing are
  equality of canonical forms.
- Empty structures (the empty permutation, the partition of [0], the empty
  word) are legal and are contained in everything.
- All values are immutable after construction and every operation is a pure
  function of its inputs, so everything here is safe for unrestricted
  concurrent use.
- The value types here and in permpart.matchers and permpart.oracle are
  frozen plain classes, not dataclasses: dataclasses, and the inspect
  module it imports, took a large share of the start-up of a one-query
  CLI process.  So dataclasses.fields, asdict and replace do not apply to
  them; their equality, hashing, repr, match patterns and pickles are
  those of frozen dataclasses.  As in a dataclass, a type's fields are its
  class annotations, in order, and it annotates nothing else.
"""

from __future__ import annotations

import operator
from itertools import chain
from typing import Iterable, Iterator

_PLAIN = frozenset((int,))
_first = operator.itemgetter(0)


def _integers(values: Iterable, what: str) -> tuple[int, ...]:
    """The values read through operator.index, so that any integer type
    comes back as a plain int and anything else raises TypeError naming it.
    A tuple of plain ints, the usual input, is returned as it is."""
    values = tuple(values)
    if _PLAIN.issuperset(map(type, values)):
        return values
    plain = []
    for value in values:
        try:
            plain.append(operator.index(value))
        except TypeError:
            raise TypeError(f"{what} must be integers, not {value!r}") from None
    return tuple(plain)


# Stores an attribute past the frozen types' __setattr__.  Unlike a store
# into self.__dict__, it builds no per-instance dict on CPython 3.11 and
# later: the attributes stay in the instance's compact storage, which takes
# less memory and reads faster.  pickle and copy see the same attributes.
_store = object.__setattr__


class _lazy:
    """An attribute computed on first read and then _stored on the
    instance.  The descriptor has no __set__, so the stored value shadows
    it and later reads are plain attribute reads.  Unlike
    functools.cached_property it takes no lock (with it a first read cost
    about 0.4 us more than the computation, CPython 3.11 on x86-64, against
    about 0.15 us here): threads that race compute equal values from
    immutable fields, and one of them is kept."""

    def __init__(self, compute) -> None:
        self._compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self._name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self._compute(instance)
        _store(instance, self._name, value)
        return value


class _Frozen:
    """Base of the frozen value types.  A subclass annotates its fields, in
    order, and nothing else at class level: the names of its own
    annotations are its fields, as in a dataclass.  Its __init__
    validates and then stores the fields with _store or _store_fields.
    Equality (same class only), hashing and repr read the fields, in the
    manner of a frozen dataclass; any other stored attribute is invisible."""

    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        # _astuple() is the tuple of the field values; attrgetter returns
        # a lone field bare, not in a tuple.
        cls._fields = cls.__match_args__ = fields = tuple(cls.__annotations__)
        get = operator.attrgetter(*fields)
        if len(fields) == 1:
            cls._astuple = lambda self: (get(self),)
        else:
            cls._astuple = lambda self: get(self)

    def _store_fields(self, *values: object) -> None:
        """Store the values as the fields, in order."""
        for name, value in zip(self._fields, values):
            _store(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self._fields, self._astuple()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Permutation(_Frozen):
    """A bijective word p_1 ... p_n on {1, ..., n}.

    >>> Permutation((2, 3, 1)).n
    3
    """

    values: tuple[int, ...]

    def __init__(self, values: Iterable[int]) -> None:
        values = _integers(values, "permutation values")
        n = len(values)
        if sorted(values) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of [{n}]: {values}")
        _store(self, "values", values)

    @property
    def n(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)


class SetPartition(_Frozen):
    """Disjoint nonempty blocks covering {1, ..., n}, held in canonical form.

    The constructor accepts blocks in any order with elements in any order
    and canonicalizes; the partition of [0] is ``SetPartition(())``.  The
    ground-set size is stored at construction; the block-index word, the
    block sizes in descending order, and the permutation a matchstick
    partition encodes, are computed on first use.  None of them is a field,
    so equality, hashing and repr see the blocks alone.

    >>> SetPartition(((2, 4), (3, 1))).blocks
    ((1, 3), (2, 4))
    >>> SetPartition(((2, 4), (3, 1))).word
    (1, 2, 1, 2)
    """

    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, blocks: Iterable[Iterable[int]]) -> None:
        # The element types are checked in one pass over all the blocks.
        # Only blocks holding something other than plain ints go one by one
        # through _integers, which converts them or raises for the first
        # non-integer in block order, before any sort could compare it.
        raw: list[tuple] = []
        try:
            raw.extend(map(tuple, blocks))
        except TypeError:
            # A block that is not iterable: a bad element before it is
            # named first.
            for block in raw:
                _integers(block, "block elements")
            raise
        elements = list(chain.from_iterable(raw))
        if not _PLAIN.issuperset(map(type, elements)):
            raw = [_integers(block, "block elements") for block in raw]
            elements = list(chain.from_iterable(raw))
        if not all(raw):
            raise ValueError("set partition blocks must be nonempty")
        n = len(elements)
        elements.sort()
        if elements != list(range(1, n + 1)):
            blocks = tuple(sorted(map(tuple, map(sorted, raw)), key=_first))
            raise ValueError(f"blocks do not partition [{n}]: {blocks}")
        # Disjoint blocks differ in their least elements, so plain tuple
        # order is order by minimum.
        blocks = tuple(sorted(map(tuple, map(sorted, raw))))
        _store(self, "blocks", blocks)
        _store(self, "_n", n)

    @classmethod
    def _from_canonical(
        cls,
        blocks: tuple[tuple[int, ...], ...],
        n: int,
        word: tuple[int, ...] | None = None,
    ) -> SetPartition:
        # Caller guarantees canonical, valid blocks of [n] (and, if given,
        # their block-index word); skips validation.
        part = object.__new__(cls)
        _store(part, "blocks", blocks)
        _store(part, "_n", n)
        if word is not None:
            _store(part, "word", word)  # shadows the lazy attribute
        return part

    @property
    def n(self) -> int:
        """Size of the ground set."""
        return self._n  # type: ignore[attr-defined]

    @_lazy
    def word(self) -> tuple[int, ...]:
        """Block-index word: the i-th letter is the index of the block
        containing i, blocks numbered 1, 2, ... by their minima."""
        letters = [0] * self._n  # type: ignore[attr-defined]
        for index, block in enumerate(self.blocks, start=1):
            for e in block:
                letters[e - 1] = index
        return tuple(letters)

    @_lazy
    def _sizes(self) -> tuple[int, ...]:
        """The block sizes, largest first."""
        return tuple(sorted(map(len, self.blocks), reverse=True))

    @_lazy
    def _unreduced(self) -> tuple[int, ...] | None:
        """The values of the permutation whose reduce_perm this is, or None
        if it is not matchstick (see _unreduce)."""
        half = len(self.blocks)
        return _unreduce(self.word, half) if 2 * half == self._n else None  # type: ignore[attr-defined]

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.blocks)


class RGFWord(_Frozen):
    """A restricted growth word: w_1 = 1 and no letter exceeds the running
    maximum of the letters before it by more than one."""

    letters: tuple[int, ...]

    def __init__(self, letters: Iterable[int]) -> None:
        letters = _integers(letters, "word letters")
        peak = 0
        for position, letter in enumerate(letters, start=1):
            if not 1 <= letter <= peak + 1:
                raise ValueError(
                    f"letter {letter} at position {position} violates restricted growth"
                )
            if letter > peak:
                peak = letter
        _store(self, "letters", letters)
        _store(self, "_peak", peak)

    @classmethod
    def _from_growth(cls, letters: tuple[int, ...], peak: int) -> RGFWord:
        # Caller guarantees a restricted growth word of plain ints with
        # this largest letter; skips validation.
        word = object.__new__(cls)
        _store(word, "letters", letters)
        _store(word, "_peak", peak)
        return word

    @property
    def max_letter(self) -> int:
        return self._peak  # type: ignore[attr-defined]

    @_lazy
    def _unreduced(self) -> tuple[int, ...] | None:
        """The values of the permutation whose reduced partition has this
        word, or None (see _unreduce)."""
        half = self._peak  # type: ignore[attr-defined]
        return _unreduce(self.letters, half) if 2 * half == len(self.letters) else None

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)


def _unreduce(word: tuple[int, ...], half: int) -> tuple[int, ...] | None:
    """The permutation p, as its values, whose matchstick partition
    reduce_perm(p) has this block-index word, or None if there is none.

    The word of reduce_perm(p), p of [n], is 1, ..., n followed by the
    inverse of p: it has 2n letters and n blocks.  The caller has tested
    that, in one comparison: half, the word's number of blocks (its largest
    letter), is half its length.  If the word then starts 1, ..., half,
    every block has its least element in the lower half, and the blocks
    are all pairs {i, p_i + n} iff the upper half is a permutation of
    1, ..., half.
    """
    if word[:half] != tuple(range(1, half + 1)):
        return None
    values = [0] * half
    for j, i in enumerate(word[half:], start=1):
        values[i - 1] = j
    # A repeated letter leaves the value of a missing one at 0.
    return None if 0 in values else tuple(values)


def restrict(sigma: SetPartition, subset: Iterable[int]) -> SetPartition:
    """Restriction of a partition to a subset of its ground set.

    The result is the partition of [#T] whose blocks are the standardized
    nonempty intersections of sigma's blocks with T.

    >>> restrict(SetPartition(((1, 3), (2, 4))), {1, 3, 4}).blocks
    ((1, 2), (3,))
    """
    order = sorted(set(_integers(subset, "subset elements")))
    n = sigma.n
    if order and (order[0] < 1 or order[-1] > n):
        e = next(e for e in order if not 1 <= e <= n)
        raise ValueError(f"element {e} is outside the ground set [{n}]")
    rank = {e: i for i, e in enumerate(order, start=1)}
    blocks = []
    for block in sigma.blocks:
        reduced = tuple([rank[e] for e in block if e in rank])
        if reduced:
            blocks.append(reduced)
    # Disjoint blocks differ in their first elements, so plain tuple order
    # is order by minimum.
    blocks.sort()
    return SetPartition._from_canonical(tuple(blocks), len(order))


def rgf_of(sigma: SetPartition) -> RGFWord:
    """Encode a partition as the word whose i-th letter is the index of the
    block containing i, blocks numbered 1, 2, ... by their minima."""
    # Numbering blocks by their minima makes the word a restricted growth
    # word whose largest letter is the number of blocks.
    return RGFWord._from_growth(sigma.word, len(sigma.blocks))


def partition_of_rgf(word: RGFWord) -> SetPartition:
    """Inverse of rgf_of: block j collects the positions carrying letter j."""
    blocks: dict[int, list[int]] = {}
    for position, letter in enumerate(word.letters, start=1):
        blocks.setdefault(letter, []).append(position)
    # Restricted growth numbers the blocks by their minima, so the blocks
    # come out canonical, and the word is the partition's own.
    return SetPartition._from_canonical(
        tuple(tuple(block) for block in blocks.values()), len(word.letters), word.letters
    )

"""Pure-Python search kernels.

Fallback implementations of the backtracking loops behind permpart.matchers.
The compiled extension permpart._kernels implements the same six functions
with identical semantics and identical search order; permpart._backend picks
whichever is available at import time.

Two search loops serve the three notions: one for permutations, and one
for partitions and words, whose ``ordered`` flag picks the word rule.  Each
takes a ``find`` flag: find returns the witness at the first complete match,
count counts every match.  The six public functions are thin entries to
these two loops.

Kernel conventions:

- inputs are plain tuples of ints; permutations come as their value words,
  set partitions as their block-index words (a restricted growth word whose
  i-th letter names the block containing i); a word pattern is a restricted
  growth word, a word text any word;
- returned witnesses are 1-based position tuples, always the
  lexicographically least solution, or None;
- every slot of the search picks positions left to right in increasing
  order, so the first complete match found is the lexicographically least;
- ``cancel`` is an optional zero-argument callable polled every few thousand
  search steps; returning True aborts the search with SearchCancelled;
- arguments are positional only: ``(text, pattern[, cancel])``;
- permutation values are assumed to fit a C int: these kernels do not
  check, the compiled ones raise OverflowError;
- bad word letters are named by the first one, reading the text's letters
  and then the pattern's in order: a letter below 1 raises ValueError("word
  letters must be at least 1"), one of 2**31 - 1 or more OverflowError("word
  letters must be below 2**31 - 1"), and a pattern letter above the running
  peak + 1 ValueError, as the pattern is no restricted growth word.

The kernels only search.  Past the trivial answers for an empty pattern or
one longer than its text, they rule out no match before searching: the
block-size and letter-count rejections are made by the callers in
permpart.matchers.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .errors import SearchCancelled

_POLL_MASK = (1 << 14) - 1

# The text's next-position table is skipped above this size (entries), and
# with it the order lookahead; the search stays correct, only less pruned.
_TABLE_LIMIT = 4_000_000

# Word letters stay below this, as the compiled kernels' C ints need.
_LETTER_LIMIT = 2**31 - 1
_NOT_GROWTH = "a word pattern must be a restricted growth word"

Cancel = Callable[[], bool] | None


def _poll(cancel: Cancel, ticks: int) -> None:
    if cancel is not None and ticks & _POLL_MASK == 0 and cancel():
        raise SearchCancelled("search aborted by cancellation signal")


def _trivial(find: bool, empty: bool):
    """The answer when no search is needed: the empty pattern occurs once,
    at no positions; a pattern longer than its text never occurs."""
    if find:
        return () if empty else None
    return 1 if empty else 0


def _order_bounds(pattern: Sequence[int]) -> tuple[list[int], list[int]]:
    """For each slot j, the earlier slot holding the nearest pattern value
    below (lo) and above (hi) pattern[j]; -1 when there is none.

    A partial selection is order isomorphic to the pattern prefix iff each
    new value lies strictly between the text values chosen for these two
    neighbor slots.
    """
    k = len(pattern)
    lo = [-1] * k
    hi = [-1] * k
    for j in range(k):
        for i in range(j):
            if pattern[i] < pattern[j] and (lo[j] < 0 or pattern[i] > pattern[lo[j]]):
                lo[j] = i
            if pattern[i] > pattern[j] and (hi[j] < 0 or pattern[i] < pattern[hi[j]]):
                hi[j] = i
    return lo, hi


def _perm_search(text: Sequence[int], pattern: Sequence[int], find: bool, cancel: Cancel):
    n, k = len(text), len(pattern)
    if k == 0 or k > n:
        return _trivial(find, k == 0)
    lo, hi = _order_bounds(pattern)
    chosen = [0] * k
    count = j = i = ticks = 0
    while True:
        ticks += 1
        _poll(cancel, ticks)
        if i > n - (k - j):
            if j == 0:
                return None if find else count
            j -= 1
            i = chosen[j] + 1
            continue
        v = text[i]
        if (lo[j] < 0 or text[chosen[lo[j]]] < v) and (
            hi[j] < 0 or v < text[chosen[hi[j]]]
        ):
            chosen[j] = i
            if j < k - 1:
                j += 1
            elif find:
                return tuple(c + 1 for c in chosen)
            else:
                count += 1
        i += 1


def perm_find(
    text: Sequence[int], pattern: Sequence[int], cancel: Cancel = None, /
) -> tuple[int, ...] | None:
    """Lexicographically least occurrence of the pattern permutation in the
    text permutation, as 1-based index tuple, or None."""
    return _perm_search(text, pattern, True, cancel)


def perm_count(text: Sequence[int], pattern: Sequence[int], cancel: Cancel = None, /) -> int:
    """Exact number of occurrences of the pattern permutation in the text."""
    return _perm_search(text, pattern, False, cancel)


def _next_positions(word: Sequence[int], width: int) -> list[int]:
    """Flat (len+1) x width table: entry [i*width + t-1] is the first
    position at or after i that holds letter t, or len(word)."""
    n = len(word)
    table = [n] * ((n + 1) * width)
    for i in range(n - 1, -1, -1):
        base = i * width
        table[base : base + width] = table[base + width : base + 2 * width]
        table[base + word[i] - 1] = i
    return table


def _reject_letters(text: Sequence[int], pattern: Sequence[int]) -> None:
    """Raise for the first bad letter, reading the text and then the
    pattern in order (see the module notes)."""
    for word, growth in ((text, False), (pattern, True)):
        peak = 0
        for letter in word:
            if letter < 1:
                raise ValueError("word letters must be at least 1")
            if letter >= _LETTER_LIMIT:
                raise OverflowError("word letters must be below 2**31 - 1")
            if growth and letter > peak + 1:
                raise ValueError(_NOT_GROWTH)
            peak = max(peak, letter)


def _pattern_slots(pattern: Sequence[int], lookahead: bool) -> tuple[list[bool], list[int]]:
    """For each slot j: is its letter new, and ahead[j], the last slot whose
    letter is bound once slot j is taken (j if none is, or if not
    lookahead).  Raises ValueError unless the pattern is a restricted growth
    word, whose letters 1..m first occur in that order."""
    last_slot = {letter: j for j, letter in enumerate(pattern)}
    is_new = []
    ahead = []
    peak = last = 0
    for j, letter in enumerate(pattern):
        if letter > peak + 1:
            raise ValueError(_NOT_GROWTH)
        is_new.append(letter > peak)
        if letter > peak:
            peak = letter
            last = max(last, last_slot[letter])
        ahead.append(last if lookahead and last > j else j)
    return is_new, ahead


def _word_search(
    text: Sequence[int], pattern: Sequence[int], ordered: bool, find: bool, cancel: Cancel
):
    """Both words arrive as letter tuples and the pattern is a restricted
    growth word, so its letters 1..m first occur in that order.  The search
    binds each pattern letter to a text letter at its first occurrence, and
    every later copy must match its binding.

    The notions differ only in which text letter a new pattern letter p may
    take.  Partitions (block-index words): the restriction of the text to
    positions T equals the pattern iff the subsequence at T flattens to the
    pattern word, so p takes a text block no other letter holds.  Words
    (``ordered``): the subsequence must value-standardize to the pattern, so
    the binding increases with the letter; as letters above p are not yet
    bound, p needs only a text letter above the one bound to p - 1.

    Order lookahead, for both notions: once slot j is taken, the letters up
    to the running peak are bound, and every later slot holding one of them
    needs a later copy of its text letter, in order.  Greedily placing each
    such slot at the next copy of its text letter, and each other slot at
    the next position, gives the least position every later slot can take;
    a slot placed where too few positions follow it rules the choice out.
    The check is necessary, so the search order, the witnesses and the
    counts stay those of the unpruned search.  It is at least as strong as
    counting, per bound letter, the copies left ahead in text and pattern.
    On a matchstick pair (the image of two permutations under the
    reduction) it is the order check of the permutation search.
    """
    n, k = len(text), len(pattern)
    if k == 0 or k > n:
        return _trivial(find, k == 0)
    nt = max(text)
    npat = max(pattern)
    if min(text) < 1 or min(pattern) < 1 or max(nt, npat) >= _LETTER_LIMIT:
        _reject_letters(text, pattern)
    text_next = _next_positions(text, nt) if (n + 1) * nt <= _TABLE_LIMIT else None
    is_new, ahead = _pattern_slots(pattern, text_next is not None)
    bound = [0] * (npat + 1)  # pattern letter -> text letter, 0 = unbound
    used = [False] * (nt + 1)  # text letters bound to some pattern letter
    chosen = [0] * k
    count = j = i = ticks = 0
    while True:
        ticks += 1
        _poll(cancel, ticks)
        if i > n - (k - j):
            if j == 0:
                return None if find else count
            j -= 1
            if is_new[j]:
                p = pattern[j]
                used[bound[p]] = False
                bound[p] = 0
            i = chosen[j] + 1
            continue
        t = text[i]
        p = pattern[j]
        if is_new[j]:
            ok = t > bound[p - 1] if ordered else not used[t]
        else:
            ok = t == bound[p]
        if ok and ahead[j] != j:
            # The order lookahead, inline: can slots j+1..ahead[j] still
            # take positions in order after i?  A slot whose letter is
            # bound jumps to the next copy of its text letter, any other to
            # the next position, and slot s fails past n - k + s.
            pos = i
            room = n - k + j
            for q in pattern[j + 1 : ahead[j] + 1]:
                room += 1
                b = t if q == p else bound[q]
                pos = text_next[(pos + 1) * nt + b - 1] if b else pos + 1
                if pos > room:
                    ok = False
                    break
        if ok:
            chosen[j] = i
            if j < k - 1:
                if is_new[j]:
                    bound[p] = t
                    used[t] = True
                j += 1
            elif find:
                return tuple(c + 1 for c in chosen)
            else:
                count += 1
        i += 1


def part_find(
    text: Sequence[int], pattern: Sequence[int], cancel: Cancel = None, /
) -> tuple[int, ...] | None:
    """Lexicographically least subset T of the text partition's ground set
    whose restriction equals the pattern partition, or None."""
    return _word_search(text, pattern, False, True, cancel)


def part_count(text: Sequence[int], pattern: Sequence[int], cancel: Cancel = None, /) -> int:
    """Exact number of subsets whose restriction equals the pattern."""
    return _word_search(text, pattern, False, False, cancel)


def rgf_find(
    text: Sequence[int], pattern: Sequence[int], cancel: Cancel = None, /
) -> tuple[int, ...] | None:
    """Lexicographically least position set at which the text word's
    subsequence value-standardizes to the pattern word, or None."""
    return _word_search(text, pattern, True, True, cancel)


def rgf_count(text: Sequence[int], pattern: Sequence[int], cancel: Cancel = None, /) -> int:
    """Exact number of position sets whose subsequence value-standardizes to
    the pattern word."""
    return _word_search(text, pattern, True, False, cancel)

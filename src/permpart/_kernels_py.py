"""Pure-Python search kernels.

Fallback implementations of the backtracking loops behind permpart.matchers
and of the census walk behind permpart.oracle.  The compiled extension
permpart._kernels implements the same eight functions with identical
semantics and identical search order; permpart._backend picks whichever is
available at import time.

Two search loops serve the three notions: one for permutations, and one
for partitions and words, whose ``ordered`` flag picks the word rule.  Each
takes a ``find`` flag: find returns the witness at the first complete match,
count counts every match.  The permutation count steps through its matches
only down to their second-to-last entry, and counts the last entry's
positions in one pass (see _perm_search).  The six search functions are
thin entries to these two loops.  The word loop skips positions no slot
can take: an order lookahead, jumps of bound slots to the next copy of
their text letter, and stops where too few copies of a slot's letter
remain (see _word_search).  The next copy is read from each letter's
positions, O(n) in all.  part_avoiders and rgf_avoiders count a census's
avoiders below a prefix (see _avoiders), asking the word loop's find of
each child that needs it, anchored at the child's last letter, on a plan
made once per walk for the pattern and once per parent for the text.

Kernel conventions:

- inputs are plain tuples of ints; permutations come as their value words,
  set partitions as their block-index words (a restricted growth word whose
  i-th letter names the block containing i); a word pattern is a restricted
  growth word, a word text any word whose letters run from 1 to its length;
- returned witnesses are 1-based position tuples, always the
  lexicographically least solution, or None;
- every slot of the search picks positions left to right in increasing
  order, so the first complete match found is the lexicographically least;
- ``cancel`` is an optional zero-argument callable polled every 16,384
  search steps; returning True aborts the search with SearchCancelled.
  Signals stop every loop, with or without it: here the interpreter
  handles them, and the compiled kernels check them at each poll, before
  ``cancel``, so Ctrl-C raises KeyboardInterrupt within one poll interval;
- arguments are positional only: ``(text, pattern[, cancel])`` for the
  searches, ``(prefix, pattern, n)`` for the census walk, whose prefix is
  checked as a pattern is, with its own message, and whose n is an
  integer from the prefix's length up to 2**31 - 2;
- a value that is not an integer raises TypeError, as in the compiled
  kernels, and any other integer type is read through ``operator.index``;
- permutation values are assumed to fit a C int: these kernels do not
  check, the compiled ones raise OverflowError;
- a permutation pattern must have distinct values, or ValueError, raised
  after any TypeError of either word; its text may hold any ints, repeats
  included, and an occurrence is a subsequence order isomorphic to it;
- bad word letters are named by the first one, reading the text's letters
  and then the pattern's in order: a letter below 1 raises ValueError("word
  letters must be at least 1"), one of 2**31 - 1 or more OverflowError("word
  letters must be below 2**31 - 1"), a text letter above the text's length
  ValueError("word text letters must be at most the text's length"), so
  every list of a search is sized by the text's length, and a pattern
  letter above the running peak + 1 ValueError, as the pattern is no
  restricted growth word.

Past the trivial answers for an empty pattern or one longer than its
text, the word kernels only search.  The permutation kernels first run a
pre-pass (see _perm_search): a pattern whose longest increasing or
decreasing subsequence is longer than the text's is absent, which patience
piles tell in O(n log k), without a step of the search and without polling
``cancel``.  The block-size and letter-count rejections are made by the
callers in permpart.matchers.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from typing import Callable, Sequence

from .errors import SearchCancelled

# A search polls ``cancel`` on every tick that is a multiple of 16,384,
# tested inline in each loop; the permutation loop, whose count may add
# several ticks at once, polls once its ticks reach the next multiple.
_POLL_MASK = (1 << 14) - 1
# A permutation count's pass over m positions adds m >> _PASS_SHIFT ticks.
_PASS_SHIFT = 6
_CANCELLED = "search aborted by cancellation signal"

# Word letters stay below this, as the compiled kernels' C ints need.
_LETTER_LIMIT = 2**31 - 1
_NOT_GROWTH = "a word pattern must be a restricted growth word"
_NOT_PREFIX = "a prefix must be a restricted growth word"

Cancel = Callable[[], bool] | None


def _trivial(find: bool, empty: bool):
    """The answer when no search is needed: the empty pattern occurs once,
    at no positions; a pattern longer than its text never occurs."""
    if find:
        return () if empty else None
    return 1 if empty else 0


def _order_bounds(pattern: Sequence[int]) -> tuple[list[int], list[int]]:
    """For each slot j of a pattern with distinct values, the earlier slot
    holding the nearest pattern value below (lo) and above (hi) pattern[j],
    or -1 when there is none.

    A partial selection is order isomorphic to the pattern prefix iff each
    new value lies strictly between the text values chosen for these two
    neighbor slots.
    """
    lo = []
    hi = []
    values = []  # the values of the slots before j, ascending
    slots = []  # the slot holding each
    for j, v in enumerate(pattern):
        r = bisect_left(values, v)
        lo.append(slots[r - 1] if r else -1)
        hi.append(slots[r] if r < len(values) else -1)
        values.insert(r, v)
        slots.insert(r, j)
    return lo, hi


def _plain_ints(
    text: Sequence[int], pattern: Sequence[int]
) -> tuple[Sequence[int], Sequence[int]]:
    """Both words as plain ints, as the compiled kernels read them: the
    words themselves when the sum of all their values is an int, and
    otherwise their values read through operator.index, the text's first,
    which raises TypeError for the first one that is not an integer.  A
    float, a Fraction, a Decimal or an integer type that is no int makes
    the sum something else, or raises."""
    try:
        if type(sum(text, sum(pattern))) is int:
            return text, pattern
    except TypeError:
        pass
    return tuple(map(operator.index, text)), tuple(map(operator.index, pattern))


def _longest_runs(values: Sequence[int], up: int, down: int) -> tuple[int, int]:
    """The lengths of the longest strictly increasing and strictly
    decreasing subsequences of values, each counted up to its cap, up and
    down, by patience piles (Fredman 1975).  The pass stops once both caps
    are reached, so the piles never hold more than up + down entries."""
    rise: list[int] = []  # rise[r]: the least last value of a rising run of r + 1
    fall: list[int] = []  # fall[r]: minus the largest last value of a falling run of r + 1
    a = b = 0  # the pile counts
    for v in values:
        if a < up:
            r = bisect_left(rise, v)
            if r == a:
                rise.append(v)
                a += 1
            else:
                rise[r] = v
        if b < down:
            r = bisect_left(fall, -v)
            if r == b:
                fall.append(-v)
                b += 1
            else:
                fall[r] = -v
        elif a == up:  # both caps reached
            break
    return a, b


def _perm_search(text: Sequence[int], pattern: Sequence[int], find: bool, cancel: Cancel):
    """The permutation loop, behind one pre-pass.  An occurrence is order
    isomorphic to the pattern, so it carries the pattern's longest
    increasing and decreasing subsequences into the text: a text whose own
    fall short holds no match, and is answered without a search or a poll.

    The loop's slots take positions left to right, each between the values
    at its two order bounds (see _order_bounds).  A find steps every slot.
    A count with k >= 2 steps down to slot k - 2 only: each time that slot
    takes position i, the last slot's matches are the positions after i
    whose values lie strictly between its bounds, one or two, counted in
    one pass.
    Each step is one tick, and a pass over m positions adds m >>
    _PASS_SHIFT, so that no poll interval reads more than about 2**20
    positions in passes; the loop polls once its ticks reach the next
    multiple of 16,384.  The compiled kernel counts alike, so both backends
    poll equally often."""
    n, k = len(text), len(pattern)
    if k == 0 or k > n:
        return _trivial(find, k == 0)
    text, pattern = _plain_ints(text, pattern)
    if len(set(pattern)) != k:
        raise ValueError("a permutation pattern must have distinct values")
    runs = _longest_runs(pattern, k, k)
    if _longest_runs(text, *runs) != runs:
        return None if find else 0
    lo, hi = _order_bounds(pattern)
    last = k - 1 if find else k - 2  # the last slot stepped; a count of k = 1 counts at slot 0
    above, below = lo[-1], hi[-1]
    chosen = [0] * k
    count = j = i = ticks = 0
    due = _POLL_MASK + 1  # the tick of the next poll
    while True:
        ticks += 1
        if ticks >= due:
            due = (ticks | _POLL_MASK) + 1
            if cancel is not None and cancel():
                raise SearchCancelled(_CANCELLED)
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
            if j < last:
                j += 1
            elif find:
                return tuple(c + 1 for c in chosen)
            elif j == k - 1:
                count += 1
            else:  # the last slot's pass
                ticks += (n - 1 - i) >> _PASS_SHIFT
                if below < 0:
                    low = text[chosen[above]]
                    for u in text[i + 1 :]:
                        if u > low:
                            count += 1
                elif above < 0:
                    high = text[chosen[below]]
                    for u in text[i + 1 :]:
                        if u < high:
                            count += 1
                else:
                    low, high = text[chosen[above]], text[chosen[below]]
                    for u in text[i + 1 :]:
                        if low < u < high:
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


def _reject_letters(*words: tuple[Sequence[int], str | None]) -> None:
    """Raise for the first bad letter, reading the words in order (see the
    module notes).  Each comes with the message for a letter above its
    running peak + 1, or None for a text, whose letters may not exceed its
    length."""
    for word, growth in words:
        peak = 0
        for letter in map(operator.index, word):
            if letter < 1:
                raise ValueError("word letters must be at least 1")
            if letter >= _LETTER_LIMIT:
                raise OverflowError("word letters must be below 2**31 - 1")
            if growth is None and letter > len(word):
                raise ValueError("word text letters must be at most the text's length")
            if growth and letter > peak + 1:
                raise ValueError(growth)
            peak = max(peak, letter)


def _pattern_slots(pattern: Sequence[int], anchor: int = 0) -> tuple[list[bool], list[int], int]:
    """For each slot j: is its letter new; and ahead[j], the last slot whose
    letter is bound once slot j is taken (j if none is); then the largest
    letter.  anchor, unless 0, is a letter bound before the search (see
    _avoiders): its slots are never new, and count as bound from slot 0.
    Raises for the first bad letter (see _reject_letters) unless the pattern
    is a restricted growth word, whose letters 1..m first occur in that
    order."""
    last_slot = dict(zip(pattern, range(len(pattern))))  # later slots overwrite
    is_new = []
    ahead = []
    peak = 0
    last = last_slot.get(anchor, 0)
    for j, letter in enumerate(pattern):
        if letter > peak:
            if letter != peak + 1:
                _reject_letters((pattern, _NOT_GROWTH))
            peak = letter
            if last_slot[letter] > last:
                last = last_slot[letter]
            is_new.append(letter != anchor)
        else:
            if letter < 1:
                _reject_letters((pattern, _NOT_GROWTH))
            is_new.append(False)
        ahead.append(last if last > j else j)
    return is_new, ahead, peak


def _slot_stops(text: Sequence[int], nt: int, pattern: Sequence[int], npat: int) -> list[int]:
    """For each slot j, the last text position it may take: n - k + j, past
    which too few positions follow, or reach[c - 1], if earlier, where c
    counts the copies of the slot's letter at or after j in the pattern.
    reach[c - 1] is the last text position whose letter still has c copies
    from there on, or -1 if no letter has c copies; every copy of the
    slot's letter takes a copy of one text letter, in order.  The text is
    read from the back only as far as the slots ask: a letter whose count
    passes every earlier count there sets the next entry of reach.  nt and
    npat are the largest text and pattern letters."""
    n, k = len(text), len(pattern)
    stop = list(range(n - k, n))
    left = [0] * (npat + 1)  # each pattern letter's copies from slot j on
    seen = [0] * (nt + 1)  # each text letter's copies from position i on
    reach = []
    i = n
    for j in range(k - 1, -1, -1):
        p = pattern[j]
        c = left[p] = left[p] + 1
        if c > 1:
            while len(reach) < c and i:
                i -= 1
                t = text[i]
                seen[t] += 1
                if seen[t] > len(reach):
                    reach.append(i)
            r = reach[c - 1] if c <= len(reach) else -1
            if r < stop[j]:
                stop[j] = r
    return stop


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

    Two more rules skip positions a slot can never take, so they keep the
    search order, the witnesses and the counts too.  Jump: a slot whose
    letter is bound goes straight to the next copy of its text letter,
    found by bisection in that letter's positions, instead of scanning to
    it.  Stop: the c copies of a slot's letter from that slot on all take
    copies of one text letter, in order, so the slot stops at the last text
    position whose letter still has c copies from there on, if that comes
    before n - k + j (see ``_slot_stops``).
    Each step of the loop is one tick, whatever it skips, and the compiled
    kernel counts alike, so both backends poll equally often.
    """
    n, k = len(text), len(pattern)
    if k == 0 or k > n:
        return _trivial(find, k == 0)
    try:
        text, pattern = _plain_ints(text, pattern)
    except TypeError:
        _reject_letters((text, None), (pattern, _NOT_GROWTH))
    nt = max(text)
    if min(text) < 1 or nt > n or nt >= _LETTER_LIMIT:
        _reject_letters((text, None), (pattern, _NOT_GROWTH))
    is_new, ahead, npat = _pattern_slots(pattern)
    return _word_loop(
        text, pattern, is_new, ahead, _letter_runs(text, nt),
        _slot_stops(text, nt, pattern, npat), [0] * (npat + 1), [False] * (nt + 1), 0, ordered, find, cancel,
    )


def _letter_runs(text: Sequence[int], nt: int) -> list[list[int]]:
    """Each letter's positions in the text, up to the letter nt, then the
    text's length: the first copy of letter b at or after x is
    where[b][bisect_left(where[b], x)]."""
    where = [[] for _ in range(nt + 1)]
    for i, t in enumerate(text):
        where[t].append(i)
    n = len(text)
    for run in where:
        run.append(n)
    return where


def _word_loop(
    text: Sequence[int], pattern: Sequence[int], is_new: list[bool], ahead: list[int],
    where: list[list[int]], stop: list[int], bound: list[int], used: list[bool],
    anchor: int, ordered: bool, find: bool, cancel: Cancel,
):
    """The word loop of _word_search, on the plan of the pattern and the
    text.  bound (pattern letter -> text letter, 0 = unbound) and used (the
    text letters bound) start as the caller sets them: the census binds its
    anchor in advance, and in words a letter below the anchor must take a
    text letter below the anchor's (see _avoiders)."""
    n, k = len(text), len(pattern)
    chosen = [0] * k
    count = j = i = ticks = 0
    while True:
        ticks += 1
        if not ticks & _POLL_MASK and cancel is not None and cancel():
            raise SearchCancelled(_CANCELLED)
        if not is_new[j]:
            run = where[bound[pattern[j]]]
            i = run[bisect_left(run, i)]
        if i > stop[j]:
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
        # A bound slot's jump has already found a copy of its text letter.
        ok = not is_new[j] or (
            t > bound[p - 1] and (p > anchor or t < bound[anchor]) if ordered else not used[t]
        )
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
                pos = where[b][bisect_left(where[b], pos + 1)] if b else pos + 1
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


def _avoiders(prefix: Sequence[int], pattern: Sequence[int], n: int, ordered: bool) -> int:
    """How many restricted growth words of length n extend the prefix and
    avoid the pattern, read as partitions or, when ordered, as words; none
    if the prefix contains it.

    A word's prefix of length m is its restriction to [m] (Sagan's
    restriction notion), so containment is hereditary under prefixes: the
    walk extends only avoiders, each by one of 1..peak + 1, depth first
    from a stack of pending prefixes, each kept with its peak and the
    copies of each letter; a child of length n is counted, not pushed.
    The parent avoids, so a child contains the pattern only through its
    last position; that needs the child to have at least the pattern's
    largest letter m (a restricted growth word has every letter up to its
    peak), at least the pattern's length k, and at least as many copies of
    its last letter as the pattern has of its own.  For 1, 2, ..., k
    (m == k) and 1, ..., 1 (m == 1) these tests are the whole rule: an
    avoiding parent has fewer than k distinct letters, or fewer than k
    copies of each, so its child contains the pattern exactly when it
    reaches k of them.  Any other pattern asks the word loop once per child
    that passes them, for the pattern's first k - 1 slots in the parent,
    with the pattern's last letter q, the anchor, bound to the child's last
    letter l: no other letter may take l in partitions, and in words the
    letters below q take text letters below l.  The pattern's plan is made
    once per walk, the parent's letter positions and stops once per parent.
    The prefix itself gets a full find.
    """
    n = operator.index(n)
    if n >= _LETTER_LIMIT:
        raise OverflowError("n must be below 2**31 - 1")
    _reject_letters((prefix, _NOT_PREFIX), (pattern, _NOT_GROWTH))
    if n < len(prefix):
        raise ValueError("n must be at least the prefix's length")
    prefix, pattern = map(tuple, _plain_ints(prefix, pattern))
    if not pattern or _word_search(prefix, pattern, ordered, True, None) is not None:
        return 0
    k, m, q = len(pattern), max(pattern), pattern[-1]
    copies, exact = pattern.count(q), m == k or m == 1
    if n == len(prefix):
        return 1
    head = pattern[:-1]
    is_new, ahead, _ = _pattern_slots(head, q)
    peak = max(prefix, default=0)
    seen = [prefix.count(t) for t in range(peak + 2)]  # the copies of 0..peak + 1
    count, stack = 0, [(prefix, peak, seen)]
    while stack:
        word, peak, seen = stack.pop()
        length = len(word) + 1
        where = None
        for letter in range(1, peak + 2):
            top = peak if letter <= peak else letter
            if top >= m and length >= k and seen[letter] + 1 >= copies:
                if exact:
                    continue
                if where is None:
                    where = _letter_runs(word, peak + 1)
                    stop = _slot_stops(word, peak, head, m)
                bound = [0] * (m + 1)
                bound[q] = letter
                used = [False] * (peak + 2)
                used[letter] = True
                if _word_loop(word, head, is_new, ahead, where, stop, bound, used, q, ordered, True, None):
                    continue
            if length == n:
                count += 1
            else:
                more = seen.copy() if letter <= peak else seen + [0]
                more[letter] += 1
                stack.append((word + (letter,), top, more))
    return count


def part_avoiders(prefix: Sequence[int], pattern: Sequence[int], n: int, /) -> int:
    """How many restricted growth words of length n extend the prefix and,
    read as partitions, avoid the pattern partition."""
    return _avoiders(prefix, pattern, n, False)


def rgf_avoiders(prefix: Sequence[int], pattern: Sequence[int], n: int, /) -> int:
    """How many restricted growth words of length n extend the prefix and
    avoid the pattern word."""
    return _avoiders(prefix, pattern, n, True)

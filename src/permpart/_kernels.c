/* Compiled search kernels.
 *
 * Twin of permpart._kernels_py: the same eight functions, the same pruning
 * and the same search order (so witnesses, counts and cancel polls are
 * identical), with the loops in C.  Permutations have one search loop, and
 * partitions and words share another that an ordered flag switches to the
 * word rule; a find entry stops at the first complete match and returns the
 * witness, a count entry counts every match.  A permutation count steps
 * through its matches only down to slot k - 2: each time that slot takes a
 * position, one pass counts the later positions that the last slot could take
 * (see perm_walk).  A word count steps only down to its tail slot, and one
 * pass counts the rest (see complete): the slots after the last new letter by
 * suffix sums over their text letters' copies, read through each position's
 * previous copy and kept in a buffer indexed by position (see tail_count), or
 * a new last letter by a scan.  A word count past 2**64 - 1 raises
 * OverflowError on both backends; the suffix sums saturate, and none of them
 * exceeds the count unless it overflows too.  See the pure module for the
 * algorithm notes: the order lookahead of the word search, the jumps of its
 * bound slots to the next copy of their text letter, and the stops where too
 * few copies of a slot's letter remain.  The next copy is read from O(n)
 * links, each position's next copy of its own letter, starting from the copy
 * that the slot's letter last took (see next_copy).  The two search loops run
 * in perm_walk, the permutation finds and counts, and in walk, the word
 * searches; each returns at every poll, so no call into Python sits in a loop
 * and the compiler can keep its state in registers; perm_search drives
 * perm_walk, and search drives walk, for the word searches and for each find
 * of the census walk, which tests a child by one find anchored at its last
 * letter (see anchored), on a plan made once per walk for the pattern and
 * once per parent for the text.  Every loop, the census walk's too, calls
 * poll every POLL_MASK + 1 steps, the one place where a kernel returns to
 * Python: pending signals first (Ctrl-C raises KeyboardInterrupt), then
 * cancel.  A count's pass is one step, plus one for every 2**PASS_SHIFT
 * positions it reads, so that no poll interval reads more than about 2**20
 * positions in passes.
 * Past the trivial answers for an empty pattern or one longer than its
 * text, the word kernels only search.  The permutation kernels first run a
 * pre-pass: a pattern whose longest increasing or decreasing subsequence is
 * longer than the text's is absent, which patience piles tell in O(n log
 * k), with no step and no poll of cancel (see longest_runs).  The
 * block-size and letter-count rejections live in permpart.matchers.
 * part_avoiders and rgf_avoiders walk the census tree of permpart.oracle
 * (see count_avoiders) and take (prefix, pattern, n): the prefix is checked
 * as a pattern is, with its own message, and n must be an integer from the
 * prefix's length up to 2**31 - 2.  The searches take (text, pattern[,
 * cancel]).  Arguments are positional only.  A value that is not an
 * integer raises TypeError, on both backends.  Permutation values
 * must fit a C int (OverflowError; the pure kernels assume it), and a
 * permutation pattern must have distinct values (ValueError, after any
 * TypeError of either word); its text may repeat values.  Word
 * letters run from 1 to 2**31 - 2, and the first bad letter, reading the
 * text and then the pattern in order, names the fault: below 1 ValueError,
 * 2**31 - 1 or more OverflowError, a text letter above the text's length
 * ValueError, so every array of a search is sized by the text's length, and
 * a pattern letter above the running peak + 1 ValueError (no restricted
 * growth word).  Plain CPython API: build it with any C compiler against
 * the interpreter's headers.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define POLL_MASK ((1 << 14) - 1)
#define PASS_SHIFT 6
#define NOT_GROWTH "a word pattern must be a restricted growth word"
#define NOT_PREFIX "a prefix must be a restricted growth word"

static PyObject *SearchCancelled;

/* One call's arguments, (text, pattern[, cancel]), and the two lengths. */
typedef struct {
    PyObject *text, *pattern, *cancel;
    Py_ssize_t n, k;
} Call;

static int parse_call(PyObject *const *args, Py_ssize_t nargs, Call *c) {
    if (nargs < 2 || nargs > 3) {
        PyErr_SetString(PyExc_TypeError, "kernels take (text, pattern, cancel=None, /)");
        return -1;
    }
    c->text = args[0];
    c->pattern = args[1];
    c->cancel = nargs == 3 ? args[2] : Py_None;
    if ((c->n = PyObject_Length(c->text)) < 0 || (c->k = PyObject_Length(c->pattern)) < 0)
        return -1;
    return 0;
}

/* The scratch arrays of one call, freed together.  count_avoiders takes the
 * most: the prefix, pw, the word, its copy counts and peaks, the next-copy
 * links, slot, chosen, bound and used; a word count takes the previous-copy
 * links and the suffix sums besides its search's seven. */
#define ARENA_BLOCKS 10
typedef struct {
    void *block[ARENA_BLOCKS];
    int used;
} Arena;

static void *fail(PyObject *type, const char *message) {
    PyErr_SetString(type, message);
    return NULL;
}

static void *take(Arena *a, Py_ssize_t count, size_t size) {
    void *p;
    if (a->used == ARENA_BLOCKS)
        return fail(PyExc_SystemError, "kernel arena is full");
    p = PyMem_Calloc(count > 0 ? (size_t)count : 1, size);
    return p == NULL ? PyErr_NoMemory() : (a->block[a->used++] = p);
}

static void release(Arena *a) {
    while (a->used > 0)
        PyMem_Free(a->block[--a->used]);
}

/* A search's answer: for find, the 1-based witness of the first match or
 * None; for count, the number of matches. */
static PyObject *answer(int find, unsigned long long count, const Py_ssize_t *chosen, Py_ssize_t k) {
    PyObject *result;
    if (!find)
        return PyLong_FromUnsignedLongLong(count);
    if (count == 0)
        Py_RETURN_NONE;
    result = PyTuple_New(k);
    for (Py_ssize_t a = 0; result != NULL && a < k; a++) {
        PyObject *pos = PyLong_FromSsize_t(chosen[a] + 1);
        if (pos == NULL)
            Py_CLEAR(result);
        else
            PyTuple_SET_ITEM(result, a, pos);
    }
    return result;
}

/* Copy a sequence of n ints.  For a word (peak given), the largest letter is
 * stored in *peak, and the first bad letter decides the error: below 1 (past
 * a C long too), at least INT_MAX (the largest letter + 1 must fit an int),
 * then, for a text (no growth message), above n, or, for a restricted growth
 * word (growth, the message then), above the running peak + 1.  A
 * permutation value must fit a C int.  The items are read from a tuple
 * snapshot, which an item's __index__ cannot shrink. */
static int *read_ints(Arena *a, PyObject *seq, Py_ssize_t n, int *peak, const char *growth) {
    PyObject *items = PySequence_Tuple(seq);
    int *out = NULL, over;
    if (items != NULL && PyTuple_GET_SIZE(items) != n)
        PyErr_SetString(PyExc_ValueError, "kernel input changed length");
    else if (items != NULL)
        out = take(a, n, sizeof(int));
    for (Py_ssize_t i = 0; out != NULL && i < n; i++) {
        long v = PyLong_AsLongAndOverflow(PyTuple_GET_ITEM(items, i), &over);
        if (over != 0)
            v = over < 0 ? LONG_MIN : LONG_MAX;
        if (v == -1 && PyErr_Occurred())
            out = NULL;
        else if (peak == NULL && (v < INT_MIN || v > INT_MAX))
            out = fail(PyExc_OverflowError, "kernel input does not fit a C int");
        else if (peak != NULL && v < 1)
            out = fail(PyExc_ValueError, "word letters must be at least 1");
        else if (peak != NULL && v >= INT_MAX)
            out = fail(PyExc_OverflowError, "word letters must be below 2**31 - 1");
        else if (peak != NULL && growth == NULL && v > n)
            out = fail(PyExc_ValueError, "word text letters must be at most the text's length");
        else if (growth != NULL && v - 1 > *peak)
            out = fail(PyExc_ValueError, growth);
        else {
            out[i] = (int)v;
            if (peak != NULL && v > *peak)
                *peak = (int)v;
        }
    }
    Py_XDECREF(items);
    return out;
}

/* The one place where a kernel loop returns to Python, which each loop
 * reaches every POLL_MASK + 1 steps (the callers test the mask): pending
 * signals first, so a handler that raises wins over SearchCancelled, then
 * cancel unless it is None.  -1, with an exception set, aborts. */
static int poll(PyObject *cancel) {
    if (PyErr_CheckSignals() < 0)
        return -1;
    if (cancel == Py_None)
        return 0;
    PyObject *r = PyObject_CallNoArgs(cancel);
    int stop = r == NULL ? -1 : PyObject_IsTrue(r);
    Py_XDECREF(r);
    if (stop > 0)
        PyErr_SetString(SearchCancelled, "search aborted by cancellation signal");
    return stop ? -1 : 0;
}

/* Fill the next-copy links of a word of n letters up to width, a block of
 * n + width + 1 ints: succ[i], the next position after i that holds the
 * letter at i, or n; then head[t], the first position of letter t, or n,
 * which the backward pass fills on its way. */
static void next_links(int *succ, const int *word, Py_ssize_t n, int width) {
    int *head = succ + n;
    for (int t = 0; t <= width; t++)
        head[t] = (int)n;
    for (Py_ssize_t i = n - 1; i >= 0; i--) {
        succ[i] = head[word[i]];
        head[word[i]] = (int)i;
    }
}

/* The previous-copy links of a word, a block of n + width + 1 ints: pred[i],
 * the last position before i that holds the letter at i, or -1; then
 * last[t], the last position of letter t, or -1. */
static void prev_links(int *pred, const int *word, Py_ssize_t n, int width) {
    int *last = pred + n;
    for (int t = 0; t <= width; t++)
        last[t] = -1;
    for (Py_ssize_t i = 0; i < n; i++) {
        pred[i] = last[word[i]];
        last[word[i]] = (int)i;
    }
}

/* The first position at or after x that holds the letter at position from,
 * for from < x, or n: the links from there on, and the closer from is to x,
 * the fewer. */
static inline Py_ssize_t next_copy(const int *succ, Py_ssize_t from, Py_ssize_t x) {
    Py_ssize_t pos = succ[from];
    while (pos < x)
        pos = succ[pos];
    return pos;
}

/* One pattern slot of the word search.  stop: the last text position the
 * slot may take.  ahead: the last slot the order lookahead walks to once it
 * is taken, or the slot itself when there is none.  is_new: its letter first
 * occurs here; otherwise its letter is bound, and it goes straight to the
 * next copy of its text letter, after the copy at prev, the slot before it
 * with the same letter.  copies: the copies of its letter from here on. */
typedef struct {
    Py_ssize_t stop, ahead, prev;
    int is_new, copies;
} Slot;

/* A search between two polls, a permutation search (perm_walk, which reads
 * tw, lo, hi, chosen, n, k, last and find) or a word search (walk).  i, j,
 * ticks and count carry over from one run of the loop to the next.  last:
 * the last slot that the loop steps.  anchor: a pattern letter bound before
 * the word search starts, or 0 (see anchored).  pred, sums, reads and over
 * serve a word count's passes (see complete). */
typedef struct {
    const int *tw, *pw;
    const Py_ssize_t *lo, *hi;
    int *succ, *pred, *bound, *used;
    Slot *slot;
    Py_ssize_t *chosen, n, k, last, i, j, ticks, reads;
    unsigned long long count, *sums;
    int ordered, find, anchor, over;
} Walk;

/* The order lookahead of _word_search: slot j takes text position i, with
 * text letter t for pattern letter p.  Can slots j+1..last still take
 * positions in order?  A slot whose letter is bound jumps to the next
 * occurrence of its text letter, any other slot to the next position, and
 * slot s fails past n - k + s, where too few positions are left after it.
 * The positions go into chosen, from j on, which the search overwrites
 * before it reads them, so each jump starts at its prev slot's copy.
 * Kept out of line: most accepted slots never call it. */
Py_NO_INLINE static int fits_ahead(const Walk *w, Py_ssize_t j, Py_ssize_t last, Py_ssize_t i, int p, int t) {
    const int *pw = w->pw, *bound = w->bound;
    Py_ssize_t n = w->n, k = w->k, *at = w->chosen;
    at[j] = i;
    for (Py_ssize_t s = j + 1, pos = i; s <= last; s++) {
        int b = pw[s] == p ? t : bound[pw[s]];
        pos = b ? next_copy(w->succ, at[w->slot[s].prev], pos + 1) : pos + 1;
        at[s] = pos;
        if (pos > n - k + s)
            return 0;
    }
    return 1;
}

/* The pattern's part of the slots of w, for its w->k slots: prev, is_new,
 * ahead and copies; see _pattern_slots in the pure module.  np is the
 * largest pattern letter, and q, unless 0, a letter bound before the search:
 * its slots are never new, the first one jumps from the virtual slot k,
 * whose chosen entry the caller points at its text letter's head link, and
 * the lookahead counts them from slot 0.  bound serves as scratch and is
 * left zeroed. */
static void plan_pattern(const Walk *w, int np, int q) {
    const int *pw = w->pw;
    int *bound = w->bound, peak = 0;
    Slot *slot = w->slot;
    Py_ssize_t k = w->k, j, last;
    /* bound[p]: the last slot of letter p, so far. */
    bound[q] = (int)k;
    for (j = 0; j < k; j++) {
        slot[j].prev = bound[pw[j]];
        bound[pw[j]] = (int)j;
    }
    last = q && bound[q] < k ? bound[q] : 0;
    for (j = 0; j < k; j++) {
        slot[j].is_new = pw[j] > peak && pw[j] != q;
        if (pw[j] > peak) {
            peak = pw[j];
            last = bound[peak] > last ? bound[peak] : last;
        }
        slot[j].ahead = last > j ? last : j;
    }
    memset(bound, 0, (size_t)(np + 1) * sizeof(int));
    for (j = k - 1; j >= 0; j--)
        slot[j].copies = ++bound[pw[j]];
    memset(bound, 0, (size_t)(np + 1) * sizeof(int));
}

/* The text's part: the next-copy links of the first n letters of w->tw, up
 * to the letter nt, and each slot's stop; see _slot_stops in the pure
 * module.  chosen serves as scratch, and used, zero between searches, as
 * scratch that is left zeroed. */
static void plan_text(Walk *w, Py_ssize_t n, int nt) {
    const int *tw = w->tw;
    int *used = w->used;
    Slot *slot = w->slot;
    Py_ssize_t *chosen = w->chosen, k = w->k, j, i, top = 0, most = 0;
    w->n = n;
    next_links(w->succ, tw, n, nt);
    for (j = 0; j < k; j++)
        most = slot[j].copies > most ? slot[j].copies : most;
    /* chosen[c-1], for c up to top: the last text position whose letter has
     * c copies from there on.  used counts each letter's copies from the
     * back; a count past top is one past it. */
    for (i = n - 1; i >= 0 && top < most; i--)
        if (++used[tw[i]] > top)
            chosen[top++] = i;
    for (j = 0; j < k; j++) {
        Py_ssize_t reach = slot[j].copies > top ? -1 : chosen[slot[j].copies - 1];
        slot[j].stop = reach < n - k + j ? reach : n - k + j;
    }
    memset(used, 0, (size_t)(nt + 1) * sizeof(int));
}

/* a + b, or ULLONG_MAX with w->over set when it does not fit. */
static inline unsigned long long add_or_saturate(Walk *w, unsigned long long a, unsigned long long b) {
    if (a + b < a) {
        w->over = 1;
        return ULLONG_MAX;
    }
    return a + b;
}

/* The runs of a count's bound tail, slots from to k - 1, each placed by
 * fits_ahead at the first copy of its text letter after the slot before,
 * in chosen; see _tail_count in the pure module.  From the last slot back,
 * sums[x], for each copy x of a slot's letter from its greedy place on,
 * becomes the runs of that slot and the later ones that start at or after
 * x: the sum, over those copies, of the next slot's sums at its first copy
 * after them, which y reaches by walking that slot's copies down alongside.
 * When two slots in a row share a letter, y meets x, whose entry the next
 * slot's sums hold until x's own replaces it.  Each slot's copies are one
 * read each (w->reads). */
Py_NO_INLINE static unsigned long long tail_count(Walk *w, Py_ssize_t from) {
    const int *tw = w->tw, *pred = w->pred;
    const Py_ssize_t *at = w->chosen;
    unsigned long long *sums = w->sums, run, next, acc = 0;
    Py_ssize_t n = w->n, k = w->k, reads = 0, s, x, y;
    for (s = k - 1; s >= from; s--) {
        y = s + 1 < k ? pred[n + tw[at[s + 1]]] : -1;
        run = s + 1 < k ? 0 : 1;
        acc = 0;
        for (x = pred[n + tw[at[s]]]; x >= at[s]; x = pred[x]) {
            while (y > x) {
                run = sums[y];
                y = pred[y];
            }
            next = run;
            if (y == x) {
                run = sums[x];
                y = pred[x];
            }
            sums[x] = acc = add_or_saturate(w, acc, next);
            reads++;
        }
    }
    w->reads = reads;
    return acc;
}

/* A count's matches once slot j, its last stepped (w->last), takes
 * position i with text letter t, added to count: one with no later slot; a
 * bound tail's runs (tail_count); or the positions after i that the new
 * last letter may take, the letters that no other holds (partitions) or
 * those above the letter before (words).  w->reads is left at the
 * positions read. */
Py_NO_INLINE static unsigned long long complete(Walk *w, unsigned long long count, Py_ssize_t j, Py_ssize_t i,
                                                int t) {
    const int *tw = w->tw;
    Py_ssize_t n = w->n, k = w->k, x;
    unsigned long long more = 0;
    w->reads = 0;
    if (j == k - 1) {
        more = 1;
    } else if (!w->slot[k - 1].is_new) {
        more = tail_count(w, j + 1);
    } else if (w->ordered) {
        int floor = w->slot[j].is_new ? t : w->bound[w->pw[k - 1] - 1];
        for (x = i + 1; x < n; x++)
            more += tw[x] > floor;
        w->reads = n - 1 - i;
    } else {
        int *used = w->used, mark = used[t];
        used[t] = 1;
        for (x = i + 1; x < n; x++)
            more += !used[tw[x]];
        used[t] = mark;
        w->reads = n - 1 - i;
    }
    return add_or_saturate(w, count, more);
}

/* perm_walk and walk start on cache lines of their own.  Their loops are
 * short, and their speed moves with where the linker puts them, so code
 * added elsewhere in this file could slow them: on x86-64 with gcc -O3, the
 * three counts on 22 search-sized pairs took 10% less time with walk on a
 * 64-byte boundary than 32 bytes past one. */
#if defined(__GNUC__) || defined(__clang__)
#define CACHE_LINE __attribute__((aligned(64)))
#else
#define CACHE_LINE
#endif

/* The matches of a count's last slot: the positions from from to n - 1
 * whose value lies above low, when above is set, and below high, when below
 * is set, as one is at least.  One loop for each case, with no branch
 * inside, which the compiler vectorises.  INT_MIN or INT_MAX for a missing
 * bound would refuse the text values equal to it; one loop in long long,
 * with LLONG_MIN and LLONG_MAX, made the counts of 1,...,6 in a random
 * 200-permutation and of 2,3,1 in a random 600-permutation take 2.2x and
 * 3.4x as long. */
static Py_ssize_t count_between(const int *v, Py_ssize_t from, Py_ssize_t n, int above, int low, int below,
                                int high) {
    Py_ssize_t c = 0, x;
    if (!below)
        for (x = from; x < n; x++)
            c += v[x] > low;
    else if (!above)
        for (x = from; x < n; x++)
            c += v[x] < high;
    else
        for (x = from; x < n; x++)
            c += (v[x] > low) & (v[x] < high);
    return c;
}

/* Run a permutation search until it ends (1) or the next poll is due (0),
 * making no call into Python, so the compiler can keep the loop's state in
 * registers: with the poll inside the loop, the loop took up to 1.8x as long
 * per step.  Slot j takes position i when its value lies between those at
 * the slots lo[j] and hi[j].  The loop steps slots 0 to w->last, as
 * _perm_search does: a find to k - 1, and it returns at its first complete
 * match; a count to k - 2, and once that slot takes i, it adds the last
 * slot's matches after i in one pass and a tick for every 2**PASS_SHIFT
 * positions the pass reads (a count of one slot counts each position its
 * slot takes).  The pass stays inline: with count_between out of line, the
 * find of 2,4,1,3 in a layered 1,000-permutation took 1.10x as long.  The
 * loop counts down the steps left to the next poll, as walk does. */
Py_NO_INLINE CACHE_LINE static int perm_walk(Walk *w) {
    const int *tw = w->tw;
    const Py_ssize_t *lo = w->lo, *hi = w->hi;
    Py_ssize_t *chosen = w->chosen, n = w->n, k = w->k, i = w->i, j = w->j, last = w->last;
    Py_ssize_t due = (w->ticks | POLL_MASK) + 1, left = due - w->ticks;
    unsigned long long count = w->count;
    int find = w->find, done = 0;
    do {
        if (i > n - (k - j)) {
            if (j == 0) {
                done = 1;
                break;
            }
            i = chosen[--j];
        } else if ((lo[j] < 0 || tw[chosen[lo[j]]] < tw[i]) && (hi[j] < 0 || tw[i] < tw[chosen[hi[j]]])) {
            chosen[j] = i;
            if (j < last) {
                j++;
            } else if (find) {
                count = done = 1;
                break;
            } else if (k == 1) {
                count++;
            } else {
                Py_ssize_t a = lo[k - 1], b = hi[k - 1];
                count += (unsigned long long)count_between(tw, i + 1, n, a >= 0, a >= 0 ? tw[chosen[a]] : 0,
                                                           b >= 0, b >= 0 ? tw[chosen[b]] : 0);
                left -= (n - 1 - i) >> PASS_SHIFT;
            }
        }
        i++;
    } while (--left > 0);
    w->i = i;
    w->j = j;
    w->ticks = due - left;
    w->count = count;
    return done;
}

/* Run a word search until it ends (1) or the next poll is due (0), making
 * no call into Python, as perm_walk does: with the poll inside the loop,
 * the jumps and stops made general searches slower, not faster.  The loop
 * steps slots 0 to w->last: a find to the last slot, a count with k >= 2 to
 * its tail slot only (see _word_loop in the pure module).  Once that slot
 * takes position i, complete adds a count's later matches, and the loop a
 * tick for every 2**PASS_SHIFT positions that the pass read; so it polls
 * once its ticks reach the next multiple of POLL_MASK + 1.  It counts down
 * the steps left until then, which frees the register that a tick count and
 * its limit would take: with both, the finds of 1,1,2 in 1,2,...,2 took
 * 5-10% longer. */
Py_NO_INLINE CACHE_LINE static int walk(Walk *w) {
    const int *tw = w->tw, *pw = w->pw, *succ = w->succ;
    const Slot *slot = w->slot;
    int *bound = w->bound, *used = w->used, ordered = w->ordered, find = w->find, anchor = w->anchor, done = 0;
    Py_ssize_t *chosen = w->chosen, i = w->i, j = w->j, last = w->last;
    Py_ssize_t due = (w->ticks | POLL_MASK) + 1, left = due - w->ticks;
    unsigned long long count = w->count;

    do {
        const Slot *s = &slot[j];
        /* A bound slot jumps to the next copy of its text letter: from
         * i - 1 after a rejected copy, and otherwise from its prev
         * slot's copy. */
        if (!s->is_new)
            i = next_copy(succ, tw[i - 1] == bound[pw[j]] ? i - 1 : chosen[s->prev], i);
        if (i > s->stop) {
            if (j == 0) {
                done = 1;
                break;
            }
            i = chosen[--j];
            if (slot[j].is_new) {
                used[bound[pw[j]]] = 0;
                bound[pw[j]] = 0;
            }
        } else {
            int t = tw[i], p = pw[j];
            /* A bound slot's jump has already found a copy of its text
             * letter.  In words, a letter below the anchor takes a text
             * letter below the anchor's. */
            if ((!s->is_new || (ordered ? t > bound[p - 1] && (p > anchor || t < bound[anchor]) : !used[t])) &&
                (s->ahead == j || fits_ahead(w, j, s->ahead, i, p, t))) {
                chosen[j] = i;
                if (j < last) {
                    if (s->is_new) {
                        bound[p] = t;
                        used[t] = 1;
                    }
                    j++;
                } else if (find) {
                    count = done = 1;
                    break;
                } else {
                    count = complete(w, count, j, i, t);
                    left -= w->reads >> PASS_SHIFT;
                }
            }
        }
        i++;
    } while (--left > 0);
    w->i = i;
    w->j = j;
    w->ticks = due - left;
    w->count = count;
    return done;
}

/* Place v on the first of the len piles whose top it may not follow in a
 * strictly rising (or, unless rising, falling) run, and return the number
 * of piles: len + 1 when v starts a new one. */
static Py_ssize_t pile(int *tops, Py_ssize_t len, int v, int rising) {
    Py_ssize_t lo = 0, hi = len;
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) / 2;
        if (rising ? tops[mid] < v : tops[mid] > v)
            lo = mid + 1;
        else
            hi = mid;
    }
    tops[lo] = v;
    return lo == len ? len + 1 : len;
}

/* See _longest_runs in the pure module: the lengths of the longest strictly
 * increasing and decreasing subsequences of the n values at v, counted up
 * to the caps in runs[0] and runs[1] and left there.  tops holds the piles,
 * runs[0] + runs[1] ints. */
static void longest_runs(const int *v, Py_ssize_t n, int *tops, Py_ssize_t runs[2]) {
    Py_ssize_t up = runs[0], down = runs[1];
    runs[0] = runs[1] = 0;
    for (Py_ssize_t i = 0; i < n && (runs[0] < up || runs[1] < down); i++) {
        if (runs[0] < up)
            runs[0] = pile(tops, runs[0], v[i], 1);
        if (runs[1] < down)
            runs[1] = pile(tops + up, runs[1], v[i], 0);
    }
}

/* The permutation loop, behind the pre-pass of _perm_search in the pure
 * module: a pattern whose longest increasing or decreasing subsequence is
 * longer than the text's is answered at once. */
static PyObject *perm_search(const Call *c, Arena *a, int find) {
    Py_ssize_t n = c->n, k = c->k, j, *lo, *hi, *chosen, runs[2] = {k, k}, reach[2];
    int *tv, *pv, *tops, distinct = 1;

    if ((tv = read_ints(a, c->text, n, NULL, NULL)) == NULL ||
        (pv = read_ints(a, c->pattern, k, NULL, NULL)) == NULL ||
        (lo = take(a, k, sizeof(Py_ssize_t))) == NULL || (hi = take(a, k, sizeof(Py_ssize_t))) == NULL ||
        (chosen = take(a, k, sizeof(Py_ssize_t))) == NULL || (tops = take(a, 2 * k, sizeof(int))) == NULL)
        return NULL;
    /* lo[j] / hi[j]: the earlier slot holding the nearest pattern value
     * below / above pattern[j], or -1. */
    for (j = 0; j < k; j++) {
        lo[j] = hi[j] = -1;
        for (Py_ssize_t b = 0; b < j; b++) {
            if (pv[b] < pv[j] && (lo[j] < 0 || pv[b] > pv[lo[j]]))
                lo[j] = b;
            if (pv[b] > pv[j] && (hi[j] < 0 || pv[b] < pv[hi[j]]))
                hi[j] = b;
            distinct &= pv[b] != pv[j];
        }
    }
    if (!distinct)
        return fail(PyExc_ValueError, "a permutation pattern must have distinct values");
    longest_runs(pv, k, tops, runs);
    reach[0] = runs[0];
    reach[1] = runs[1];
    longest_runs(tv, n, tops, reach);
    if (reach[0] < runs[0] || reach[1] < runs[1])
        return answer(find, 0, chosen, k);
    Walk w = {.tw = tv, .lo = lo, .hi = hi, .chosen = chosen, .n = n, .k = k, .last = find ? k - 1 : k - 2,
              .ticks = 1, .find = find};
    while (!perm_walk(&w))
        if (poll(c->cancel) < 0)
            return NULL;
    return answer(find, w.count, chosen, k);
}

/* One word search on the buffers of w, planned for its text: 1 on a match,
 * 0 on none, -1 with an exception set.  It polls between runs of walk. */
static int search(Walk *w, PyObject *cancel) {
    w->i = w->j = w->count = 0;
    w->ticks = 1;
    while (!walk(w))
        if (poll(cancel) < 0)
            return -1;
    return w->count != 0;
}

/* Partitions and words: see _word_search in the pure module.  A new
 * pattern letter p takes a text block no other letter holds (partitions) or,
 * when ordered (words), a text letter above the one bound to p - 1.  A count
 * with k >= 2 steps down to its tail slot only (see _word_loop): the last
 * new slot, or k - 2 when that is the last slot. */
static PyObject *word_search(const Call *c, Arena *a, int ordered, int find) {
    Py_ssize_t n = c->n, k = c->k;
    /* tw: the text's letters, the largest nt <= n; bound: pattern letter ->
     * text letter, 0 = unbound; used: text letters bound; succ and pred, the
     * text's next-copy and previous-copy links. */
    int *tw, *pw, *succ, *pred = NULL, *bound, *used, nt = 0, np = 0;
    Slot *slot;
    Py_ssize_t *chosen;
    unsigned long long *sums = NULL;

    if ((tw = read_ints(a, c->text, n, &nt, NULL)) == NULL ||
        (pw = read_ints(a, c->pattern, k, &np, NOT_GROWTH)) == NULL ||
        (succ = take(a, n + nt + 1, sizeof(int))) == NULL ||
        (slot = take(a, k, sizeof(Slot))) == NULL || (chosen = take(a, k, sizeof(Py_ssize_t))) == NULL ||
        (bound = take(a, np + 1, sizeof(int))) == NULL || (used = take(a, nt + 1, sizeof(int))) == NULL ||
        (!find && ((pred = take(a, n + nt + 1, sizeof(int))) == NULL ||
                   (sums = take(a, n, sizeof(unsigned long long))) == NULL)))
        return NULL;
    Walk w = {.tw = tw, .pw = pw, .succ = succ, .pred = pred, .slot = slot, .sums = sums, .bound = bound,
              .used = used, .chosen = chosen, .k = k, .last = k - 1, .ordered = ordered, .find = find};
    plan_pattern(&w, np, 0);
    plan_text(&w, n, nt);
    if (!find && k > 1) {
        prev_links(pred, tw, n, nt);
        while (!slot[w.last].is_new) /* slot 0's letter is new */
            w.last--;
        w.last = w.last == k - 1 ? k - 2 : w.last;
    }
    if (search(&w, c->cancel) < 0)
        return NULL;
    if (w.over)
        return fail(PyExc_OverflowError, "count exceeds 2**64 - 1");
    return answer(find, w.count, chosen, k);
}

/* Does the child of an avoiding parent, the parent's w->n letters and then
 * letter, contain the pattern?  Only with the pattern's last slot at its
 * last position.  So the search, planned once per walk (plan_pattern) and
 * once per parent (plan_text), looks for the pattern's first k - 1 slots in
 * the parent, with the last letter, w->anchor, bound to letter before it
 * starts: its slots jump to copies of letter, the first from the virtual
 * slot k, whose chosen entry is letter's head link; no other letter may take
 * letter in partitions (used), and in words the letters below the anchor
 * take text letters below letter, and those above it land above letter
 * through the order test.  bound and used are left zeroed. */
static int anchored(Walk *w, int np, int letter) {
    int hit;
    w->bound[w->anchor] = letter;
    w->used[letter] = 1;
    w->chosen[w->k] = w->n + letter;
    hit = search(w, Py_None);
    for (int p = 1; p <= np; p++) {
        w->used[w->bound[p]] = 0;
        w->bound[p] = 0;
    }
    return hit;
}

/* The census walk: how many restricted growth words of length n extend the
 * prefix and avoid the pattern, read as partitions or, when ordered, as
 * words; none if the prefix contains it.  See _avoiders in the pure module
 * for the letter tests that screen each child before a find.  One
 * depth-first walk over word, which holds one path of the tree, 0 past it:
 * position d tries only prefix[d] inside the prefix, then each of
 * 1..peak[d] + 1, and copies[t] counts letter t on the path.  Each child
 * that passes the screens, the prefix's own positions too, gets one find
 * anchored at its last letter, so a prefix that contains the pattern dies at
 * the first position where an occurrence ends; the parent's links and stops
 * are planned when its first child needs a find, and again only once a
 * deeper level has planned its own (ready, the depth planned for).
 * word[-1], 0, is the text letter that a slot 0 whose letter is the anchor
 * reads before its first jump.  The walk polls, with no cancel, every
 * POLL_MASK + 1 children, and each find polls as a search does (a find that
 * raises, hit < 0, ends the walk), so an interrupt stops a long census. */
static PyObject *count_avoiders(PyObject *const *args, Py_ssize_t nargs, Arena *a, int ordered) {
    Py_ssize_t n, d0, k, d, ready = -1, children = 0, *chosen;
    int *prefix, *pw, *word, *copies, *peak, *succ, *bound, *used, top = 0, np = 0, last = 0, exact, hit = 0;
    unsigned long long count = 0;
    Slot *slot;

    if (nargs != 3)
        return fail(PyExc_TypeError, "avoider counts take (prefix, pattern, n, /)");
    /* Clipped, so that a huge n fails as any n past INT_MAX does. */
    if ((n = PyNumber_AsSsize_t(args[2], NULL)) == -1 && PyErr_Occurred())
        return NULL;
    if (n >= INT_MAX)
        return fail(PyExc_OverflowError, "n must be below 2**31 - 1");
    if ((d0 = PyObject_Length(args[0])) < 0 || (k = PyObject_Length(args[1])) < 0 ||
        (prefix = read_ints(a, args[0], d0, &top, NOT_PREFIX)) == NULL ||
        (pw = read_ints(a, args[1], k, &np, NOT_GROWTH)) == NULL)
        return NULL;
    if (n < d0)
        return fail(PyExc_ValueError, "n must be at least the prefix's length");
    if (k == 0)
        return PyLong_FromLong(0);
    if (n == 0)
        return PyLong_FromLong(1);
    if ((word = take(a, n + 1, sizeof(int))) == NULL || (copies = take(a, n + 1, sizeof(int))) == NULL ||
        (peak = take(a, n + 1, sizeof(int))) == NULL || (succ = take(a, 2 * n + 1, sizeof(int))) == NULL ||
        (slot = take(a, k, sizeof(Slot))) == NULL || (chosen = take(a, k, sizeof(Py_ssize_t))) == NULL ||
        (bound = take(a, np + 1, sizeof(int))) == NULL || (used = take(a, n + 1, sizeof(int))) == NULL)
        return NULL;
    word++;
    Walk w = {.tw = word, .pw = pw, .succ = succ, .slot = slot, .bound = bound, .used = used,
              .chosen = chosen, .k = k - 1, .last = k - 2, .ordered = ordered, .find = 1, .anchor = pw[k - 1]};
    for (Py_ssize_t j = 0; j < k; j++)
        last += pw[j] == pw[k - 1];
    exact = np == k || np == 1;
    plan_pattern(&w, np, w.anchor);
    for (d = 0; d >= 0 && hit >= 0;) {
        int letter = word[d];
        if (letter > 0)
            copies[letter]--;
        if (letter > (d < d0 ? 0 : peak[d])) {
            word[d--] = 0;
            ready = ready > d ? -1 : ready;
            continue;
        }
        word[d] = letter = d < d0 ? prefix[d] : letter + 1;
        copies[letter]++;
        if ((++children & POLL_MASK) == 0 && poll(Py_None) < 0)
            return NULL;
        top = letter > peak[d] ? letter : peak[d];
        if (top >= np && d + 1 >= k && copies[letter] >= last) {
            if (exact)
                continue;
            if (ready != d) {
                plan_text(&w, d, peak[d] + 1);
                ready = d;
            }
            if ((hit = anchored(&w, np, letter)) != 0)
                continue;
        }
        if (d + 1 == n)
            count++;
        else
            peak[++d] = top;
    }
    return hit < 0 ? NULL : PyLong_FromUnsignedLongLong(count);
}

/* The six search entries: the empty pattern occurs once, at no positions; a
 * pattern longer than its text never occurs. */
#define ENTRY(name, find, search)                                                    \
    static PyObject *name(PyObject *self, PyObject *const *args, Py_ssize_t nargs) { \
        Call c;                                                                      \
        Arena a = {0};                                                               \
        PyObject *result;                                                            \
        if (parse_call(args, nargs, &c) < 0)                                         \
            return NULL;                                                             \
        if (c.k == 0 || c.k > c.n)                                                   \
            return answer(find, c.k == 0, NULL, 0);                                  \
        result = search;                                                             \
        release(&a);                                                                 \
        return result;                                                               \
    }

ENTRY(perm_find, 1, perm_search(&c, &a, 1))
ENTRY(perm_count, 0, perm_search(&c, &a, 0))
ENTRY(part_find, 1, word_search(&c, &a, 0, 1))
ENTRY(part_count, 0, word_search(&c, &a, 0, 0))
ENTRY(rgf_find, 1, word_search(&c, &a, 1, 1))
ENTRY(rgf_count, 0, word_search(&c, &a, 1, 0))

#define AVOIDERS(name, ordered)                                                      \
    static PyObject *name(PyObject *self, PyObject *const *args, Py_ssize_t nargs) { \
        Arena a = {0};                                                               \
        PyObject *result = count_avoiders(args, nargs, &a, ordered);                 \
        release(&a);                                                                 \
        return result;                                                               \
    }

AVOIDERS(part_avoiders, 0)
AVOIDERS(rgf_avoiders, 1)

#define DEF(name, args, doc) \
    {#name, (PyCFunction)(void (*)(void))name, METH_FASTCALL, #name "($module, " args ", /)\n--\n\n" doc}
#define SEARCH "text, pattern, cancel=None"
#define WALK "prefix, pattern, n"

static PyMethodDef kernel_methods[] = {
    DEF(perm_find, SEARCH, "Lexicographically least occurrence of the pattern permutation, or None."),
    DEF(perm_count, SEARCH, "Exact number of occurrences of the pattern permutation in the text."),
    DEF(part_find, SEARCH, "Lexicographically least subset restricting the text to the pattern, or None."),
    DEF(part_count, SEARCH, "Exact number of subsets whose restriction equals the pattern."),
    DEF(rgf_find, SEARCH, "Lexicographically least position set standardizing to the pattern, or None."),
    DEF(rgf_count, SEARCH, "Exact number of position sets whose subsequence standardizes to the pattern."),
    DEF(part_avoiders, WALK, "Growth words of length n past the prefix whose partitions avoid the pattern."),
    DEF(rgf_avoiders, WALK, "Growth words of length n past the prefix that avoid the pattern word."),
    {NULL, NULL, 0, NULL},
};

/* Multi-phase initialization: loading the module file by hand, as the tests
 * do, leaves sys.modules alone. */
static int kernels_exec(PyObject *module) {
    PyObject *errors;
    if (SearchCancelled != NULL)
        return 0;
    errors = PyImport_ImportModule("permpart.errors");
    SearchCancelled = errors == NULL ? NULL : PyObject_GetAttrString(errors, "SearchCancelled");
    Py_XDECREF(errors);
    return SearchCancelled == NULL ? -1 : 0;
}

static PyModuleDef_Slot kernel_slots[] = {{Py_mod_exec, kernels_exec}, {0, NULL}};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "_kernels", "Compiled search kernels: the C twin of permpart._kernels_py.",
    0, kernel_methods, kernel_slots,
};

PyMODINIT_FUNC PyInit__kernels(void) {
    return PyModuleDef_Init(&kernel_module);
}

/* Compiled search kernels.
 *
 * Twin of permpart._kernels_py: the same six functions, the same pruning and
 * the same search order (so witnesses, counts and cancel polls are
 * identical), with the loops in C.  Permutations have one search loop, and
 * partitions and words share another that an ordered flag switches to the
 * word rule; a find entry stops at the first complete match and returns the
 * witness, a count entry counts every match.  See the pure module for the
 * algorithm notes, the order lookahead of the word search included.
 * The kernels only search: past the trivial answers for an empty pattern or
 * one longer than its text, they rule out no match before searching; the
 * block-size and letter-count rejections live in permpart.matchers.
 * Arguments are positional only, (text, pattern[, cancel]).  Permutation
 * values must fit a C int (OverflowError; the pure kernels assume it).  Word
 * letters run from 1 to 2**31 - 2, and the first bad letter, reading the
 * text and then the pattern in order, names the fault: below 1 ValueError,
 * 2**31 - 1 or more OverflowError, a pattern letter above the running peak
 * + 1 ValueError (no restricted growth word).
 * Plain CPython API: build it with any C compiler against the interpreter's
 * headers.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define POLL_MASK ((1 << 14) - 1)
/* The text's next-position table is skipped above this many entries, and
 * with it the order lookahead; the search stays correct, only less pruned. */
#define TABLE_LIMIT 4000000

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

/* The scratch arrays of one search, freed together.  word_search takes the
 * most: tw, pw, nxt, is_new, ahead, chosen, bound and used. */
#define ARENA_BLOCKS 8
typedef struct {
    void *block[ARENA_BLOCKS];
    int used;
} Arena;

static void *take(Arena *a, Py_ssize_t count, size_t size) {
    void *p;
    if (a->used == ARENA_BLOCKS) {
        PyErr_SetString(PyExc_SystemError, "kernel arena is full");
        return NULL;
    }
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

static void *fail(PyObject *type, const char *message) {
    PyErr_SetString(type, message);
    return NULL;
}

/* Copy a sequence of n ints.  For a word (peak given), the largest letter is
 * stored in *peak, and the first bad letter decides the error: below 1 (past
 * a C long too), at least INT_MAX (the search allocates the largest letter +
 * 1 entries), or, for a pattern word (growth), above the running peak + 1,
 * which a restricted growth word never has.  A permutation value must fit a
 * C int.  The items are read from a tuple snapshot, which an item's
 * __index__ cannot shrink. */
static int *read_ints(Arena *a, PyObject *seq, Py_ssize_t n, int *peak, int growth) {
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
        else if (growth && v - 1 > *peak)
            out = fail(PyExc_ValueError, "a word pattern must be a restricted growth word");
        else {
            out[i] = (int)v;
            if (peak != NULL && v > *peak)
                *peak = (int)v;
        }
    }
    Py_XDECREF(items);
    return out;
}

/* Poll cancel every POLL_MASK + 1 ticks; -1, with an exception set, aborts. */
static int poll(PyObject *cancel, Py_ssize_t ticks) {
    if (cancel == Py_None || (ticks & POLL_MASK) != 0)
        return 0;
    PyObject *r = PyObject_CallNoArgs(cancel);
    int stop = r == NULL ? -1 : PyObject_IsTrue(r);
    Py_XDECREF(r);
    if (stop > 0)
        PyErr_SetString(SearchCancelled, "search aborted by cancellation signal");
    return stop ? -1 : 0;
}

/* Flat (n+1) x width table: entry [i*width + t-1] is the first position at
 * or after i that holds letter t, or n. */
static int *next_table(Arena *a, const int *word, Py_ssize_t n, int width) {
    int *table = take(a, (n + 1) * width, sizeof(int));
    for (int t = 0; table != NULL && t < width; t++)
        table[n * width + t] = (int)n;
    for (Py_ssize_t i = n - 1; table != NULL && i >= 0; i--) {
        int *row = table + i * width;
        for (int t = 0; t < width; t++)
            row[t] = row[width + t];
        row[word[i] - 1] = (int)i;
    }
    return table;
}

static PyObject *perm_search(const Call *c, Arena *a, int find) {
    Py_ssize_t n = c->n, k = c->k, i = 0, j, ticks = 0, *lo, *hi, *chosen;
    int *tv, *pv;
    unsigned long long count = 0;

    if ((tv = read_ints(a, c->text, n, NULL, 0)) == NULL ||
        (pv = read_ints(a, c->pattern, k, NULL, 0)) == NULL ||
        (lo = take(a, k, sizeof(Py_ssize_t))) == NULL || (hi = take(a, k, sizeof(Py_ssize_t))) == NULL ||
        (chosen = take(a, k, sizeof(Py_ssize_t))) == NULL)
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
        }
    }
    for (j = 0; !(find && count); i++) {
        if (poll(c->cancel, ++ticks) < 0)
            return NULL;
        if (i > n - (k - j)) {
            if (j == 0)
                break;
            i = chosen[--j];
            continue;
        }
        if ((lo[j] < 0 || tv[chosen[lo[j]]] < tv[i]) && (hi[j] < 0 || tv[i] < tv[chosen[hi[j]]])) {
            chosen[j] = i;
            if (j < k - 1)
                j++;
            else
                count++;
        }
    }
    return answer(find, count, chosen, k);
}

/* The order lookahead of _word_search: slot j takes text position i, with
 * text letter t for pattern letter p.  Can slots j+1..last still take
 * positions in order?  A slot whose letter is bound jumps to the next
 * occurrence of its text letter, any other slot to the next position, and
 * slot s fails past n - k + s, where too few positions are left after it.
 * Kept out of line: most accepted slots never call it. */
Py_NO_INLINE static int fits_ahead(const int *nxt, int nt, Py_ssize_t n, Py_ssize_t k, const int *pw,
                                   const int *bound, Py_ssize_t j, Py_ssize_t last, Py_ssize_t i, int p,
                                   int t) {
    for (Py_ssize_t s = j + 1, pos = i; s <= last; s++) {
        int b = pw[s] == p ? t : bound[pw[s]];
        pos = b ? nxt[(pos + 1) * nt + b - 1] : pos + 1;
        if (pos > n - k + s)
            return 0;
    }
    return 1;
}

/* Partitions and words: see _word_search in the pure module.  A new
 * pattern letter p takes a text block no other letter holds (partitions) or,
 * when ordered (words), a text letter above the one bound to p - 1. */
static PyObject *word_search(const Call *c, Arena *a, int ordered, int find) {
    Py_ssize_t n = c->n, k = c->k, i = 0, j, last = 0, ticks = 0, *ahead, *chosen;
    /* bound: pattern letter -> text letter, 0 = unbound; used: text letters
     * bound; nxt, the text's next positions, stays NULL past TABLE_LIMIT. */
    int *tw, *pw, *nxt = NULL, *is_new, *bound, *used, nt = 0, np = 0, peak = 0;
    unsigned long long count = 0;

    if ((tw = read_ints(a, c->text, n, &nt, 0)) == NULL ||
        (pw = read_ints(a, c->pattern, k, &np, 1)) == NULL ||
        ((n + 1) * nt <= TABLE_LIMIT && (nxt = next_table(a, tw, n, nt)) == NULL) ||
        (is_new = take(a, k, sizeof(int))) == NULL || (ahead = take(a, k, sizeof(Py_ssize_t))) == NULL ||
        (chosen = take(a, k, sizeof(Py_ssize_t))) == NULL || (bound = take(a, np + 1, sizeof(int))) == NULL ||
        (used = take(a, nt + 1, sizeof(int))) == NULL)
        return NULL;
    /* ahead[j]: the last slot whose letter is bound once slot j is taken,
     * or j if none is (or there is no table).  Until the search starts,
     * bound[q] holds the last slot of letter q. */
    for (j = 0; j < k; j++)
        bound[pw[j]] = (int)j;
    for (j = 0; j < k; j++) {
        is_new[j] = pw[j] > peak;
        if (is_new[j]) {
            peak = pw[j];
            last = bound[peak] > last ? bound[peak] : last;
        }
        ahead[j] = nxt != NULL && last > j ? last : j;
    }
    memset(bound, 0, (size_t)(np + 1) * sizeof(int));
    for (j = 0; !(find && count); i++) {
        if (poll(c->cancel, ++ticks) < 0)
            return NULL;
        if (i > n - (k - j)) {
            if (j == 0)
                break;
            i = chosen[--j];
            if (is_new[j]) {
                used[bound[pw[j]]] = 0;
                bound[pw[j]] = 0;
            }
            continue;
        }
        int t = tw[i], p = pw[j];
        if ((is_new[j] ? (ordered ? t > bound[p - 1] : !used[t]) : t == bound[p]) &&
            (ahead[j] == j || fits_ahead(nxt, nt, n, k, pw, bound, j, ahead[j], i, p, t))) {
            chosen[j] = i;
            if (j == k - 1) {
                count++;
            } else {
                if (is_new[j]) {
                    bound[p] = t;
                    used[t] = 1;
                }
                j++;
            }
        }
    }
    return answer(find, count, chosen, k);
}

/* The six entries: the empty pattern occurs once, at no positions; a
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

#define DEF(name, doc)                                        \
    {#name, (PyCFunction)(void (*)(void))name, METH_FASTCALL, \
     #name "($module, text, pattern, cancel=None, /)\n--\n\n" doc}

static PyMethodDef kernel_methods[] = {
    DEF(perm_find, "Lexicographically least occurrence of the pattern permutation, or None."),
    DEF(perm_count, "Exact number of occurrences of the pattern permutation in the text."),
    DEF(part_find, "Lexicographically least subset restricting the text to the pattern, or None."),
    DEF(part_count, "Exact number of subsets whose restriction equals the pattern."),
    DEF(rgf_find, "Lexicographically least position set standardizing to the pattern, or None."),
    DEF(rgf_count, "Exact number of position sets whose subsequence standardizes to the pattern."),
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

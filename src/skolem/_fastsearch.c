/* Compiled backtracking kernel for (strong) Skolem starters.
 *
 * Contract and semantics mirror skolem._pysearch.run_search exactly: the
 * same tree, walked in the same order, so both kernels return identical
 * (count, nodes, witnesses) triples.  The walk is iterative and bitwise
 * (Knuth, TAOCP 4A, 7.1.3 and 4B, 7.2.2): the free elements of 1..n-1 are
 * one 64-bit mask F, and the candidates x for difference d are the set
 * bits of F & (F >> d), visited in ascending order by ctz.
 *
 * With strong, the pair sums 2x + d mod n must differ.  As 2 is invertible
 * mod n, so must the half-sums x + d * 2^-1 mod n.  Each level keeps them
 * in its own frame: bit x of its mask G is set iff placing (x, x + d)
 * there would repeat a half-sum, so its candidates are F & (F >> d) & ~G
 * and every candidate popped is placed.  Consecutive half-shifts d * 2^-1
 * differ by -2^-1 (descending) or 2^-1 (ascending), and 2^-1 = t + 1 mod
 * n, so each frame is its parent's rotated right by one constant r, t or
 * t + 1: placing x gives the child G' = rotr_n(G | bit x, r).
 *
 * The walk is a stack of levels, one per difference in assignment order.
 * Each holds its untried candidates and the masks F and G it was entered
 * with; a placement computes the next level's F, G and candidates from its
 * own, and enters that level only when it has a candidate, so backing up
 * restores the state by leaving the level, with nothing to undo, and no
 * level is entered only to be left on the next pass.  A witness is read
 * off the stack: level i placed the pair whose two bits F loses between
 * levels i and i + 1.  strong is fixed per compiled instance: the walk is
 * inlined once with strong = 1 and once with 0, so neither instance tests
 * it per node, and without strong G is never written or read.
 *
 * The walk runs with the GIL released, so skolem.search can run several
 * top-level partitions at once on threads.  Kept witnesses wait in a C
 * buffer, and the walk takes the GIL back only to turn a full buffer into
 * tuples and to poll for Ctrl-C every 2^20 nodes: taking it per witness
 * made two threads enumerating n = 25 slower than one.  Every error path
 * and the result are built with the GIL held.
 *
 * witness_pairs turns those witnesses into what a PairSet holds: per
 * witness, the tuple of its pairs (x, x + d) in ascending x, each distinct
 * pair one tuple shared by the whole batch.  It checks each witness in
 * batch order, range-checking each element before it becomes a bit (an
 * element that operator.index refuses is out of range), and the first one
 * that is not t in-range entries whose pairs partition 1..n-1 raises
 * ValueError("witness xs does not partition 1..n-1"), as
 * skolem._pysearch.witness_pairs does.  skolem.search calls it with the
 * GIL held, after the search's wall time is taken.
 *
 * One word per mask limits n to 63; skolem.search sends larger orders to
 * the pure-Python kernel.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

#define MAX_N 63
#define MAX_T ((MAX_N - 1) / 2)
#define BIT(i) ((uint64_t)1 << (i))
#define BATCH 256

/* The mask m rotated right by k within n bits, 0 < k < n, not cut to n
 * bits: a bit p >= n of m is set only if bit p - n is, the result keeps
 * that so, and so its bits below n, the only ones the walk reads, are
 * exact.  The AND that would cut it slows the strong n = 25 walk by 2-3%
 * (gcc 12 -O3, AMD EPYC). */
static inline uint64_t
rotr(uint64_t m, int k, int n)
{
    return (m >> k) | (m << (n - k));
}

/* One level of the walk: the difference d it places, the masks F and G it
 * was entered with, and its untried candidates. */
struct level {
    uint64_t cand, free_, hsums;
    int d;
};

/* Append rows[0..count), t entries each, to list as tuples of ints.
 * Needs the GIL. */
static int
append_witnesses(PyObject *list, unsigned char (*rows)[MAX_T], int count, int t)
{
    for (int r = 0; r < count; r++) {
        PyObject *w = PyTuple_New(t);
        if (w == NULL)
            return -1;
        for (int i = 0; i < t; i++) {
            PyObject *v = PyLong_FromLong(rows[r][i]);
            if (v == NULL) {
                Py_DECREF(w);
                return -1;
            }
            PyTuple_SET_ITEM(w, i, v);
        }
        int err = PyList_Append(list, w);
        Py_DECREF(w);
        if (err < 0)
            return -1;
    }
    return 0;
}

/* The walk from lv[0], whose fields and every level's d the caller set, r
 * the shift between the frames of consecutive levels: the (count, nodes,
 * witnesses) triple, or NULL with an exception.  Inlined into each call with
 * strong a constant, so each instance has none of the other's branches. */
static inline __attribute__((always_inline)) PyObject *
walk(struct level *lv, int n, int t, int r, const int strong, long long stop_after,
     long long collect_limit)
{
    PyObject *witnesses = PyList_New(0);
    if (witnesses == NULL)
        return NULL;
    long long count = 0, nodes = 0;
    unsigned char batch[BATCH][MAX_T];
    int batched = 0;
    struct level *top = lv, *last = lv + t - 1;
    /* From here on no Python object is touched without the GIL. */
    PyThreadState *tstate = PyEval_SaveThread();
    for (;;) {
        uint64_t c = top->cand;
        if (c == 0) {
            /* Exhausted: back up.  The parent's masks are still those it
             * was entered with, so leaving this level is the whole undo. */
            if (top == lv)
                break;
            top--;
            continue;
        }
        top->cand = c & (c - 1);
        int x = __builtin_ctzll(c);
        struct level *next = top + 1;
        uint64_t free_ = top->free_ & ~(BIT(x) | BIT(x + top->d));
        next->free_ = free_;
        nodes++;
        if ((nodes & 0xFFFFF) == 0) {
            PyEval_RestoreThread(tstate);
            if (PyErr_CheckSignals() < 0)
                goto fail;
            tstate = PyEval_SaveThread();
        }
        if (top != last) {
            c = free_ & (free_ >> next->d);
            if (strong) {
                uint64_t hsums = rotr(top->hsums | BIT(x), r, n);
                next->hsums = hsums;
                c &= ~hsums;
            }
            if (c) { /* else the next pass pops this level's next one */
                next->cand = c;
                top = next;
            }
            continue;
        }
        /* A starter.  The next pass pops this level's next candidate. */
        count++;
        if (collect_limit < 0 || count <= collect_limit) {
            /* x at level i: the lower bit F loses on the way to i + 1 */
            for (int i = 0; i < t; i++)
                batch[batched][lv[i].d - 1] =
                    (unsigned char)__builtin_ctzll(lv[i].free_ ^ lv[i + 1].free_);
            if (++batched == BATCH) {
                PyEval_RestoreThread(tstate);
                if (append_witnesses(witnesses, batch, batched, t) < 0)
                    goto fail;
                batched = 0;
                tstate = PyEval_SaveThread();
            }
        }
        if (stop_after > 0 && count >= stop_after)
            break;
    }
    PyEval_RestoreThread(tstate);
    if (append_witnesses(witnesses, batch, batched, t) < 0)
        goto fail;
    return Py_BuildValue("LLN", count, nodes, witnesses);

fail: /* reached with the GIL held */
    Py_DECREF(witnesses);
    return NULL;
}

static PyObject *
run_search(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {"n", "strong", "stop_after", "collect_limit",
                               "descending", "fixed_top", NULL};
    int n, strong, descending = 1, fixed_top = 0;
    long long stop_after = 0, collect_limit = 0;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "ip|LLpi", keywords, &n, &strong,
                                     &stop_after, &collect_limit, &descending,
                                     &fixed_top))
        return NULL;
    if (n < 3 || n % 2 == 0)
        return PyErr_Format(PyExc_ValueError, "n must be odd and >= 3, got %d", n);
    if (n > MAX_N)
        return PyErr_Format(PyExc_ValueError,
                            "n = %d exceeds the compiled kernel's limit of %d",
                            n, MAX_N);
    int t = (n - 1) / 2;
    /* lv[t] is entered by no walk: a starter's last placement leaves its F
     * there to decode the witness */
    struct level lv[MAX_T + 1];
    for (int i = 0; i < t; i++)
        lv[i].d = descending ? t - i : i + 1;
    if (fixed_top && !(1 <= fixed_top && fixed_top <= n - 1 - lv[0].d))
        return PyErr_Format(PyExc_ValueError,
                            "fixed_top %d out of range for difference %d",
                            fixed_top, lv[0].d);
    lv[0].free_ = (BIT(n) - 1) & ~BIT(0);
    lv[0].hsums = 0;
    lv[0].cand = lv[0].free_ & (lv[0].free_ >> lv[0].d);
    if (fixed_top)
        lv[0].cand &= BIT(fixed_top);
    /* d * 2^-1 mod n steps by -2^-1 = t or by 2^-1 = t + 1 */
    int r = descending ? t : t + 1;
    return strong ? walk(lv, n, t, r, 1, stop_after, collect_limit)
                  : walk(lv, n, t, r, 0, stop_after, collect_limit);
}

static PyObject *
witness_pairs(PyObject *self, PyObject *args)
{
    int n;
    PyObject *arg;
    if (!PyArg_ParseTuple(args, "iO:witness_pairs", &n, &arg))
        return NULL;
    if (n < 3 || n % 2 == 0 || n > MAX_N)
        return PyErr_Format(PyExc_ValueError, "n must be odd and in 3..%d, got %d",
                            MAX_N, n);
    /* Tuples: no element conversion below can change what is being read. */
    PyObject *witnesses = PySequence_Tuple(arg);
    if (witnesses == NULL)
        return NULL;
    Py_ssize_t count = PyTuple_GET_SIZE(witnesses);
    PyObject *out = PyList_New(count);
    if (out == NULL) {
        Py_DECREF(witnesses);
        return NULL;
    }
    int t = (n - 1) / 2;
    /* table[d][x]: the pair (x, x + d), built on first use and shared. */
    PyObject *table[MAX_T + 1][MAX_N] = {{NULL}};
    for (Py_ssize_t k = 0; k < count; k++) {
        PyObject *w = PyTuple_GET_ITEM(witnesses, k);
        PyObject *xs = PySequence_Tuple(w);
        if (xs == NULL)
            goto fail;
        int faulty = PyTuple_GET_SIZE(xs) != t;
        int diff_of[MAX_N]; /* the difference of the pair with smaller element x */
        uint64_t used = 0, lows = 0;
        for (int d = 1; d <= t && !faulty; d++) {
            int overflow;
            long x = PyLong_AsLongAndOverflow(PyTuple_GET_ITEM(xs, d - 1), &overflow);
            if (x == -1 && PyErr_Occurred()) {
                if (!PyErr_ExceptionMatches(PyExc_TypeError)) {
                    Py_DECREF(xs);
                    goto fail;
                }
                /* operator.index refuses it: no int, so never in range */
                PyErr_Clear();
                faulty = 1;
                break;
            }
            /* checked before any shift, so no shift reaches bit n */
            if (overflow || x < 1 || x > n - 1 - d || (used & (BIT(x) | BIT(x + d)))) {
                faulty = 1;
                break;
            }
            used |= BIT(x) | BIT(x + d);
            lows |= BIT(x);
            diff_of[x] = d;
        }
        Py_DECREF(xs);
        if (faulty) {
            PyErr_Format(PyExc_ValueError, "witness %R does not partition 1..%d", w, n - 1);
            goto fail;
        }
        /* t disjoint pairs within 1..n-1: a partition.  Their smaller
         * elements in ascending order give the canonical order. */
        PyObject *pairs = PyTuple_New(t);
        if (pairs == NULL)
            goto fail;
        PyList_SET_ITEM(out, k, pairs);
        for (int i = 0; i < t; i++, lows &= lows - 1) {
            int x = __builtin_ctzll(lows), d = diff_of[x];
            PyObject **pair = &table[d][x];
            if (*pair == NULL && (*pair = Py_BuildValue("(ii)", x, x + d)) == NULL)
                goto fail;
            Py_INCREF(*pair);
            PyTuple_SET_ITEM(pairs, i, *pair);
        }
    }
    goto done;
fail:
    Py_CLEAR(out);
done:
    for (int d = 1; d <= t; d++)
        for (int x = 1; x + d < n; x++)
            Py_XDECREF(table[d][x]);
    Py_DECREF(witnesses);
    return out;
}

static PyMethodDef methods[] = {
    {"run_search", (PyCFunction)(void (*)(void))run_search,
     METH_VARARGS | METH_KEYWORDS,
     "run_search(n, strong, stop_after=0, collect_limit=0, descending=True, "
     "fixed_top=0)\n--\n\n"
     "Count and optionally collect Skolem starters of Z_n, 3 <= n <= 63.\n\n"
     "See skolem._pysearch.run_search for the full parameter contract; both\n"
     "kernels return identical (count, nodes, witnesses) triples."},
    {"witness_pairs", witness_pairs, METH_VARARGS,
     "witness_pairs(n, witnesses)\n--\n\n"
     "The canonical pair tuples of run_search witnesses, 3 <= n <= 63.\n\n"
     "The first witness, in batch order, that is not t in-range entries\n"
     "whose pairs partition 1..n-1 raises ValueError.  See\n"
     "skolem._pysearch.witness_pairs; both return equal lists and raise the\n"
     "same ValueError."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "skolem._fastsearch",
    "Compiled backtracking kernel for (strong) Skolem starters, n <= 63.",
    -1, methods,
};

PyMODINIT_FUNC
PyInit__fastsearch(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddIntConstant(m, "MAX_N", MAX_N) < 0)
        Py_CLEAR(m);
    return m;
}

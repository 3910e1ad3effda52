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
 * mod n, so must the half-sums h = x + half[d] mod n, half[d] = d * 2^-1 =
 * d * (n + 1) / 2 mod n.  H is the mask of half-sums in use, and x is free
 * of them exactly when bit x of H rotated right by half[d] within n bits
 * is clear, so the candidates become F & (F >> d) & ~rotr_n(H, half[d]):
 * every candidate popped is placed.  h < 2n, so one conditional subtract
 * reduces it.  Without strong, H stays empty and is never read.
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
 * pair one tuple shared by the whole batch.  One pass over the batch
 * checks that every witness's pairs partition 1..n-1, range-checking each
 * element before it becomes a bit, and reports a fault with the same
 * ValueError as skolem._pysearch.witness_pairs.  skolem.search calls it
 * with the GIL held, after the search's wall time is taken.
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

/* x + k mod n for x, k in 0..n-1. */
static inline int
half_sum(int x, int k, int n)
{
    int h = x + k;
    return h >= n ? h - n : h;
}

/* The n-bit mask m rotated right by k, 0 < k < n.  Bits at n and above
 * are left in: the callers AND the result's complement with F, which has
 * none there. */
static inline uint64_t
rotr(uint64_t m, int k, int n)
{
    return (m >> k) | (m << (n - k));
}

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
    int order[MAX_T], xs[MAX_T + 1];
    uint64_t cand[MAX_T + 1];
    for (int i = 0; i < t; i++)
        order[i] = descending ? t - i : i + 1;
    if (fixed_top && !(1 <= fixed_top && fixed_top <= n - 1 - order[0]))
        return PyErr_Format(PyExc_ValueError,
                            "fixed_top %d out of range for difference %d",
                            fixed_top, order[0]);

    int half[MAX_T + 1];
    for (int d = 1; d <= t; d++)
        half[d] = d * ((n + 1) / 2) % n;

    PyObject *witnesses = PyList_New(0);
    if (witnesses == NULL)
        return NULL;
    long long count = 0, nodes = 0;
    unsigned char batch[BATCH][MAX_T];
    int batched = 0;
    uint64_t free_ = (BIT(n) - 1) & ~BIT(0), hsums = 0;
    int level = 0;
    cand[0] = free_ & (free_ >> order[0]);
    if (fixed_top)
        cand[0] &= BIT(fixed_top);
    /* From here on no Python object is touched without the GIL. */
    PyThreadState *tstate = PyEval_SaveThread();
    for (;;) {
        if (cand[level] == 0) {
            /* Exhausted: back up and take back the parent's placement. */
            if (--level < 0)
                break;
            int d = order[level], x = xs[d];
            free_ |= BIT(x) | BIT(x + d);
            if (strong)
                hsums &= ~BIT(half_sum(x, half[d], n));
            continue;
        }
        int d = order[level], x = __builtin_ctzll(cand[level]);
        cand[level] &= cand[level] - 1;
        free_ &= ~(BIT(x) | BIT(x + d));
        if (strong)
            hsums |= BIT(half_sum(x, half[d], n));
        xs[d] = x;
        nodes++;
        if ((nodes & 0xFFFFF) == 0) {
            PyEval_RestoreThread(tstate);
            if (PyErr_CheckSignals() < 0)
                goto fail;
            tstate = PyEval_SaveThread();
        }
        if (++level < t) {
            int e = order[level];
            cand[level] = free_ & (free_ >> e);
            if (strong)
                cand[level] &= ~rotr(hsums, half[e], n);
            continue;
        }
        /* A starter.  Level t has no candidates, so the next pass backs up. */
        cand[level] = 0;
        count++;
        if (collect_limit < 0 || count <= collect_limit) {
            for (int i = 0; i < t; i++)
                batch[batched][i] = (unsigned char)xs[i + 1];
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
    /* The faults, reported in the pure kernel's order: the lowest
     * difference with an element out of range among the columns every
     * witness has, then the first shortest witness when it is short, then
     * the first faulty witness. */
    int bad_d = t + 1;
    Py_ssize_t min_len = PY_SSIZE_T_MAX;
    PyObject *shortest = NULL, *first_fault = NULL;
    for (Py_ssize_t k = 0; k < count; k++) {
        PyObject *w = PyTuple_GET_ITEM(witnesses, k);
        PyObject *xs = PySequence_Tuple(w);
        if (xs == NULL)
            goto fail;
        Py_ssize_t len = PyTuple_GET_SIZE(xs);
        if (len < min_len) {
            min_len = len;
            shortest = w;
        }
        int faulty = len != t, m = len < t ? (int)len : t;
        int diff_of[MAX_N]; /* the difference of the pair with smaller element x */
        uint64_t used = 0, lows = 0;
        for (int d = 1; d <= m; d++) {
            int overflow;
            long x = PyLong_AsLongAndOverflow(PyTuple_GET_ITEM(xs, d - 1), &overflow);
            if (x == -1 && PyErr_Occurred()) {
                Py_DECREF(xs);
                goto fail;
            }
            /* checked before any shift, so no shift reaches bit n */
            if (overflow || x < 1 || x > n - 1 - d) {
                if (d < bad_d)
                    bad_d = d;
                faulty = 1;
                continue;
            }
            uint64_t pair = BIT(x) | BIT(x + d);
            faulty |= (used & pair) != 0;
            used |= pair;
            lows |= BIT(x);
            diff_of[x] = d;
        }
        Py_DECREF(xs);
        if (faulty && first_fault == NULL)
            first_fault = w;
        if (first_fault != NULL)
            continue; /* the batch fails; only the faults still matter */
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
    if (bad_d <= t && bad_d <= min_len)
        PyErr_Format(PyExc_ValueError, "pairs of difference %d do not partition 1..%d",
                     bad_d, n - 1);
    else if (min_len < t)
        PyErr_Format(PyExc_ValueError, "witness %R does not partition 1..%d", shortest, n - 1);
    else if (first_fault != NULL)
        PyErr_Format(PyExc_ValueError, "witness %R does not partition 1..%d", first_fault,
                     n - 1);
    else
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
     "See skolem._pysearch.witness_pairs for the full contract; both return\n"
     "equal lists and raise the same ValueError."},
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

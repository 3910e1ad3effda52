/* Compiled backtracking kernel for (strong) Skolem starters, the
 * construction's folding and pair layout, and full_report's bulk verdicts.
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
 * witness_pairs, skolem_pairs and skolem_verdicts read pairs, and read them
 * one way: read_int takes each element only if it is an exact int in
 * range, pair_up enters each pair in a partner array mate, refusing an
 * element already paired, and marks its smaller element in a lows bitmap,
 * and layout pops the lows bits in ascending order into the canonical tuple
 * of pairs (x, mate[x]), with no set and no sort.  Only exact tuples, and
 * for skolem_pairs lists, are read, with no Python code run while they are,
 * so nothing can change them; for input read any other way each entry
 * point returns None or raises as its pure counterpart does.
 *
 * witness_pairs turns the walk's witnesses into what a PairSet holds: per
 * witness, the tuple of its pairs (x, x + d) in ascending x, each distinct
 * pair one tuple shared by the whole batch.  It checks each witness in
 * batch order, and the first one that is not an exact tuple of t exact
 * ints whose pairs partition 1..n-1 raises ValueError("witness xs does not
 * partition 1..n-1"), as skolem._pysearch.witness_pairs does.  The batch
 * may be any iterable, copied once.  skolem.search calls it with the GIL
 * held, after the search's wall time is taken.
 *
 * One word per mask limits n to 63; skolem.search sends larger orders to
 * the pure-Python kernel.
 *
 * fold and skolem_pairs serve skolem.construction, for any odd q up to
 * 2^31 - 1, with its pure functions as the fallback and the reference.
 * fold marks each x^2 mod q, x = 1..(q-1)/2, in a bitmap of q bits and
 * reads the two folded runs off it in one ascending scan, which also
 * checks that they partition 1..(q-1)/2.  skolem_pairs pairs up (d, 2d) or
 * (q - 2d, q - d) for each entry d, marking d in a bitmap to refuse a
 * repeated difference, and lays the pairs out.  For a valid q each returns
 * its answer or None, and the pure route raises and names the fault.
 *
 * skolem_verdicts serves skolem.starters.full_report: it decides in one
 * pass whether a full pair tuple is Skolem and has distinct sums, marking
 * each integer difference and each sum mod n in a bitmap as it pairs the
 * elements up.  When both hold, full_report returns the all-yes report from
 * it; on any other answer, or None for input it does not read exactly, the
 * pure lines decide, and they alone decide every "no" and name its fault.
 *
 * Every tuple the module builds holds only ints or only such tuples: the
 * raw witnesses, each pair and each tuple of pairs, and fold's runs and
 * the tuple that holds them.  Each is taken out of the cyclic GC as it is
 * built, which is safe because an immutable tuple of such contents cannot
 * be part of a cycle; the collector would in time untrack it itself, and
 * would scan it, and all it holds, until then.  The lists and
 * run_search's result tuple stay tracked.  Elements below 2^16 come from
 * one table that lives as long as the module, so every starter shares one
 * int per value: it keeps at most 2^16 ints, about 2 MB, and the 512 KB
 * pointer array is resident only where it is touched.
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
        PyObject_GC_UnTrack(w);
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
run_search(PyObject *self, PyObject *args)
{
    int n, strong, descending = 1, fixed_top = 0;
    long long stop_after = 0, collect_limit = 0;
    if (!PyArg_ParseTuple(args, "ip|LLpi:run_search", &n, &strong, &stop_after,
                          &collect_limit, &descending, &fixed_top))
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

#define WORDS(nbits) ((size_t)(nbits) / 64 + 1) /* a bitmap of bits 0..nbits */
#define TEST(bits, i) ((bits)[(i) >> 6] & BIT((i) & 63))
#define MARK(bits, i) ((bits)[(i) >> 6] |= BIT((i) & 63))

/* The ints 0..SHARED_INTS - 1 that int_tuple has handed out, each made on
 * first use and kept for the life of the module; filled and read only with
 * the GIL held. */
#define SHARED_INTS (1L << 16)
static PyObject *shared_ints[SHARED_INTS];

/* A new reference to the int v, or NULL with an exception. */
static PyObject *
new_int(long v)
{
    if ((unsigned long)v >= SHARED_INTS)
        return PyLong_FromLong(v);
    if (shared_ints[v] == NULL && (shared_ints[v] = PyLong_FromLong(v)) == NULL)
        return NULL;
    return Py_NewRef(shared_ints[v]);
}

/* The tuple, untracked, of the ints values[0..count), or NULL with an
 * exception. */
static PyObject *
int_tuple(const long *values, Py_ssize_t count)
{
    PyObject *out = PyTuple_New(count);
    for (Py_ssize_t i = 0; out != NULL && i < count; i++) {
        PyObject *v = new_int(values[i]);
        if (v == NULL)
            Py_CLEAR(out);
        else
            PyTuple_SET_ITEM(out, i, v);
    }
    if (out != NULL)
        PyObject_GC_UnTrack(out);
    return out;
}

/* The value of obj if it is an exact int in 1..hi, else 0.  Runs no Python
 * code, so it cannot change the container obj was read from. */
static long
read_int(PyObject *obj, long hi)
{
    int overflow = 0;
    long v = PyLong_CheckExact(obj) ? PyLong_AsLongAndOverflow(obj, &overflow) : 0;
    return overflow || v < 1 || v > hi ? 0 : v;
}

/* Pair x < y, both below the length of mate: mate[x] = y, mate[y] = x,
 * and x marked in lows; -1, changing nothing, if either is already paired.
 * Elements are at least 1, so 0 in mate means unpaired. */
static int
pair_up(int32_t *mate, uint64_t *lows, long x, long y)
{
    if (mate[x] || mate[y])
        return -1;
    mate[x] = (int32_t)y;
    mate[y] = (int32_t)x;
    MARK(lows, x);
    return 0;
}

/* The canonical tuple, untracked, of the t pairs (x, mate[x]), x the set
 * bits of lows below n in ascending order, or NULL with an exception.
 * With shared, a table of (t + 1) * n slots, the pair (x, x + d) is
 * shared[d * n + x], built on first use, owned by the table and reused. */
static PyObject *
layout(const int32_t *mate, const uint64_t *lows, long n, long t, PyObject **shared)
{
    PyObject *out = PyTuple_New(t);
    if (out == NULL)
        return NULL;
    Py_ssize_t i = 0;
    for (long w = 0; w <= (n - 1) / 64; w++) {
        for (uint64_t bits = lows[w]; bits; bits &= bits - 1) {
            long x = w * 64 + __builtin_ctzll(bits), xy[2] = {x, mate[x]};
            PyObject *own = NULL, **slot = shared ? &shared[(xy[1] - x) * n + x] : &own;
            if (*slot == NULL && (*slot = int_tuple(xy, 2)) == NULL) {
                Py_DECREF(out);
                return NULL;
            }
            PyTuple_SET_ITEM(out, i++, shared ? Py_NewRef(*slot) : *slot);
        }
    }
    PyObject_GC_UnTrack(out);
    return out;
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
    PyObject *shared[(MAX_T + 1) * MAX_N] = {NULL};
    for (Py_ssize_t k = 0; k < count; k++) {
        PyObject *xs = PyTuple_GET_ITEM(witnesses, k);
        /* only n entries are cleared: clearing all MAX_N made the call 20%
         * slower on the 2656 witnesses of n = 19 */
        int32_t mate[MAX_N];
        memset(mate, 0, n * sizeof(int32_t));
        uint64_t lows = 0;
        /* t disjoint pairs (x, x + d) within 1..n-1: a partition */
        int faulty = !PyTuple_CheckExact(xs) || PyTuple_GET_SIZE(xs) != t;
        for (int d = 1; d <= t && !faulty; d++) {
            long x = read_int(PyTuple_GET_ITEM(xs, d - 1), n - 1 - d);
            faulty = x == 0 || pair_up(mate, &lows, x, x + d) < 0;
        }
        if (faulty) {
            PyErr_Format(PyExc_ValueError, "witness %R does not partition 1..%d", xs, n - 1);
            goto fail;
        }
        PyObject *pairs = layout(mate, &lows, n, t, shared);
        if (pairs == NULL)
            goto fail;
        PyList_SET_ITEM(out, k, pairs);
    }
    goto done;
fail:
    Py_CLEAR(out);
done:
    for (int i = 0; i < (t + 1) * n; i++)
        Py_XDECREF(shared[i]);
    Py_DECREF(witnesses);
    return out;
}

/* The modulus q as a C long, or -1 with TypeError or ValueError set: fold,
 * skolem_pairs and skolem_verdicts take any odd q in
 * 3..MAX_Q, as skolem.residues checks a modulus, so every element, and 2d
 * for d <= t, fits even a 32-bit long, and every element an int32_t. */
#define MAX_Q 2147483647L

static long
modulus(PyObject *obj)
{
    if (!PyLong_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "q must be an int, got %.80s", Py_TYPE(obj)->tp_name);
        return -1;
    }
    int overflow;
    long q = PyLong_AsLongAndOverflow(obj, &overflow);
    if (q == -1 && PyErr_Occurred())
        return -1;
    if (overflow || q < 3 || q > MAX_Q || q % 2 == 0) {
        PyErr_SetString(PyExc_ValueError, "q must be odd and in 3..2147483647");
        return -1;
    }
    return q;
}

static PyObject *
fold(PyObject *self, PyObject *arg)
{
    long q = modulus(arg);
    if (q < 0)
        return NULL;
    long t = (q - 1) / 2;
    uint64_t *squares = PyMem_Calloc(WORDS(q), sizeof(uint64_t));
    long *runs = PyMem_Malloc((size_t)(2 * t) * sizeof(long));
    PyObject *out = NULL;
    if (squares == NULL || runs == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    long *high = runs + t; /* low in runs[0..t), high after it */
    /* (x + 1)^2 = x^2 + 2x + 1, and 2x + 1 < q: one subtraction reduces
     * s below 2q, which needs 64 bits */
    int64_t s = 1;
    for (long x = 1; x <= t; s += 2 * x + 1, x++) {
        if (s >= q)
            s -= q;
        MARK(squares, s);
    }
    /* A folding puts each d in 1..t in exactly one run, and 0 in neither: a
     * q whose squares include 0 has fewer than t others, so it fails the
     * count.  Bit q is never set */
    Py_ssize_t nlow = 0, nhigh = 0;
    int folds = 1;
    for (long d = 1; folds && d <= t; d++) {
        if (TEST(squares, d))
            runs[nlow++] = d;
        if (TEST(squares, q - d))
            high[nhigh++] = d;
        folds = nlow + nhigh == d;
    }
    PyObject *low_run = NULL, *high_run = NULL;
    if (!folds)
        out = Py_NewRef(Py_None);
    else if ((low_run = int_tuple(runs, nlow)) != NULL &&
             (high_run = int_tuple(high, nhigh)) != NULL &&
             (out = PyTuple_Pack(2, low_run, high_run)) != NULL)
        PyObject_GC_UnTrack(out);
    Py_XDECREF(low_run);
    Py_XDECREF(high_run);
done:
    PyMem_Free(squares);
    PyMem_Free(runs);
    return out;
}

static PyObject *
skolem_pairs(PyObject *self, PyObject *args)
{
    PyObject *qarg, *runs[2];
    if (!PyArg_ParseTuple(args, "OOO:skolem_pairs", &qarg, &runs[0], &runs[1]))
        return NULL;
    long q = modulus(qarg);
    if (q < 0)
        return NULL;
    long t = (q - 1) / 2;
    /* only a tuple or a list is read in place; anything else is the pure
     * route's to iterate */
    if (!(PyTuple_CheckExact(runs[0]) || PyList_CheckExact(runs[0])) ||
        !(PyTuple_CheckExact(runs[1]) || PyList_CheckExact(runs[1])) ||
        PySequence_Fast_GET_SIZE(runs[0]) + PySequence_Fast_GET_SIZE(runs[1]) != t)
        Py_RETURN_NONE;
    /* lows, the entries map and, in (q + 1) / 2 words, mate */
    uint64_t *lows = PyMem_Calloc(WORDS(q) + WORDS(t) + (q + 1) / 2, sizeof(uint64_t));
    if (lows == NULL)
        return PyErr_NoMemory();
    uint64_t *entries = lows + WORDS(q);
    int32_t *mate = (int32_t *)(entries + WORDS(t));
    PyObject *out;
    /* t distinct entries whose t pairs, (d, 2d) from runs[0] and
     * (q - 2d, q - d) from runs[1], are disjoint within 1..q-1: each
     * difference 1..t once, and a partition */
    for (int r = 0; r < 2; r++) {
        PyObject **items = PySequence_Fast_ITEMS(runs[r]);
        for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(runs[r]); i++) {
            long d = read_int(items[i], t), x = r ? q - 2 * d : d;
            if (d == 0 || TEST(entries, d) || pair_up(mate, lows, x, x + d) < 0) {
                out = Py_NewRef(Py_None);
                goto done;
            }
            MARK(entries, d);
        }
    }
    out = layout(mate, lows, q, t, NULL);
done:
    PyMem_Free(lows);
    return out;
}

/* full_report's bulk verdicts on a full pair tuple, in one pass: each
 * integer difference y - x is marked in a (t+1)-bit map and each sum
 * (x + y) mod n in an n-bit map, and a repeat, or a difference above t,
 * clears its verdict.  (is_skolem, is_strong, has_zero_sum), where is_strong
 * says only that the sums are distinct, or None for anything but a tuple of
 * exactly t tuples (x, y) of exact ints with 1 <= x < y <= n - 1 and no
 * element used twice.  mate and the maps are allocated only once the tuple
 * is known to hold t pairs, so they stay smaller than it: mate takes 4 bytes
 * per element, 8 per pair, and each input pair at least 64 bytes. */
static PyObject *
skolem_verdicts(PyObject *self, PyObject *args)
{
    PyObject *narg, *pairs;
    if (!PyArg_ParseTuple(args, "OO:skolem_verdicts", &narg, &pairs))
        return NULL;
    long n = modulus(narg);
    if (n < 0)
        return NULL;
    long t = (n - 1) / 2;
    if (!PyTuple_CheckExact(pairs) || PyTuple_GET_SIZE(pairs) != t)
        Py_RETURN_NONE;
    /* lows, the sums and diffs maps and, in (n + 1) / 2 words, mate */
    uint64_t *lows = PyMem_Calloc(2 * WORDS(n) + WORDS(t) + (n + 1) / 2, sizeof(uint64_t));
    if (lows == NULL)
        return PyErr_NoMemory();
    uint64_t *sums = lows + WORDS(n), *diffs = sums + WORDS(n);
    int32_t *mate = (int32_t *)(diffs + WORDS(t));
    int skolem = 1, strong = 1, zero_sum = 0;
    PyObject *out;
    for (Py_ssize_t i = 0; i < t; i++) {
        PyObject *pair = PyTuple_GET_ITEM(pairs, i);
        if (!PyTuple_CheckExact(pair) || PyTuple_GET_SIZE(pair) != 2)
            goto refuse;
        long x = read_int(PyTuple_GET_ITEM(pair, 0), n - 1),
             y = read_int(PyTuple_GET_ITEM(pair, 1), n - 1), d = y - x;
        /* a bad y reads 0, so d < 0 */
        if (x == 0 || d <= 0 || pair_up(mate, lows, x, y) < 0)
            goto refuse;
        /* (x + y) mod n without forming x + y, which may pass a 32-bit long */
        long s = x >= n - y ? x - (n - y) : x + y;
        if (d > t || TEST(diffs, d))
            skolem = 0;
        else
            MARK(diffs, d);
        if (TEST(sums, s))
            strong = 0;
        MARK(sums, s);
        zero_sum |= s == 0;
    }
    out = Py_BuildValue("(NNN)", PyBool_FromLong(skolem), PyBool_FromLong(strong),
                        PyBool_FromLong(zero_sum));
    goto done;
refuse:
    out = Py_NewRef(Py_None);
done:
    PyMem_Free(lows);
    return out;
}

static PyMethodDef methods[] = {
    {"run_search", run_search, METH_VARARGS,
     "run_search(n, strong, stop_after=0, collect_limit=0, descending=True, "
     "fixed_top=0, /)\n--\n\n"
     "Count and optionally collect Skolem starters of Z_n, 3 <= n <= 63.\n\n"
     "See skolem._pysearch.run_search for the full parameter contract; both\n"
     "kernels return identical (count, nodes, witnesses) triples."},
    {"witness_pairs", witness_pairs, METH_VARARGS,
     "witness_pairs(n, witnesses)\n--\n\n"
     "The canonical pair tuples of run_search witnesses, 3 <= n <= 63.\n\n"
     "witnesses is any iterable.  The first witness, in batch order, that\n"
     "is not an exact tuple of t exact ints whose pairs partition 1..n-1\n"
     "raises ValueError.  See skolem._pysearch.witness_pairs; both return\n"
     "equal lists and raise the same ValueError."},
    {"fold", fold, METH_O,
     "fold(q)\n--\n\n"
     "skolem.construction._fold(q) for any odd q in 3..2**31 - 1: (low, high),\n"
     "ascending, the d <= (q-1)/2 that are squares mod q and those whose\n"
     "q - d is.  None unless they partition 1..(q-1)/2: _fold then raises.\n"
     "Raises TypeError or ValueError for any other q."},
    {"skolem_pairs", skolem_pairs, METH_VARARGS,
     "skolem_pairs(q, direct, reflected)\n--\n\n"
     "The canonical pair tuple of (d, 2d) for d in direct and (q - 2d, q - d)\n"
     "for d in reflected, q as fold takes it.  None unless direct and\n"
     "reflected are tuples or lists of distinct exact ints in 1..(q-1)/2\n"
     "whose pairs partition 1..q-1: skolem.construction._skolem_pairs raises."},
    {"skolem_verdicts", skolem_verdicts, METH_VARARGS,
     "skolem_verdicts(n, pairs)\n--\n\n"
     "(is_skolem, sums distinct, has_zero_sum) for a tuple of exactly\n"
     "(n-1)/2 tuples (x, y) of exact ints, 1 <= x < y <= n - 1, no element\n"
     "used twice; None for anything else.  n as fold takes q.  The pure\n"
     "lines of skolem.starters.full_report decide every other case."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "skolem._fastsearch",
    "Compiled Skolem starter search, n <= 63, and, for any q the package\n"
    "accepts, the construction's checked folding and pair layout and\n"
    "full_report's bulk verdicts, each an answer or None.",
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

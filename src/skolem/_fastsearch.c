/* Compiled backtracking kernel for (strong) Skolem starters, the
 * construction's folding and pair layout, and full_report's one-pass
 * answer for a strong Skolem starter.
 *
 * Contract and semantics mirror skolem._pysearch.run_search exactly: the
 * same tree, walked in the same order, so both kernels return identical
 * (count, nodes, witnesses) triples.  The walk is bitwise (Knuth, TAOCP
 * 4A, 7.1.3 and 4B, 7.2.2): the free elements of 1..n-1 are one 64-bit
 * mask F, and the candidates x for difference d are the set bits of
 * F & (F >> d), visited in ascending order by ctz.
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
 * The walk has one level per difference, in assignment order, and each
 * level above the last runs one loop, LEVEL, defined once: it pops its
 * candidates in ascending order, and each placement computes the child's
 * F, G and candidates from the level's own, which stay in registers and
 * arguments, and enters the child only when it has a candidate.  So
 * backing up restores the state by returning, with nothing to undo, and no
 * level is entered only to be left at once.  Each level writes only the
 * child's F to an array of levels, and a witness is read off it: level i
 * placed the pair whose two bits F loses between levels i and i + 1.
 *
 * Every walk is entered the same way.  Its levels, from the top, are one
 * out-of-line function, upper, that tests strong per node and calls
 * itself for the next level down to the hand-off level, tail_at.  Most
 * placements happen in the last levels: in the strong n = 25 count, 98% of
 * them (1,403,900 of 1,428,464) in the last seven.  So for t > 7 these
 * take over at tail_at = t - 7 as seven nested loops, tail7 down to tail1,
 * one always_inline function per level with strong a constant, inlined
 * once with strong = 1 and once with 0, so neither instance tests it per
 * node, and without strong G is never computed.  Each level then has its
 * own branch sites, which the processor predicts per level, where one loop
 * for every level shares a few sites among them all; the strong n = 25
 * count took 7% less time (gcc 12 -O3, AMD EPYC).  upper's recursion
 * measured no cost against one loop over the upper levels, where
 * recursing through every level but tail1 made the strong and plain
 * n = 25 counts 15-30% slower.  Seven tail levels, not five, cut the
 * calls to upper in the strong n = 25 count from 102,906 to 4,434 and its
 * time by 7-9%, and the plain n = 25 count's by 3% (gcc 12 -O3, Intel
 * Xeon); six kept less of that.  A walk of t <= 7 levels, n <= 15, has no
 * tail nest: upper recurses down to tail_at = t - 1, the last level,
 * which runs tail1 as the out-of-line function last, and n = 3 enters last
 * at once.  tail1 is the one path that finds a starter.
 *
 * upper, with the tails inlined into it, is compiled twice from one text,
 * UPPER.  Built for baseline x86-64, each shift of a level takes its count
 * in CL, and c & -c and f & ~g each need a separate neg or not; BMI2's
 * shlx and shrx and BMI1's blsi and andn do each in one instruction.  So
 * GCC and clang on x86-64 also build upper_bmi2, for target bmi,bmi2, and
 * the module picks it once at import, on a CPU that has both, and names
 * the copy it runs in WALK, "bmi2" or "baseline".  The strong n = 25 and
 * n = 27 counts took 5-6% less time and the plain n = 25 count 7-8% (gcc
 * 12 -O3, AMD EPYC).  Elsewhere the baseline copy is the only one.  No
 * build flag is needed, and none is set: a module built with -mbmi2 dies
 * with SIGILL on a CPU without BMI2.
 *
 * The walk runs with the GIL released, so skolem.search can run several
 * top-level partitions at once on threads.  Kept witnesses wait in a C
 * buffer as rows, and the walk takes the GIL back only to flush a full
 * buffer and, in upper alone, to poll for Ctrl-C each time the node count
 * passes a threshold that then moves 2^20 nodes on; a tail subtree between
 * two checks has at most 14 free elements, so a poll comes at most a few
 * thousand nodes late.  Taking the GIL per witness made two threads
 * enumerating n = 25 slower than one.  Every error path and the result are
 * built with the GIL held.
 *
 * A row is t bytes, byte d - 1 the smaller element x of the difference-d
 * pair (x, x + d).  Called without a class, run_search flushes each row as
 * a bytes object.  Called with one, PairSet, it flushes each as an instance
 * of the class: it allocates one and sets its two slots, n and pairs, the
 * tuple of the row's pairs (x, x + d) in ascending x, each distinct pair
 * one tuple shared by every search.  It refuses, with TypeError, a class
 * whose instances have a __dict__ or a __weakref__, or that lacks either
 * slot of its own.  skolem.search calls it so, and its wall time takes in
 * the building.
 *
 * The flush, skolem_pairs and skolem_verdicts read pairs, and read them one
 * way: each element is a byte of the walk's own row or, through read_int,
 * an exact int taken only if it is in range; pair_up enters each pair in a
 * partner array mate, refusing an element already paired, which the walk's
 * own rows never repeat (SystemError if one did), and marks its smaller
 * element in a lows bitmap; and layout pops the lows bits in ascending
 * order into the canonical tuple of pairs (x, mate[x]), with no set and no
 * sort.
 *
 * One word per mask limits n to 63; skolem.search sends larger orders to
 * the pure-Python kernel.
 *
 * fold, skolem_pairs and skolem_verdicts keep one rule, for any odd q or n
 * up to 2^31 - 1, and raise, but for a failed allocation, only for one
 * outside it.  They read only exact tuples from Python, with no Python
 * code run while they do, so nothing can change them; and each returns the
 * one answer its caller reads, or None.  Each has a pure-Python twin, its caller's own lines, which is the
 * route without the module and the reference: it decides every input that
 * the entry answers None for, and it alone raises and names the fault.
 *
 * fold and skolem_pairs serve skolem.construction.  fold marks each
 * x^2 mod q, x = 1..(q-1)/2, in a bitmap of q bits and reads the two folded
 * runs off it in one ascending scan, which also checks that they partition
 * 1..(q-1)/2.  skolem_pairs pairs up (d, 2d) or (q - 2d, q - d) for each
 * entry d, marking d in a bitmap to refuse a repeated difference, and lays
 * the pairs out.
 *
 * skolem_verdicts serves skolem.starters.full_report, whose one report with
 * no fault to name is the all-yes one: for a strong Skolem starter it
 * returns has_zero_sum, marking each integer difference and each sum mod n
 * in a bitmap as it pairs the elements up, and for any other input None.
 *
 * Every tuple the module builds holds only ints or only such tuples: each
 * pair and each tuple of pairs, and fold's runs and the tuple that holds
 * them.  Each is taken out of the cyclic GC as it is built, which is safe
 * because an immutable tuple of such contents cannot be part of a cycle;
 * the collector would in time untrack it itself, and would scan it, and
 * all it holds, until then.  So is each PairSet that run_search builds,
 * for the same reason: frozen and slotted, it holds only an int and such a
 * tuple for good; the collector would never untrack it, and would rescan
 * every one kept so far.  So the class run_search is given must be frozen,
 * as PairSet is.  Rows are bytes, which the collector never tracks.  The
 * lists and run_search's result tuple stay tracked.
 * Elements below 2^16 come from one table that lives as long as the
 * module, so every starter shares one int per value: it keeps at most 2^16
 * ints, about 2 MB, and the 512 KB pointer array is resident only where it
 * is touched.  layout takes pairs from two more such tables, for the
 * flush and skolem_pairs alike.  Of the 2t pairs of q's two construction starters, t are (d, 2d), one for
 * each d in 1..t, and these are the same for every q, so each (d, 2d) with
 * d < 2^15 comes from one table, both of whose elements are shared ints:
 * it keeps at most 2^15 pairs, about 1.8 MB, and its 256 KB pointer array
 * is likewise resident only where it is touched.  Every other pair
 * (x, x + d) with x + d < 63 and d <= 31, which covers every pair of a
 * witness, comes from a 16 KB table of 32 x 63 slots.  So each such pair
 * is one object across every search and the construction.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h> /* T_OBJECT_EX */
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

/* One level of the walk: the difference d it places and the mask F it was
 * entered with, written by its parent for the witness.  Every other mask
 * of a level is a register or an argument of the function that runs it. */
struct level {
    uint64_t free_;
    int d;
};

/* The number of levels at the bottom of the walk that run as nested loops,
 * one function each; five and six made the strong n = 25 count slower (see
 * the header).  TAIL_OF(TAIL), the first of them, is tail<TAIL>: TAIL is
 * expanded as TAIL_OF's argument, before PASTE's ## joins it. */
#define TAIL 7
#define PASTE(a, b) a##b
#define TAIL_OF(k) PASTE(tail, k)

/* What every level of one walk reads and updates, among them tail_at, the
 * index of the level where upper hands the walk on (see UPPER), then what
 * only a flush reads: the class whose instances it builds, if any, and the
 * offsets of their slots n and pairs. */
struct walk {
    struct level *lv;
    int n, t, r, tail_at, batched;
    long long count, nodes, next_poll, stop_after, collect_limit;
    PyObject *witnesses;
    PyThreadState *tstate;
    unsigned char batch[BATCH][MAX_T];
    PyTypeObject *cls;
    Py_ssize_t n_at, pairs_at;
};

static int flush(struct walk *w);

/* The last level, at lv, entered with the masks free_ and hsums and the
 * candidates c != 0: each candidate placed is a starter.  Counts it, keeps
 * its witness, decoded from the levels' F, and flushes a full batch with
 * the GIL.  -1 with an exception and the GIL held, 1 to stop the walk, 0 to
 * go on. */
static inline __attribute__((always_inline)) int
tail1(struct walk *w, struct level *lv, uint64_t free_, uint64_t hsums, uint64_t c,
      const int strong)
{
    do {
        uint64_t low = c & -c;
        c ^= low;
        lv[1].free_ = free_ & ~(low | low << lv->d);
        w->nodes++;
        w->count++;
        if (w->collect_limit < 0 || w->count <= w->collect_limit) {
            /* x at level i: the lower bit F loses on the way to i + 1 */
            unsigned char *row = w->batch[w->batched];
            for (int i = 0; i < w->t; i++)
                row[w->lv[i].d - 1] =
                    (unsigned char)__builtin_ctzll(w->lv[i].free_ ^ w->lv[i + 1].free_);
            if (++w->batched == BATCH) {
                PyEval_RestoreThread(w->tstate);
                if (flush(w) < 0)
                    return -1;
                w->batched = 0;
                w->tstate = PyEval_SaveThread();
            }
        }
        if (w->stop_after > 0 && w->count >= w->stop_after)
            return 1;
    } while (c);
    return 0;
}

/* The function head, then the body, of a level above the last, at lv,
 * entered as tail1 is and returning as it does: each candidate placed
 * gives the child's F, written for the witness, and G, and the child is
 * entered, through the function child, only when it has a candidate. */
#define LEVEL(head, child)                                                          \
    head(struct walk *w, struct level *lv, uint64_t free_, uint64_t hsums,          \
         uint64_t c, const int strong)                                              \
    {                                                                               \
        do {                                                                        \
            uint64_t low = c & -c;                                                  \
            c ^= low;                                                               \
            uint64_t f = lv[1].free_ = free_ & ~(low | low << lv->d);               \
            w->nodes++;                                                             \
            uint64_t g = strong ? rotr(hsums | low, w->r, w->n) : 0;                \
            uint64_t cc = f & (f >> lv[1].d) & ~g;                                  \
            int stop = cc ? child(w, lv + 1, f, g, cc, strong) : 0;                 \
            if (stop)                                                               \
                return stop;                                                        \
        } while (c);                                                                \
        return 0;                                                                   \
    }

/* tail<k>, the level k from the bottom.  One function per level, not one
 * self-recursive always_inline function, which compiles only where the
 * compiler folds k at every call. */
#define TAIL_LEVEL(k, child) LEVEL(static inline __attribute__((always_inline)) int tail##k, child)
TAIL_LEVEL(2, tail1)
TAIL_LEVEL(3, tail2)
TAIL_LEVEL(4, tail3)
TAIL_LEVEL(5, tail4)
TAIL_LEVEL(6, tail5)
TAIL_LEVEL(7, tail6)

/* tail1 out of line: the last level of a walk of t <= TAIL levels, which
 * has no tail nest.  Inlining tail1 into upper instead made the whole
 * strong n = 19 walk, which never reaches it, 37% slower (gcc 12 -O3,
 * Intel Xeon). */
static __attribute__((noinline)) int
last(struct walk *w, struct level *lv, uint64_t free_, uint64_t hsums, uint64_t c,
     const int strong)
{
    return tail1(w, lv, free_, hsums, c, strong);
}

/* A level above w->tail_at as the out-of-line function upper, with
 * attributes attrs, that recurses, at most 24 frames deep, and tests strong
 * per node; the upper levels hold 2% of the placements of the strong
 * n = 25 count.  Its child, below_upper, at lv, entered as tail1 is, is
 * another upper level above w->tail_at, and at it either last, when
 * t <= TAIL, or else the first tail level, TAIL_OF(TAIL), inlined once
 * with strong = 1 and once with 0.  First, once the node count passes
 * next_poll, it polls for Ctrl-C with the GIL and moves next_poll 2^20
 * nodes on; a tail subtree has at most 14 free elements, so a poll comes
 * at most a few thousand nodes late.  Each UPPER is one copy of the pair,
 * whose below_upper enters its own upper. */
#define UPPER(upper, below_upper, attrs)                                                 \
    static attrs int upper(struct walk *, struct level *, uint64_t, uint64_t, uint64_t,  \
                           const int);                                                   \
    static inline __attribute__((always_inline)) int below_upper(                        \
        struct walk *w, struct level *lv, uint64_t free_, uint64_t hsums, uint64_t c,    \
        const int strong)                                                                \
    {                                                                                    \
        if (w->nodes >= w->next_poll) {                                                  \
            PyEval_RestoreThread(w->tstate);                                             \
            if (PyErr_CheckSignals() < 0)                                                \
                return -1; /* with the GIL held */                                       \
            w->tstate = PyEval_SaveThread();                                             \
            w->next_poll = w->nodes + (1 << 20);                                         \
        }                                                                                \
        if (lv < w->lv + w->tail_at)                                                     \
            return upper(w, lv, free_, hsums, c, strong);                                \
        if (__builtin_expect(w->t <= TAIL, 0))                                           \
            return last(w, lv, free_, hsums, c, strong);                                 \
        return strong ? TAIL_OF(TAIL)(w, lv, free_, hsums, c, 1)                         \
                      : TAIL_OF(TAIL)(w, lv, free_, hsums, c, 0);                        \
    }                                                                                    \
    LEVEL(static attrs int upper, below_upper)

UPPER(upper, below_upper, )

/* The walk's BMI1/BMI2 copy, built by GCC and clang for x86-64, and the
 * flag, set once at import on a CPU that has both, that runs it */
#if defined(__x86_64__) && defined(__GNUC__)
#define BMI2_WALK
UPPER(upper_bmi2, below_upper_bmi2, __attribute__((target("bmi,bmi2"))))
static int bmi2;
#endif

static PyObject *
run_search(PyObject *self, PyObject *args)
{
    int n, strong, descending = 1, fixed_top = 0;
    long long stop_after = 0, collect_limit = 0;
    PyObject *cls = Py_None;
    if (!PyArg_ParseTuple(args, "ip|LLpiO:run_search", &n, &strong, &stop_after,
                          &collect_limit, &descending, &fixed_top, &cls))
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
    /* d * 2^-1 mod n steps by -2^-1 = t or by 2^-1 = t + 1 */
    struct walk w = {.lv = lv, .n = n, .t = t, .r = descending ? t : t + 1,
                     .tail_at = t > TAIL ? t - TAIL : t - 1,
                     .next_poll = 1 << 20, .stop_after = stop_after,
                     .collect_limit = collect_limit, .n_at = -1, .pairs_at = -1};
    if (cls != Py_None) {
        if (!PyType_Check(cls))
            return PyErr_Format(PyExc_TypeError,
                                "run_search() argument 7 must be type or None, not %.80s",
                                Py_TYPE(cls)->tp_name);
        w.cls = (PyTypeObject *)cls;
        /* an instance must hold its two slots alone to leave the cyclic GC */
        if (w.cls->tp_dictoffset || w.cls->tp_weaklistoffset)
            return PyErr_Format(PyExc_TypeError,
                                "%.80s instances have a __dict__ or a __weakref__",
                                w.cls->tp_name);
        for (PyMemberDef *m = w.cls->tp_members; m != NULL && m->name != NULL; m++) {
            if (m->type == T_OBJECT_EX && strcmp(m->name, "n") == 0)
                w.n_at = m->offset;
            else if (m->type == T_OBJECT_EX && strcmp(m->name, "pairs") == 0)
                w.pairs_at = m->offset;
        }
        if (w.n_at < 0 || w.pairs_at < 0)
            return PyErr_Format(PyExc_TypeError, "%.80s has no slots n and pairs of its own",
                                w.cls->tp_name);
    }
    for (int i = 0; i < t; i++)
        lv[i].d = descending ? t - i : i + 1;
    if (fixed_top && !(1 <= fixed_top && fixed_top <= n - 1 - lv[0].d))
        return PyErr_Format(PyExc_ValueError,
                            "fixed_top %d out of range for difference %d",
                            fixed_top, lv[0].d);
    lv[0].free_ = (BIT(n) - 1) & ~BIT(0);
    /* lv[0] has a candidate, fixed_top being in range */
    uint64_t c = lv[0].free_ & (lv[0].free_ >> lv[0].d);
    if (fixed_top)
        c &= BIT(fixed_top);
    if ((w.witnesses = PyList_New(0)) == NULL)
        return NULL;
    /* From here on no Python object is touched without the GIL */
    w.tstate = PyEval_SaveThread();
    /* the walk from lv[0], whose one level, for t = 1, is its last */
    int stop;
    if (t == 1)
        stop = last(&w, lv, lv->free_, 0, c, strong);
#ifdef BMI2_WALK
    else if (bmi2)
        stop = upper_bmi2(&w, lv, lv->free_, 0, c, strong);
#endif
    else
        stop = upper(&w, lv, lv->free_, 0, c, strong);
    if (stop < 0) /* the GIL is held */
        goto fail;
    PyEval_RestoreThread(w.tstate);
    if (flush(&w) < 0)
        goto fail;
    return Py_BuildValue("LLN", w.count, w.nodes, w.witnesses);

fail: /* reached with the GIL held */
    Py_DECREF(w.witnesses);
    return NULL;
}

#define WORDS(nbits) ((size_t)(nbits) / 64 + 1) /* a bitmap of bits 0..nbits */
#define TEST(bits, i) ((bits)[(i) >> 6] & BIT((i) & 63))
#define MARK(bits, i) ((bits)[(i) >> 6] |= BIT((i) & 63))

/* The ints 0..SHARED_INTS - 1 that int_tuple has handed out, each made on
 * first use and kept for the life of the module; filled and read only with
 * the GIL held. */
#define SHARED_INTS (1L << 16)
static PyObject *shared_ints[SHARED_INTS];

/* The pairs that layout has handed out from a table, each made on first
 * use, untracked, and kept for the life of the module; filled and read
 * only with the GIL held.  doubled_pairs[d] is (d, 2d), d < DOUBLED_PAIRS,
 * so 2d < SHARED_INTS and both elements are shared ints, and
 * small_pairs[d][x] is any other (x, x + d) with x + d < MAX_N and
 * d <= MAX_T, which covers every pair of a witness. */
#define DOUBLED_PAIRS (SHARED_INTS / 2)
static PyObject *doubled_pairs[DOUBLED_PAIRS];
static PyObject *small_pairs[MAX_T + 1][MAX_N];

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
 * bits of lows below n in ascending order, or NULL with an exception.  A
 * pair (x, 2x) is doubled_pairs[x], and then any other (x, y) is
 * small_pairs[y - x][x], where the tables reach; the rest are built for
 * this call.  doubled_pairs is looked up first, so the construction, whose
 * other pairs are mostly large, touches few pages of small_pairs. */
static PyObject *
layout(const int32_t *mate, const uint64_t *lows, long n, long t)
{
    PyObject *out = PyTuple_New(t);
    if (out == NULL)
        return NULL;
    Py_ssize_t i = 0;
    for (long w = 0; w <= (n - 1) / 64; w++) {
        for (uint64_t bits = lows[w]; bits; bits &= bits - 1) {
            long x = w * 64 + __builtin_ctzll(bits), y = mate[x], xy[2] = {x, y};
            PyObject *own = NULL,
                     **slot = y == 2 * x && x < DOUBLED_PAIRS  ? &doubled_pairs[x]
                              : y < MAX_N && y - x <= MAX_T ? &small_pairs[y - x][x]
                                                            : &own;
            if (*slot == NULL && (*slot = int_tuple(xy, 2)) == NULL) {
                Py_DECREF(out);
                return NULL;
            }
            PyTuple_SET_ITEM(out, i++, slot == &own ? own : Py_NewRef(*slot));
        }
    }
    PyObject_GC_UnTrack(out);
    return out;
}

/* Append the batch's w->batched rows to w->witnesses: each row as a bytes
 * object of length t, or, with a class, as an instance whose slot n is n and
 * whose slot pairs is the row's canonical tuple of pairs, both instance and
 * tuple untracked.  0, or -1 with an exception.  Needs the GIL.  Kept out
 * of line, as the walk calls it once per BATCH witnesses: a larger version
 * inlined into the walk more than doubled upper's code and slowed the
 * strong n = 25 count by 2-4% (gcc 12 -O3, AMD EPYC). */
static __attribute__((noinline)) int
flush(struct walk *w)
{
    PyObject *order = w->cls == NULL ? NULL : new_int(w->n);
    if (w->cls != NULL && order == NULL)
        return -1;
    int err = 0;
    for (int k = 0; k < w->batched && !err; k++) {
        const unsigned char *row = w->batch[k];
        PyObject *item;
        if (w->cls == NULL) {
            item = PyBytes_FromStringAndSize((const char *)row, w->t);
        } else {
            /* only n entries are cleared: clearing all MAX_N made the
             * PairSets of the 2656 witnesses of n = 19 20% slower to build */
            int32_t mate[MAX_N];
            memset(mate, 0, w->n * sizeof(int32_t));
            uint64_t lows = 0;
            int repeats = 0;
            for (int d = 1; d <= w->t; d++)
                repeats |= pair_up(mate, &lows, row[d - 1], row[d - 1] + d);
            if (repeats)
                PyErr_SetString(PyExc_SystemError, "run_search built a row that repeats an element");
            PyObject *pairs = repeats ? NULL : layout(mate, &lows, w->n, w->t);
            item = pairs == NULL ? NULL : w->cls->tp_alloc(w->cls, 0);
            if (item == NULL) {
                Py_XDECREF(pairs);
            } else {
                *(PyObject **)((char *)item + w->n_at) = Py_NewRef(order);
                *(PyObject **)((char *)item + w->pairs_at) = pairs;
                if (PyType_IS_GC(w->cls))
                    PyObject_GC_UnTrack(item);
            }
        }
        err = item == NULL || PyList_Append(w->witnesses, item) < 0;
        Py_XDECREF(item);
    }
    Py_XDECREF(order);
    return err ? -1 : 0;
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
    /* only exact tuples are read; anything else is the pure route's */
    if (!PyTuple_CheckExact(runs[0]) || !PyTuple_CheckExact(runs[1]) ||
        PyTuple_GET_SIZE(runs[0]) + PyTuple_GET_SIZE(runs[1]) != t)
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
        for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(runs[r]); i++) {
            long d = read_int(PyTuple_GET_ITEM(runs[r], i), t), x = r ? q - 2 * d : d;
            if (d == 0 || TEST(entries, d) || pair_up(mate, lows, x, x + d) < 0) {
                out = Py_NewRef(Py_None);
                goto done;
            }
            MARK(entries, d);
        }
    }
    out = layout(mate, lows, q, t);
done:
    PyMem_Free(lows);
    return out;
}

/* full_report's answer for a strong Skolem starter, in one pass: each
 * integer difference y - x is marked in a (t+1)-bit map and each sum
 * (x + y) mod n in an n-bit map.  has_zero_sum, True or False, for a tuple
 * of exactly t tuples (x, y) of exact ints with 1 <= x < y <= n - 1, no
 * element used twice, each difference at most t and none twice, and no sum
 * twice; None for anything else.  It stops at the first bad entry, reused
 * element or difference above t, and gathers a repeated difference or sum
 * in one word that it reads at the end: stopping at those too took 6-7%
 * longer on a strong Skolem starter, the one input it answers (gcc 12 -O3,
 * Intel Xeon).  mate and the maps are allocated only once the tuple is
 * known to hold t pairs, so they stay smaller than it: mate takes 4 bytes
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
    uint64_t repeats = 0;
    int zero_sum = 0;
    PyObject *out = Py_None;
    for (Py_ssize_t i = 0; i < t; i++) {
        PyObject *pair = PyTuple_GET_ITEM(pairs, i);
        if (!PyTuple_CheckExact(pair) || PyTuple_GET_SIZE(pair) != 2)
            goto done;
        long x = read_int(PyTuple_GET_ITEM(pair, 0), n - 1),
             y = read_int(PyTuple_GET_ITEM(pair, 1), n - 1), d = y - x;
        /* a bad y reads 0, so d < 0 */
        if (x == 0 || d <= 0 || d > t || pair_up(mate, lows, x, y) < 0)
            goto done;
        /* (x + y) mod n without forming x + y, which may pass a 32-bit long */
        long s = x >= n - y ? x - (n - y) : x + y;
        repeats |= TEST(diffs, d) | TEST(sums, s);
        MARK(diffs, d);
        MARK(sums, s);
        zero_sum |= s == 0;
    }
    if (!repeats)
        out = zero_sum ? Py_True : Py_False;
done:
    PyMem_Free(lows);
    return Py_NewRef(out);
}

static PyMethodDef methods[] = {
    {"run_search", run_search, METH_VARARGS,
     "run_search(n, strong, stop_after=0, collect_limit=0, descending=True, "
     "fixed_top=0, cls=None, /)\n--\n\n"
     "Count and optionally collect Skolem starters of Z_n, 3 <= n <= 63.\n\n"
     "See skolem._pysearch.run_search for the full parameter contract; both\n"
     "kernels return identical (count, nodes, witnesses) triples.  The\n"
     "instances of cls, PairSet, are built in C and untracked; TypeError for\n"
     "a cls whose instances have a __dict__ or __weakref__, or that lacks\n"
     "either slot n or pairs of its own."},
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
     "reflected are tuples of distinct exact ints in 1..(q-1)/2 whose pairs\n"
     "partition 1..q-1: skolem.construction._skolem_pairs then decides."},
    {"skolem_verdicts", skolem_verdicts, METH_VARARGS,
     "skolem_verdicts(n, pairs)\n--\n\n"
     "has_zero_sum, True or False, when pairs is a strong Skolem starter of\n"
     "Z_n: a tuple of (n-1)/2 tuples (x, y) of exact ints, 1 <= x < y <= n - 1,\n"
     "that partition 1..n-1 with differences 1..(n-1)/2 and distinct sums\n"
     "mod n.  None for anything else: the pure lines of\n"
     "skolem.starters.full_report then decide.  n as fold takes q."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "skolem._fastsearch",
    "Compiled Skolem starter search, n <= 63, and, for any q the package\n"
    "accepts, the construction's checked folding and pair layout and\n"
    "full_report's one-pass answer for a strong Skolem starter, each an\n"
    "answer or None.",
    -1, methods,
};

PyMODINIT_FUNC
PyInit__fastsearch(void)
{
    const char *walk_name = "baseline";
#ifdef BMI2_WALK
    __builtin_cpu_init();
    if (__builtin_cpu_supports("bmi") && __builtin_cpu_supports("bmi2")) {
        bmi2 = 1;
        walk_name = "bmi2";
    }
#endif
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && (PyModule_AddIntConstant(m, "MAX_N", MAX_N) < 0 ||
                      PyModule_AddStringConstant(m, "WALK", walk_name) < 0))
        Py_CLEAR(m);
    return m;
}

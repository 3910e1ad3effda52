"""Exhaustive backtracking kernel for (strong) Skolem starters, pure Python.

Same contract, the same tree and the same bitset walk as the compiled
kernel in _fastsearch, over Python ints, so n has no word limit; it stops
at n = 257, the last order whose witnesses fit in bytes.
The free elements of 1..n-1 are one mask F, and the candidates x for
difference d are the set bits of F & (F >> d), popped in ascending order
(the lowest bit is c & -c; bit_length turns bits back into elements).
With strong, the pair sums 2x + d mod n must differ, so the half-sums
x + d * 2^-1 mod n must too.  Each level keeps them in its own frame: bit
x of its mask G is set iff placing (x, x + d) there would repeat a
half-sum, so F & (F >> d) & ~G holds exactly the level's candidates and
every candidate popped is placed.  Consecutive half-shifts d * 2^-1
differ by r = t (descending) or t + 1 (ascending) mod n, so placing x
gives the child G' = rotr_n(G | bit x, r), cut to n bits so that the int
does not grow with depth.  The walk keeps a stack of levels instead of
recursing, as the compiled one does through its upper levels, so its
stack depth does not grow with n.  Each level holds its untried
candidates and the masks F and G it was entered with; a placement
computes the next level's masks and candidates from its own and enters
it only when it has a candidate, so backing up restores the state by
leaving the level, with nothing to undo.  Here strong is tested at each
node; the compiled kernel fixes it per compiled instance of its last
seven levels.

A witness is the walk's row, an exact bytes object of length t with
xs[d - 1] the smaller element of the difference-d pair, which the tests
and perfbench's kernel_pairs decode, or, when run_search is given a class,
PairSet, an instance of it: the tuple of its pairs (x, x + d) in ascending
x, each pair one tuple per call from a table of every pair the walk can
place, which cls._from_witnesses wraps.  The compiled kernel builds them
in C.

skolem.search runs this module when the extension did not build and for
n > 63, calling run_search with PairSet once per top-level partition
(descending order, fixed_top = 1..t, or only 1..ceil(t/2) for a count,
which weighs the mirrored parts twice); the tests use it as a second
implementation of the compiled one, and the ascending order as an
independent route to the same counts.
"""


def run_search(
    n: int,
    strong: bool,
    stop_after: int = 0,
    collect_limit: int = 0,
    descending: bool = True,
    fixed_top: int = 0,
    cls=None,
    /,
):
    """Walk every Skolem starter of Z_n, counting and optionally collecting.

    A Skolem starter has one pair (x, x + d) per integer difference d in
    1..t with t = (n - 1) // 2 and 1 <= x < x + d <= n - 1, so the walk
    assigns differences one at a time and the element and (with strong)
    sum-mod-n constraints prune as it goes.

    stop_after > 0 aborts the walk once that many starters were found.
    collect_limit caps the collected witnesses: -1 keeps every one, 0 none,
    k > 0 the first k in depth-first order; counting always continues past
    the cap.  descending picks the assignment order (d from t down to 1,
    or 1 up to t).  fixed_top != 0 restricts the first assigned difference
    to x = fixed_top, which partitions the space into the parts that
    skolem.search walks.

    Returns (count, nodes, witnesses): nodes is the number of successful
    pair placements, witnesses a list of bytes objects xs with xs[d - 1]
    the smaller element of the difference-d pair, or, given cls, PairSet,
    of its instances of the same pairs.  No argument has a keyword.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 3, got {n}")
    if n > 257:  # a witness's elements, x <= n - 2, must each fit in a byte
        raise ValueError(f"n = {n} exceeds the pure kernel's limit of 257")
    t = (n - 1) // 2
    order = list(range(t, 0, -1)) if descending else list(range(1, t + 1))
    if fixed_top and not 1 <= fixed_top <= n - 1 - order[0]:
        raise ValueError(
            f"fixed_top {fixed_top} out of range for difference {order[0]}"
        )
    full = (1 << n) - 1
    # rotr_n(h, r) is h >> r | h << wrap: a level's frame rotated to its child's
    r, wrap = (t, t + 1) if descending else (t + 1, t)
    last = t - 1
    # Per level: cand, its untried candidates for difference order[level];
    # frees and hsums_at, the masks F and G it was entered with; xbit, the
    # element bit it placed last, read only to decode a witness.
    cand = [0] * t
    frees = [0] * t
    hsums_at = [0] * t
    xbit = [0] * t
    # the levels of the differences 1..t, in that order
    by_difference = sorted(range(t), key=order.__getitem__)
    free = frees[0] = full ^ 1
    cand[0] = free & (free >> order[0])
    if fixed_top:
        cand[0] &= 1 << fixed_top
    # per level, each element bit it can place -> that pair, built at the
    # first witness kept as a pair set
    pairs = []
    count = 0
    nodes = 0
    witnesses = []
    level = 0
    while True:
        c = cand[level]
        if not c:
            # Exhausted: back up to the parent, whose masks are unchanged.
            level -= 1
            if level < 0:
                break
            continue
        low = c & -c
        cand[level] = c ^ low
        free = frees[level] ^ (low | (low << order[level]))
        xbit[level] = low
        nodes += 1
        if level < last:
            c = free & (free >> order[level + 1])
            if strong:
                h = hsums_at[level] | low
                h = hsums_at[level + 1] = (h >> r | h << wrap) & full
                c &= ~h
            if c:  # else the next pass pops this level's next candidate
                level += 1
                frees[level] = free
                cand[level] = c
            continue
        # A starter.  The next pass pops this level's next candidate.
        count += 1
        if collect_limit < 0 or len(witnesses) < collect_limit:
            if cls is None:
                witnesses.append(bytes(xbit[i].bit_length() - 1 for i in by_difference))
            else:
                pairs = pairs or [{1 << x: (x, x + d) for x in range(1, n - d)} for d in order]
                witnesses.append(tuple(sorted(map(dict.__getitem__, pairs, xbit))))
        if 0 < stop_after <= count:
            break
    if cls is not None:
        witnesses = list(cls._from_witnesses(n, witnesses))
    return count, nodes, witnesses


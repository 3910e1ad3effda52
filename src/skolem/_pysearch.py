"""Exhaustive backtracking kernel for (strong) Skolem starters, pure Python.

Same contract, the same tree and the same iterative bitset walk as the
compiled kernel in _fastsearch, over Python ints, so n has no word limit.
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
recursing, so its stack depth does not grow with n.  Each level holds
its untried candidates and the masks F and G it was entered with; a
placement computes the next level's masks and candidates from its own
and enters it only when it has a candidate, so backing up restores the
state by leaving the level, with nothing to undo.  Here strong is tested
at each node; the compiled kernel fixes it per compiled instance of its
walk.

witness_pairs turns the walk's witnesses into the canonical pair tuples a
PairSet holds, one tuple shared per distinct pair, and names the first
witness whose pairs do not partition 1..n-1.  The raw witness format,
xs[d - 1] the smaller element of the difference-d pair, is decoded here
and in _fastsearch, and also by the tests and perfbench's kernel_pairs.

skolem.search runs this module when the extension did not build and for
n > 63, calling run_search once per top-level partition (descending
order, fixed_top = 1..t, or only 1..ceil(t/2) for a count, which weighs
the mirrored parts twice) and witness_pairs once on the merged witnesses;
the tests use it as a second implementation of the compiled one, and the
ascending order as an independent route to the same counts.
"""

from functools import reduce
from itertools import zip_longest
from operator import getitem, index, or_


def run_search(
    n: int,
    strong: bool,
    stop_after: int = 0,
    collect_limit: int = 0,
    descending: bool = True,
    fixed_top: int = 0,
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
    pair placements, witnesses a list of tuples xs with xs[d - 1] the
    smaller element of the difference-d pair.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 3, got {n}")
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
    count = 0
    nodes = 0
    witnesses: list[tuple[int, ...]] = []
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
            witnesses.append(tuple(xbit[i].bit_length() - 1 for i in by_difference))
        if 0 < stop_after <= count:
            break
    return count, nodes, witnesses


def witness_pairs(n: int, witnesses) -> list[tuple[tuple[int, int], ...]]:
    """The canonical pairs of run_search witnesses, for a valid n: per
    witness xs, the tuple of its pairs (x, x + d), xs[d - 1] = x, in
    ascending x.  The first witness, in batch order, that is not t
    in-range entries whose pairs partition 1..n-1 raises ValueError; an
    element that operator.index refuses is never in range, though it may
    equal one (9.0 == 9).

    Each difference column is tabled over its in-range values only, which
    keeps every mask within n bits: x maps to the pair (x, x + d), one
    tuple shared by every witness, and to its bitmask, so looking up an
    element out of range is a KeyError.  t pairs partition 1..n-1 iff
    their masks OR to bits 1..n-1.
    """
    witnesses = tuple(witnesses)  # read twice: into rows, and to name a fault
    rows = [_indices(xs) for xs in witnesses]
    t = (n - 1) // 2
    pairs, masks = [], []
    for d, column in zip(range(1, t + 1), zip_longest(*rows, fillvalue=0)):
        values = {*column}.intersection(range(1, n - d))
        pairs.append({x: (x, x + d) for x in values})
        masks.append({x: 1 << x | 1 << x + d for x in values})
    full = (1 << n) - 2
    out = []
    for xs, row in zip(witnesses, rows):
        try:
            partition = len(row) == t and reduce(or_, map(getitem, masks, row), 0) == full
        except KeyError:
            partition = False
        if not partition:
            raise ValueError(f"witness {xs!r} does not partition 1..{n - 1}")
        out.append(tuple(sorted(map(getitem, pairs, row))))
    return out


def _indices(xs) -> tuple[int, ...]:
    """The elements of witness xs as ints, or () if operator.index
    refuses one of them: t >= 1, so () is never a witness."""
    elements = map(index, xs)  # a witness that is not iterable raises here
    try:
        return tuple(elements)
    except TypeError:
        return ()

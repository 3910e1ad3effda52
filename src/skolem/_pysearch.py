"""Exhaustive backtracking kernel for (strong) Skolem starters, pure Python.

Same contract, the same tree and the same iterative bitset walk as the
compiled kernel in _fastsearch, over Python ints, so n has no word limit.
The free elements of 1..n-1 are one mask F, and the candidates x for
difference d are the set bits of F & (F >> d), popped in ascending order
(the lowest bit is c & -c; bit_length turns bits back into elements).
With strong, the pair sums 2x + d mod n must differ, so the half-sums
h = x + half[d] mod n must too, where half[d] = d * 2^-1 =
d * (n + 1) / 2 mod n.  H is the mask of half-sums in use, and
F & (F >> d) & ~rotr_n(H, half[d]) holds exactly the candidates whose
half-sum is free, so every candidate popped is placed.  The walk keeps
one candidate mask per level instead of recursing, so its stack depth
does not grow with n.

witness_pairs turns the walk's witnesses into the canonical pair tuples a
PairSet holds, one tuple shared per distinct pair, and checks that each
witness's pairs partition 1..n-1; the raw witness format is known only
here and in _fastsearch.

skolem.search runs this module when the extension did not build and for
n > 63, calling run_search once per top-level partition (descending
order, fixed_top = 1..t) and witness_pairs once on the merged witnesses;
the tests use it as a second implementation of the compiled one, and the
ascending order as an independent route to the same counts.
"""

from functools import reduce
from operator import getitem, or_


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
    half = [d * ((n + 1) // 2) % n for d in range(t + 1)]
    full = (1 << n) - 1
    free = full ^ 1
    hsums = 0
    # cand[level]: the untried candidates for difference order[level];
    # xbit[level], hbit[level]: the element and half-sum bits of the pair
    # placed at that level.
    cand = [0] * (t + 1)
    xbit = [0] * t
    hbit = [0] * t
    # the levels of the differences 1..t, in that order
    by_difference = sorted(range(t), key=order.__getitem__)
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
            # Exhausted: back up and take back the parent's placement.
            level -= 1
            if level < 0:
                break
            low = xbit[level]
            free |= low | (low << order[level])
            hsums ^= hbit[level]
            continue
        low = c & -c
        cand[level] = c ^ low
        d = order[level]
        free ^= low | (low << d)
        if strong:
            # bit x + half[d] mod n: x + half[d] < 2n, so one shift reduces it
            h = low << half[d]
            if h > full:
                h >>= n
            hsums |= h
            hbit[level] = h
        xbit[level] = low
        nodes += 1
        level += 1
        if level < t:
            e = order[level]
            c = free & (free >> e)
            if strong:
                # rotr_n(H, k); its bits at n and above miss F anyway
                k = half[e]
                c &= ~((hsums >> k) | (hsums << (n - k)))
            cand[level] = c
            continue
        # A starter.  Level t has no candidates, so the next pass backs up.
        count += 1
        if collect_limit < 0 or len(witnesses) < collect_limit:
            witnesses.append(tuple(xbit[i].bit_length() - 1 for i in by_difference))
        if 0 < stop_after <= count:
            break
    return count, nodes, witnesses


def witness_pairs(n: int, witnesses) -> list[tuple[tuple[int, int], ...]]:
    """The canonical pairs of run_search witnesses, for a valid n: per
    witness xs, the tuple of its pairs (x, x + d), xs[d - 1] = x, in
    ascending x.  Every witness must have t entries whose pairs partition
    1..n-1, else ValueError.

    Each difference column is range-checked once, which keeps every
    mask within n bits, and tabled: x maps to the pair (x, x + d), one
    tuple shared by every witness, and to its bitmask.  t pairs
    partition 1..n-1 iff their masks OR to bits 1..n-1.
    """
    t = (n - 1) // 2
    pairs, masks = [], []
    for d, column in zip(range(1, t + 1), zip(*witnesses)):
        values = {*column}
        if min(values) < 1 or max(values) + d > n - 1:
            raise ValueError(f"pairs of difference {d} do not partition 1..{n - 1}")
        pairs.append({x: (x, x + d) for x in values})
        masks.append({x: 1 << x | 1 << x + d for x in values})
    if witnesses and len(masks) < t:  # zip stopped at the shortest witness
        xs = min(witnesses, key=len)
        raise ValueError(f"witness {xs!r} does not partition 1..{n - 1}")
    full = (1 << n) - 2
    out = []
    for xs in witnesses:
        if len(xs) != t or reduce(or_, map(getitem, masks, xs), 0) != full:
            raise ValueError(f"witness {xs!r} does not partition 1..{n - 1}")
        out.append(tuple(sorted(map(getitem, pairs, xs))))
    return out

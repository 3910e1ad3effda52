"""Exhaustive backtracking kernel for (strong) Skolem starters, pure Python.

Same contract and the same tree as the compiled kernel in _fastsearch.
skolem.search runs this one when the extension did not build and for
n > 63, which the compiled kernel's 64-bit masks cannot hold, calling it
once per top-level partition (descending order, fixed_top = 1..t); the
tests use it as the reference for the compiled one, and the ascending
order as an independent route to the same counts.
"""


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
    used = bytearray(n)
    sum_seen = bytearray(n)
    xs = [0] * (t + 1)
    count = 0
    nodes = 0
    witnesses: list[tuple[int, ...]] = []

    def walk(level: int) -> bool:
        # Returns True to abort the whole walk (stop_after reached).
        nonlocal count, nodes
        if level == t:
            count += 1
            if collect_limit < 0 or len(witnesses) < collect_limit:
                witnesses.append(tuple(xs[1:]))
            return 0 < stop_after <= count
        d = order[level]
        if level == 0 and fixed_top:
            lo, hi = fixed_top, fixed_top
        else:
            lo, hi = 1, n - 1 - d
        for x in range(lo, hi + 1):
            y = x + d
            if used[x] or used[y]:
                continue
            if strong:
                s = (x + y) % n
                if sum_seen[s]:
                    continue
                sum_seen[s] = 1
            used[x] = used[y] = 1
            xs[d] = x
            nodes += 1
            if walk(level + 1):
                return True
            used[x] = used[y] = 0
            if strong:
                sum_seen[(x + y) % n] = 0
        return False

    walk(0)
    return count, nodes, witnesses

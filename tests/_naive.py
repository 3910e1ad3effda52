"""Independent reference implementations used only by the tests.

Nothing here imports the package under test.  naive_pair_set validates
and canonicalises a pair list one pair at a time; PairSet(n, pairs) must
give the same pairs, element types and messages.  naive_verdicts
re-decides the three starter properties with quadratic scans over plain
tuples, and element_driven_starters enumerates (strong) Skolem starters
by always extending the smallest uncovered element, a different strategy
from the difference-driven package kernels; count_skolem_starters counts
the plain ones the same way, caching equal states, and
plain_count_by_coefficients counts them with no search, as a coefficient
of a polynomial.  generator_starter
builds the construction's starter in the paper's generator form, while the
package builds it from the set of quadratic residues, and
cycle_qr_generators lists every generator alpha of the residues by
walking each residue's cycle of powers, with no order factorisation.
sum_array_walk walks the package kernels' tree recursively, testing each
candidate's own sum where the kernels mask candidates by half-sums, and
row_pairs decodes a row of that walk or of the kernels into its pairs.

The number theory has its own oracles too, sharing no code with
skolem.residues: primes_in sieves a window for its primes, where the
package runs trial division and Miller-Rabin, and jacobi computes the
Jacobi symbol by quadratic reciprocity, where the package squares every
element or raises to Euler's power.
"""

from itertools import compress
from math import isqrt, prod


def primes_in(lo, hi):
    """The set of primes p with 0 <= lo <= p < hi: a segmented sieve of
    Eratosthenes, which strikes the multiples of each prime up to the
    square root of hi out of the window, those primes coming from the
    same sieve run below it."""
    flags = bytearray([1]) * (hi - lo)
    for k in range(lo, min(hi, 2)):
        flags[k - lo] = 0
    for p in primes_in(0, isqrt(hi - 1) + 1) if hi > 4 else ():
        start = max(p * p, -(-lo // p) * p)
        flags[start - lo :: p] = bytes(len(range(start, hi, p)))
    return set(compress(range(lo, hi), flags))


def jacobi(a, n):
    """The Jacobi symbol (a/n) for odd n > 0, which for a prime n is the
    Legendre symbol: 1 for a residue, -1 for a non-residue, 0 when n
    divides a.  Pulls out factors 2 by the supplementary law and swaps a
    and n by quadratic reciprocity, as Euclid's algorithm does."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def naive_pair_set(n, pairs):
    """The canonical sorted (small, large) pairs of a pair list over Z_n, or
    the exception for its first fault, checked pair by pair in input order.

    n must already be a valid modulus.  Expected messages follow PairSet,
    which quotes a faulty pair or element by its first 80 characters.
    """

    def cut(value):
        text = repr(value)
        return text if len(text) <= 80 else f"{text[:80]}…"

    seen = set()
    canon = []
    for raw in pairs:
        pair = tuple(raw)
        if len(pair) != 2:
            raise ValueError(f"pair {cut(raw)} does not have exactly two elements")
        x, y = pair
        for el in (x, y):
            if not isinstance(el, int) or isinstance(el, bool):
                raise TypeError(f"pair element {cut(el)} is not an int")
            if not 1 <= el <= n - 1:
                raise ValueError(f"element {el} outside 1..{n - 1}")
        if x == y:
            raise ValueError(f"pair ({x}, {y}) repeats an element")
        for el in (x, y):
            if el in seen:
                raise ValueError(f"element {el} appears in more than one pair")
            seen.add(el)
        canon.append((x, y) if x < y else (y, x))
    return tuple(sorted(canon))


def naive_verdicts(n, pairs):
    """(is_starter, is_strong, is_skolem, has_zero_sum) for disjoint pairs.

    pairs must already be well-formed: elements in 1..n-1, none reused.
    Strong and Skolem are False whenever starter is, matching the library
    convention that both properties are defined only for starters.
    """
    t = (n - 1) // 2
    elements = []
    for x, y in pairs:
        elements.append(x)
        elements.append(y)
    covers = sorted(elements) == list(range(1, n))

    classes = []
    for x, y in pairs:
        d = (y - x) % n
        classes.append(frozenset({d, n - d}))
    no_class_repeats = True
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            if classes[i] == classes[j]:
                no_class_repeats = False
    is_starter = covers and no_class_repeats

    sums = [(x + y) % n for x, y in pairs]
    distinct_sums = True
    for i in range(len(sums)):
        for j in range(i + 1, len(sums)):
            if sums[i] == sums[j]:
                distinct_sums = False
    is_strong = is_starter and distinct_sums

    diffs = sorted(abs(y - x) for x, y in pairs)
    is_skolem = is_starter and diffs == list(range(1, t + 1))

    return is_starter, is_strong, is_skolem, 0 in sums


def generator_starter(q, alpha, beta):
    """The paper's S_beta = {{alpha**i, beta * alpha**i} : i = 1..(q-1)/2}.

    Returned as sorted (small, large) pairs, the form of PairSet.pairs.
    No check is made that alpha generates the residues mod q.
    """
    pairs = []
    for i in range(1, (q - 1) // 2 + 1):
        x = pow(alpha, i, q)
        y = beta * x % q
        pairs.append((min(x, y), max(x, y)))
    return tuple(sorted(pairs))


def cycle_qr_generators(q):
    """Every generator of the quadratic residues mod prime q, ascending.

    A residue generates when its powers first return to 1 after exactly
    (q-1)/2 steps, counted by plain repeated multiplication.
    """
    h = (q - 1) // 2
    gens = []
    for x in sorted({y * y % q for y in range(1, q)}):
        z, k = x, 1
        while z != 1:
            z = z * x % q
            k += 1
        if k == h:
            gens.append(x)
    return gens


def element_driven_starters(n, strong):
    """Every (strong) Skolem starter of Z_n as a set of frozensets of pairs.

    Branches on partners for the smallest uncovered element instead of on
    differences, so agreement with the package kernels is meaningful.
    """
    t = (n - 1) // 2
    found = []
    covered = set()
    diffs_used = set()
    sums_used = set()
    pairs = []

    def walk():
        free = [e for e in range(1, n) if e not in covered]
        if not free:
            found.append(frozenset(pairs))
            return
        e = free[0]
        for f in free[1:]:
            d = f - e
            if d > t or d in diffs_used:
                continue
            s = (e + f) % n
            if strong and s in sums_used:
                continue
            covered.add(e)
            covered.add(f)
            diffs_used.add(d)
            if strong:
                sums_used.add(s)
            pairs.append((e, f))
            walk()
            pairs.pop()
            covered.discard(e)
            covered.discard(f)
            diffs_used.discard(d)
            if strong:
                sums_used.discard(s)

    walk()
    return found


def count_skolem_starters(n):
    """The number of Skolem starters of Z_n, counted element by element.

    Pairs the smallest free element e with e + d for each unused difference
    d, and caches the count of each state, the free elements and the unused
    differences as two bitmasks.  Neither kernel branches on elements or
    merges equal states, so agreeing with them on a count is meaningful.
    """
    t = (n - 1) // 2
    cache = {}

    def count(free, unused):
        if not free:
            return 1
        if (free, unused) not in cache:
            e = (free & -free).bit_length() - 1
            cache[free, unused] = sum(
                count(free & ~(1 << e | 1 << e + d), unused & ~(1 << d))
                for d in range(1, t + 1)
                if unused >> d & 1 and free >> e + d & 1
            )
        return cache[free, unused]

    return count((1 << n) - 2, (1 << t + 1) - 2)


def plain_count_by_coefficients(n):
    """The number of Skolem starters of Z_n, with no search at all.

    A starter's pairs (x, x + d), d = 1..m for m = (n - 1) / 2, partition
    1..2m.  With element e as z_{e-1}, the count is the coefficient of
    z_0...z_{2m-1} in the product over k of S_k = sum of z_i z_{i+k} over
    0 <= i < i + k < 2m.  Averaging (prod_i x_i) prod_k S_k over the signs
    x in {-1, 1}^2m extracts it, as every other term leaves some x_i at an
    odd power, which averages 0.  Negating every sign changes no term, so
    x_0 stays 1; the others run in Gray code order, and flipping x_j moves
    each S_k by -2 x_j (x_{j-k} + x_{j+k}).  Godfrey's method for Langford
    pairs, adapted.
    """
    m = (n - 1) // 2
    size = 2 * m
    # x[size + i] is x_i, 0 <= i < 2m; the zeros either side stand in for
    # the x_i outside that range
    x = [0] * size + [1] * size + [0] * size
    neighbours = [
        [(size + j - k, size + j + k) for k in range(1, m + 1)] for j in range(size)
    ]
    sums = [size - k for k in range(1, m + 1)]
    sign = 1
    total = prod(sums)
    for step in range(1, 1 << (size - 1)):
        j = (step & -step).bit_length()  # the Gray code flips x_j
        twice = 2 * x[size + j]
        sums = [s - twice * (x[a] + x[b]) for s, (a, b) in zip(sums, neighbours[j])]
        x[size + j] = -x[size + j]
        sign = -sign
        total += sign * prod(sums)
    return total >> (size - 1)


def random_pair_partition(n, rng):
    """A uniformly random partition of 1..n-1 into unordered pairs."""
    elements = list(range(1, n))
    rng.shuffle(elements)
    return [
        tuple(sorted((elements[i], elements[i + 1])))
        for i in range(0, n - 1, 2)
    ]


def perturb_partition(pairs, rng, swaps):
    """Swap random element slots of a partition; stays a partition.

    Useful for sampling near-starters, where property verdicts actually
    vary; uniform random partitions of larger orders are almost never
    starters.
    """
    flat = [list(p) for p in pairs]
    positions = [(i, j) for i in range(len(flat)) for j in (0, 1)]
    for _ in range(swaps):
        (a, b), (c, d) = rng.sample(positions, 2)
        flat[a][b], flat[c][d] = flat[c][d], flat[a][b]
    return [tuple(sorted(p)) for p in flat]


def sum_array_walk(
    n, strong, stop_after=0, collect_limit=0, descending=True, fixed_top=0
):
    """The package kernels' tree, walked recursively over bytearrays.

    One bytearray marks the used elements and one the used sums mod n, and
    the strong constraint is tested on each candidate's own sum.  The
    package kernels instead mask out the candidates whose half-sum is in
    use before they pop them, so agreeing with this walk on the whole
    (count, nodes, witnesses) triple checks that mask against the sums
    themselves.  Arguments and result as skolem._pysearch.run_search.
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
    witnesses: list[bytes] = []

    def walk(level: int) -> bool:
        # Returns True to abort the whole walk (stop_after reached).
        nonlocal count, nodes
        if level == t:
            count += 1
            if collect_limit < 0 or len(witnesses) < collect_limit:
                witnesses.append(bytes(xs[1:]))
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


def row_pairs(xs):
    """The pairs (x, x + d) of a witness row, xs[d - 1] = x, in the order
    of d: the rows of sum_array_walk and of run_search without PairSet."""
    return [(x, x + d) for d, x in enumerate(xs, start=1)]

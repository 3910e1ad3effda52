"""Independent reference implementations used only by the tests.

Nothing here imports the package under test.  naive_verdicts re-decides the
three starter properties with quadratic scans over plain tuples, and
element_driven_starters enumerates (strong) Skolem starters by always
extending the smallest uncovered element, a different strategy from the
difference-driven package kernels.  generator_starter builds the
construction's starter in the paper's generator form, while the package
builds it from the set of quadratic residues.
"""


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

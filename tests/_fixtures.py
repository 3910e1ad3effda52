"""Frozen expected values shared across the test suite.

Derivations, all independent of the package under test: the residue tables
come from direct squaring of 1..q-1, the starters from the {x, beta*x}
characterisation with beta resolved by hand, the generators from explicit
cycle enumeration, and the counts from the element-driven oracle in
_naive.py cross-checked against both search kernels under both variable
orders.  The non-strong counts also equal the classical numbers of Skolem
sequences of orders 4, 5, 8, 9, 12 and 13.
"""

QR_SETS = {
    11: frozenset({1, 3, 4, 5, 9}),
    19: frozenset({1, 4, 5, 6, 7, 9, 11, 16, 17}),
    43: frozenset(
        {1, 4, 6, 9, 10, 11, 13, 14, 15, 16, 17, 21, 23, 24, 25, 31, 35, 36, 38, 40, 41}
    ),
}

NQR_SETS = {
    11: frozenset({2, 6, 7, 8, 10}),
    19: frozenset({2, 3, 8, 10, 12, 13, 14, 15, 18}),
    43: frozenset(
        {2, 3, 5, 7, 8, 12, 18, 19, 20, 22, 26, 27, 28, 29, 30, 32, 33, 34, 37, 39, 42}
    ),
}

SMALLEST_QR_GENERATOR = {11: 3, 19: 4, 43: 9}

# Inverse of 2 mod q, the 'half' beta.
HALF_BETA = {11: 6, 19: 10, 43: 22}

# S_2 and S_half in canonical pair order.
S_TWO = {
    11: ((1, 2), (3, 6), (4, 8), (5, 10), (7, 9)),
    19: (
        (1, 2), (3, 11), (4, 8), (5, 10), (6, 12), (7, 14), (9, 18),
        (13, 16), (15, 17),
    ),
    43: (
        (1, 2), (3, 23), (4, 8), (5, 24), (6, 12), (7, 25), (9, 18),
        (10, 20), (11, 22), (13, 26), (14, 28), (15, 30), (16, 32),
        (17, 34), (19, 31), (21, 42), (27, 35), (29, 36), (33, 38),
        (37, 40), (39, 41),
    ),
}

S_HALF = {
    11: ((1, 6), (2, 4), (3, 7), (5, 8), (9, 10)),
    19: (
        (1, 10), (2, 4), (3, 6), (5, 12), (7, 13), (8, 16), (9, 14),
        (11, 15), (17, 18),
    ),
    43: (
        (1, 22), (2, 4), (3, 6), (5, 10), (7, 14), (8, 16), (9, 26),
        (11, 27), (12, 24), (13, 28), (15, 29), (17, 30), (18, 36),
        (19, 38), (20, 40), (21, 32), (23, 33), (25, 34), (31, 37),
        (35, 39), (41, 42),
    ),
}

# Exhaustive counts: (n, require_strong) -> number of Skolem starters.
STARTER_COUNTS = {
    (9, False): 6,
    (9, True): 0,
    (11, False): 10,
    (11, True): 2,
    (17, False): 504,
    (17, True): 56,
    (19, False): 2656,
    (19, True): 194,
    (25, False): 455936,
    (25, True): 9622,
    (27, False): 3040560,
    (27, True): 47116,
}

# The whole descending walk: (n, require_strong) -> (count, nodes), nodes
# being the successful pair placements.  Recorded from the compiled kernel
# that tested the strong constraint on each candidate's sum mod n, before
# both kernels moved to the half-sum mask, so they freeze the tree itself.
NODE_COUNTS = {
    (3, True): (1, 1),
    (3, False): (1, 1),
    (5, True): (0, 2),
    (5, False): (0, 2),
    (7, True): (0, 7),
    (7, False): (0, 7),
    (9, True): (0, 20),
    (9, False): (6, 34),
    (11, True): (2, 61),
    (11, False): (10, 113),
    (13, True): (0, 202),
    (13, False): (0, 388),
    (15, True): (0, 897),
    (15, False): (0, 1883),
    (17, True): (56, 3860),
    (17, False): (504, 10428),
    (19, True): (194, 18049),
    (19, False): (2656, 61315),
    (21, True): (0, 92276),
    (21, False): (0, 370368),
    (23, True): (0, 485847),
    (23, False): (0, 2558157),
    (25, True): (9622, 2856928),
    (25, False): (455936, 19815180),
    (27, True): (47116, 17855357),
    (27, False): (3040560, 158750947),
}

# First strong Skolem starter in canonical depth-first order (differences
# assigned t down to 1, smaller elements ascending): xs[d-1] is the smaller
# element of the difference-d pair.
FIRST_STRONG_WITNESS = {
    11: (9, 2, 5, 3, 1),
    17: (15, 12, 4, 2, 8, 5, 3, 1),
    19: (16, 3, 6, 11, 13, 2, 7, 4, 1),
    27: (20, 24, 22, 6, 7, 17, 2, 11, 4, 8, 5, 3, 1),
}

# A starter for Z_11 that is neither strong (two zero sums) nor Skolem
# (integer differences 1, 3, 5, 7, 9).
STARTER_NOT_SKOLEM_11 = ((1, 10), (2, 9), (3, 8), (4, 7), (5, 6))

# A partition of 1..10 that is not a starter: difference class +-5 repeats.
NON_STARTER_PARTITION_11 = ((1, 7), (2, 9), (3, 8), (4, 10), (5, 6))

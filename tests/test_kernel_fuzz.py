"""Differential fuzzing: the compiled and pure kernels on random calls.

Each drawn call fixes every run_search argument, including a top-level
partition and an early stop with a witness cap, and each kernel must
return the (count, nodes, witnesses) triple of the recursive walk in
_naive.py, which tests every candidate's sum instead of masking by
half-sums; on half the draws the call passes PairSet too, and each
witness must be the PairSet of that walk's row.  Each drawn folding
certificate, real or corrupted, must get the same pair set, element
types included, or the same error from the construction's compiled and
pure routes.
"""

import enum
from unittest import mock

from hypothesis import given, settings, strategies as st

import skolem.search
from skolem import HalfSetCertificate, PairSet, _pysearch
from skolem.construction import _skolem_pairs

from _naive import sum_array_walk


@st.composite
def _kernel_calls(draw):
    n = draw(st.sampled_from(range(3, 18, 2)))
    descending = draw(st.booleans())
    top_d = (n - 1) // 2 if descending else 1
    args = (
        n,
        draw(st.booleans()),
        draw(st.sampled_from((0, 1, 3))),
        draw(st.sampled_from((-1, 0, 2))),
        descending,
        draw(st.integers(0, n - 1 - top_d)),
    )
    return args, draw(st.booleans())


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=_kernel_calls())
def test_kernels_agree_on_random_calls(fastsearch, case):
    # args: (n, strong, stop_after, collect_limit, descending, fixed_top),
    # and with pair_sets the class too
    args, pair_sets = case
    count, nodes, witnesses = sum_array_walk(*args)
    if pair_sets:
        n = args[0]
        witnesses = [PairSet(n, [(x, x + d) for d, x in enumerate(xs, 1)]) for xs in witnesses]
        args += (PairSet,)
    assert fastsearch.run_search(*args) == (count, nodes, witnesses)
    assert _pysearch.run_search(*args) == (count, nodes, witnesses)


class _Two(enum.IntEnum):
    TWO = 2


@st.composite
def _foldings(draw):
    # the folding of the squares partitions 1..t for a prime q == 3 (mod 4),
    # drawn half the time, and otherwise for no odd q
    q = draw(st.one_of(st.sampled_from((3, 7, 11, 19, 23, 31)), st.sampled_from(range(3, 40, 2))))
    t = (q - 1) // 2
    squares = {x * x % q for x in range(1, t + 1)}
    runs = [tuple(d for d in range(1, t + 1) if d in squares),
            tuple(d for d in range(1, t + 1) if q - d in squares)]
    if draw(st.booleans()):
        runs.reverse()
    # entries near the range, far past any machine word, and a bool, a
    # float and an int subclass, which only the pure route reads
    near = st.integers(-1, t + 2)
    entry = st.one_of(near, st.integers(-(2**80), 2**80), st.sampled_from((True, 2.0, _Two.TWO)))

    def varied(run):
        changed = st.tuples(st.integers(0, max(len(run) - 1, 0)), entry).map(
            lambda c: run[: c[0]] + (c[1],) + run[c[0] + 1 :])
        drawn = st.lists(entry, max_size=t + 1).map(tuple)
        return st.one_of(st.just(run), st.permutations(run).map(tuple), changed, drawn)

    wrap = draw(st.sampled_from((tuple, list)))
    return q, wrap(draw(varied(runs[0]))), wrap(draw(varied(runs[1])))


def _routes(fastsearch, build):
    """build() on the compiled and on the pure construction route: the
    pairs with their element types, or the exception's type and message."""
    out = []
    for kernel in (fastsearch, None):
        with mock.patch.object(skolem.search, "_fastsearch", kernel):
            try:
                pairs = build().pairs
            except (TypeError, ValueError) as exc:
                out.append((type(exc), str(exc)))
            else:
                out.append((pairs, [type(el) for pair in pairs for el in pair]))
    return out


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=_foldings())
def test_construction_routes_agree_on_random_foldings(fastsearch, case):
    q, direct, reflected = case
    compiled, pure = _routes(fastsearch, lambda: _skolem_pairs(q, direct, reflected))
    assert compiled == pure
    certificate = HalfSetCertificate(q, 2, direct, reflected)
    compiled, pure = _routes(fastsearch, certificate.pair_set)
    assert compiled == pure

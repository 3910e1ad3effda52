"""Differential fuzzing: the compiled and pure kernels on random calls.

Each drawn call fixes every run_search argument, including a top-level
partition and an early stop with a witness cap, and each kernel must
return the (count, nodes, witnesses) triple of the recursive walk in
_naive.py, which tests every candidate's sum instead of masking by
half-sums.  Each drawn batch of witnesses, real ones and corruptions of
them, passed as a list or as a one-shot iterator, must get the same pair
tuples or the same ValueError from both kernels' witness_pairs.
"""

from functools import cache

from hypothesis import given, settings, strategies as st

from skolem import _pysearch

from _naive import sum_array_walk


@st.composite
def _kernel_calls(draw):
    n = draw(st.sampled_from(range(3, 18, 2)))
    descending = draw(st.booleans())
    top_d = (n - 1) // 2 if descending else 1
    return (
        n,
        draw(st.booleans()),
        draw(st.sampled_from((0, 1, 3))),
        draw(st.sampled_from((-1, 0, 2))),
        descending,
        draw(st.integers(0, n - 1 - top_d)),
    )


@settings(derandomize=True, deadline=None, max_examples=200)
@given(args=_kernel_calls())
def test_kernels_agree_on_random_calls(fastsearch, args):
    # args: (n, strong, stop_after, collect_limit, descending, fixed_top)
    expected = sum_array_walk(*args)
    assert fastsearch.run_search(*args) == expected
    assert _pysearch.run_search(*args) == expected


@cache
def _plain_witnesses(n):
    return _pysearch.run_search(n, False, 0, -1)[2]


@st.composite
def _witness_batches(draw):
    n = draw(st.sampled_from(range(3, 18, 2)))
    t = (n - 1) // 2
    # near the range, and far past any machine word
    element = st.one_of(st.integers(-2, n + 1), st.integers(-(2**80), 2**80))
    drawn = st.lists(element, min_size=t - 1, max_size=t + 1).map(tuple)
    found = _plain_witnesses(n)
    if found:
        real = st.sampled_from(found)
        changed = st.tuples(real, st.integers(0, t - 1), element).map(
            lambda c: c[0][: c[1]] + (c[2],) + c[0][c[1] + 1 :]
        )
        drawn = st.one_of(real, changed, drawn)
    # passed as a list, or as an iterator that can be read only once
    return n, draw(st.lists(drawn, max_size=4)), draw(st.sampled_from((list, iter)))


def _outcome(kernel, n, batch):
    try:
        return kernel.witness_pairs(n, batch)
    except ValueError as exc:
        return str(exc)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=_witness_batches())
def test_witness_pairs_agree_on_random_batches(fastsearch, case):
    n, batch, wrap = case
    assert _outcome(fastsearch, n, wrap(batch)) == _outcome(_pysearch, n, wrap(batch))

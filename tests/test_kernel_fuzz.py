"""Differential fuzzing: the compiled and pure kernels on random calls.

Each drawn call fixes every run_search argument, including a top-level
partition and an early stop with a witness cap, and each kernel must
return the (count, nodes, witnesses) triple of the recursive walk in
_naive.py, which tests every candidate's sum instead of masking by
half-sums.
"""

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

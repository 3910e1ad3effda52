"""Differential fuzzing: the compiled and pure kernels on random calls.

Each drawn call fixes every run_search argument, including a top-level
partition and an early stop with a witness cap, and both kernels must
return the identical (count, nodes, witnesses) triple.
"""

from hypothesis import given, settings, strategies as st

from skolem import _pysearch


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
    assert fastsearch.run_search(*args) == _pysearch.run_search(*args)

import enum
import gc
import inspect
import os
import signal
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest

from skolem import (
    BetaChoice,
    CeilingExceededError,
    DEFAULT_CEILING,
    PairSet,
    SearchConfig,
    SearchMode,
    active_backend,
    build_strong_skolem,
    full_report,
    search_skolem_starters,
)
import skolem.search
from skolem import _pysearch

from _fixtures import FIRST_STRONG_WITNESS, NODE_COUNTS, S_HALF, S_TWO, STARTER_COUNTS
from _naive import count_skolem_starters, element_driven_starters, sum_array_walk

SRC = Path(__file__).resolve().parent.parent / "src"


def _witness_pairs(xs):
    return frozenset((x, x + d) for d, x in enumerate(xs, start=1))


def test_kernel_counts_match_fixtures():
    # the whole walk's count and node count, frozen for every odd n; the
    # counts are the independently derived ones
    for key, expected in STARTER_COUNTS.items():
        assert NODE_COUNTS[key][0] == expected, key
    for (n, strong), (count, nodes) in NODE_COUNTS.items():
        if n > 21 or (n, strong) == (21, False):
            continue  # larger walks are exercised by the compiled kernel below
        assert _pysearch.run_search(n, strong) == (count, nodes, []), (n, strong)


def test_compiled_kernel_counts_match_fixtures(fastsearch):
    for (n, strong), (count, nodes) in NODE_COUNTS.items():
        assert fastsearch.run_search(n, strong) == (count, nodes, []), (n, strong)


def test_kernels_agree_exactly(fastsearch):
    # count, node count and witness stream of each kernel all identical to
    # the recursive walk that tests each candidate's sum, both orders, for
    # the whole walk, every top-level partition, early stops with and
    # without a witness cap, and caps either side of the 256 witnesses the
    # compiled kernel buffers before it builds their tuples (n = 17 plain
    # has 504)
    for n in (9, 11, 13, 15, 17):
        for strong in (False, True):
            for descending in (True, False):
                top_d = (n - 1) // 2 if descending else 1
                calls = [(0, -1, 0)]
                calls += [(0, -1, x) for x in range(1, n - top_d)]
                calls += [(stop, cap, 0) for stop in (1, 3) for cap in (0, 2)]
                calls += [(0, cap, 0) for cap in (255, 256, 257)]
                for stop, cap, top in calls:
                    args = (n, strong, stop, cap, descending, top)
                    expected = sum_array_walk(*args)
                    assert _pysearch.run_search(*args) == expected, args
                    assert fastsearch.run_search(*args) == expected, args


@pytest.mark.parametrize("n, nodes", [(57, 304_453), (59, 164_183)])
def test_kernels_agree_at_the_top_of_the_word(fastsearch, n, nodes):
    # the first three strong starters: F and G reach bit n - 1 near 63,
    # and the C kernel's G carries bits past n into the next rotation
    expected = _pysearch.run_search(n, True, 3, -1, True, 0)
    assert expected[:2] == (3, nodes)
    assert fastsearch.run_search(n, True, 3, -1, True, 0) == expected


def test_pure_kernel_does_not_recurse():
    # t = 10 levels deep, under a limit 5 frames above this one; the lowest
    # limit the interpreter accepts is one above the current depth, which
    # counts more than the Python frames on some versions
    limit = sys.getrecursionlimit()
    lowest = len(inspect.stack(0))
    try:
        while True:
            try:
                sys.setrecursionlimit(lowest)
                break
            except RecursionError:
                lowest += 1
        sys.setrecursionlimit(lowest + 5)
        result = _pysearch.run_search(21, True)
    finally:
        sys.setrecursionlimit(limit)
    assert result[:2] == NODE_COUNTS[(21, True)]


class _Two(enum.IntEnum):
    TWO = 2


def _partners(xs):
    """The larger elements x + d of a witness's pairs, xs[d - 1] = x."""
    return [x + d for d, x in enumerate(xs, start=1)]


# Both kernel modules turn raw witnesses into canonical pair tuples through
# their own witness_pairs, which PairSet._from_witnesses wraps; every test
# below holds the compiled one and the pure one to the same contract.


def test_witness_constructor_matches_pair_set(fastsearch):
    for kernel in (fastsearch, _pysearch):
        for n in range(3, 20, 2):
            for strong in (False, True):
                for descending in (True, False):
                    _, _, witnesses = kernel.run_search(n, strong, 0, -1, descending, 0)
                    batch = PairSet._from_witnesses(n, kernel.witness_pairs(n, witnesses))
                    assert len(batch) == len(witnesses)
                    for xs, from_batch in zip(witnesses, batch):
                        fast = PairSet._from_pairs(n, xs, _partners(xs))
                        checked = PairSet(n, zip(xs, _partners(xs)))
                        for built in (fast, from_batch):
                            assert built.pairs == checked.pairs
                            assert built == checked
                            assert hash(built) == hash(checked)


def test_witness_batch_of_none_is_empty(fastsearch):
    for kernel in (fastsearch, _pysearch):
        assert kernel.witness_pairs(11, []) == []
    assert PairSet._from_witnesses(11, []) == ()


def test_witness_batch_range_checks_each_difference_column(fastsearch):
    # a witness element outside 1..n-1 is refused before it becomes a mask:
    # 9 + 64 and 9 + 2**64 would alias 9 under a 64-bit shift, and the
    # others would shift by far more
    for bad in (-(10**9), 10**30, -(10**30), 9 + 64, 9 + 2**64):
        xs = (bad, 2, 5, 3, 1)
        messages = []
        for kernel in (fastsearch, _pysearch):
            with pytest.raises(ValueError, match=rf"^witness \({bad}, 2, 5, 3, 1\) does not partition 1\.\.10$") as info:
                kernel.witness_pairs(11, [(9, 2, 5, 3, 1), xs])
            messages.append(str(info.value))
        assert messages[0] == messages[1]


def test_witness_batch_reaches_the_last_bit_of_the_word(fastsearch):
    # n = 63, the compiled kernel's limit, puts element 62 on bit 62.  No
    # Skolem starter of Z_63 exists, so pairs that are in range but cannot
    # partition 1..62 name the witness, and so does element 63.
    n, t = 63, 31
    # (61, 62) for d = 1 and (31, 62) for d = 31 both hold element 62
    in_range = (61,) + (1,) * (t - 2) + (31,)
    past_end = in_range[:-1] + (32,)  # (32, 63) for d = 31
    for xs in (in_range, past_end):
        messages = []
        for kernel in (fastsearch, _pysearch):
            with pytest.raises(ValueError, match=r"^witness \(61, 1, .* does not partition 1\.\.62$") as info:
                kernel.witness_pairs(n, [xs])
            messages.append(str(info.value))
        assert messages[0] == messages[1] == f"witness {xs!r} does not partition 1..62"
    for bad_n in (1, 4, 65):
        with pytest.raises(ValueError, match=f"got {bad_n}$"):
            fastsearch.witness_pairs(bad_n, [])


@pytest.mark.parametrize(
    "batch, first_fault",
    [
        # two pairs holding 2, then the pair (6, 11) past n - 1
        ([(9, 2, 5, 2, 1), (9, 2, 5, 3, 6)], (9, 2, 5, 2, 1)),
        # a valid witness, a short one, then one with element 0
        ([(9, 2, 5, 3, 1), (9, 2, 5, 3), (0, 2, 5, 3, 1)], (9, 2, 5, 3)),
        # only an exact tuple of exact ints is read: 9.0 and True equal and
        # hash like 9 and 1, an IntEnum member is an int, a list holds ints
        ([(9, 2, 5, 3, 1), (9.0, 2, 5, 3, 1)], (9.0, 2, 5, 3, 1)),
        ([("a", 2, 5, 3, 1), (9.0, 2, 5, 3, 1)], ("a", 2, 5, 3, 1)),
        ([(9, 2, 5, 3, 1), (9, 2, 5, 3, True)], (9, 2, 5, 3, True)),
        ([(9, 2, 5, 3, 1), (9, _Two.TWO, 5, 3, 1)], (9, _Two.TWO, 5, 3, 1)),
        ([(9, 2, 5, 3, 1), [9, 2, 5, 3, 1]], [9, 2, 5, 3, 1]),
    ],
)
def test_witness_batch_names_its_first_faulty_witness(fastsearch, batch, first_fault):
    for kernel in (fastsearch, _pysearch):
        with pytest.raises(ValueError) as info:
            kernel.witness_pairs(11, batch)
        assert str(info.value) == f"witness {first_fault!r} does not partition 1..10"


def test_witness_batch_may_be_a_one_shot_iterable(fastsearch):
    valid = (9, 2, 5, 3, 1)
    expected = [tuple(sorted(_witness_pairs(valid)))] * 2
    for kernel in (fastsearch, _pysearch):
        assert kernel.witness_pairs(11, iter([valid, valid])) == expected
        assert kernel.witness_pairs(11, (xs for xs in [valid, valid])) == expected
        with pytest.raises(ValueError, match=r"^witness \(9, 2, 5, 3\) "):
            kernel.witness_pairs(11, (xs for xs in [valid, valid[:-1]]))


# a valid witness for each order the corruption cases below use
_VALID_WITNESS = {3: (1,), 11: (9, 2, 5, 3, 1)}


@pytest.mark.parametrize(
    "n, xs",
    [
        # corruptions of the n = 11 witness (9, 2, 5, 3, 1)
        (11, (9, 2, 5, 2, 1)),  # 2 is the smaller element of two pairs
        (11, (9, 2, 5, 3, 4)),  # (4, 9) reuses 4 and 9
        (11, (0, 2, 5, 3, 1)),  # element 0
        (11, (9, 2, 5, 3, 6)),  # element 11 = n
        (11, (9, 2, 5, 3)),  # too short
        (11, (9, 2, 5, 3, 1, 1)),  # too long, though its elements are 1..10
        (11, ()),
        # at n = 3 the two elements stay distinct; only the range check fails
        (3, (0,)),
        (3, (2,)),
    ],
)
def test_witness_constructor_rejects_non_partitions(fastsearch, n, xs):
    with pytest.raises(ValueError, match=f"does not partition 1..{n - 1}"):
        PairSet._from_pairs(n, xs, _partners(xs))
    valid = _VALID_WITNESS[n]
    for batch in ([xs], [valid, xs, valid]):
        messages = []
        for kernel in (fastsearch, _pysearch):
            assert kernel.witness_pairs(n, [valid]) == [tuple(sorted(_witness_pairs(valid)))]
            with pytest.raises(ValueError, match=f"not partition 1..{n - 1}") as info:
                kernel.witness_pairs(n, batch)
            assert repr(valid) not in str(info.value)  # the fault is not blamed on it
            messages.append(str(info.value))
        assert messages[0] == messages[1]


def test_witnesses_share_their_pair_tuples(fastsearch):
    # one tuple per distinct pair (x, x + d), 1 <= x < x + d <= n - 1, not
    # one per witness and difference
    n = 19
    t = (n - 1) // 2
    distinct_pairs = sum(n - 1 - d for d in range(1, t + 1))
    for kernel in (fastsearch, _pysearch):
        _, _, witnesses = kernel.run_search(n, False, 0, -1)
        canonical = kernel.witness_pairs(n, witnesses)
        assert len(canonical) == STARTER_COUNTS[(n, False)] > distinct_pairs
        assert len({id(p) for pairs in canonical for p in pairs}) <= distinct_pairs
    for workers in (1, 2):
        config = SearchConfig(n=n, mode="enumerate", require_strong=False, workers=workers)
        r = search_skolem_starters(config)
        assert len(r.witnesses) == STARTER_COUNTS[(n, False)]
        assert len({id(p) for ps in r.witnesses for p in ps.pairs}) <= distinct_pairs


def test_compiled_tuples_stay_out_of_the_cyclic_gc(fastsearch, no_collection):
    # tuples of ints, and tuples of those, cannot form a cycle; the lists
    # and the result triple, which hold them, stay tracked
    n = 19
    result = fastsearch.run_search(n, False, 0, -1)
    witnesses = result[2]
    canonical = fastsearch.witness_pairs(n, witnesses)
    assert len(witnesses) == len(canonical) == STARTER_COUNTS[(n, False)]
    assert all(map(gc.is_tracked, (result, witnesses, canonical)))
    assert not any(map(gc.is_tracked, witnesses))
    assert not any(map(gc.is_tracked, canonical))
    assert not any(gc.is_tracked(p) for pairs in canonical for p in pairs)


def test_variable_order_does_not_change_the_count():
    for n in (9, 11, 13, 15, 17):
        for strong in (False, True):
            down = _pysearch.run_search(n, strong, 0, 0, True)[0]
            up = _pysearch.run_search(n, strong, 0, 0, False)[0]
            assert down == up, (n, strong)


@pytest.mark.parametrize("n, count, nodes", [(19, 194, 65_159), (21, 0, 396_907)])
def test_kernels_agree_in_ascending_order_past_the_fuzz_range(fastsearch, n, count, nodes):
    # ascending order shifts each level's half-sum frame by t + 1, not t
    expected = _pysearch.run_search(n, True, 0, -1, False, 0)
    assert expected[:2] == (count, nodes)
    assert fastsearch.run_search(n, True, 0, -1, False, 0) == expected


def test_compiled_ascending_count_at_25_strong(fastsearch):
    assert fastsearch.run_search(25, True, 0, 0, False, 0) == (
        STARTER_COUNTS[(25, True)], 16_833_937, []
    )


def test_kernel_witnesses_match_element_driven_oracle(fastsearch):
    # Same starter sets from a structurally different enumeration strategy.
    for n in (9, 11, 17):
        for strong in (False, True):
            oracle = {
                frozenset(tuple(sorted(p)) for p in ps)
                for ps in element_driven_starters(n, strong)
            }
            for kernel in (_pysearch, fastsearch):
                count, _, witnesses = kernel.run_search(n, strong, 0, -1)
                found = {_witness_pairs(xs) for xs in witnesses}
                assert count == len(oracle) == len(found), (kernel, n, strong)
                assert found == oracle, (kernel, n, strong)


def test_plain_counts_match_a_memoised_element_driven_count():
    # the oracle above lists starters only up to n = 17; this count checks
    # the plain fixtures at n = 19 and 25 too, with no kernel involved.
    # n = 27 takes it 6 to 7 s and 408 MB and is the slow test below
    for (n, strong), count in STARTER_COUNTS.items():
        if not strong and n <= 25:
            assert count_skolem_starters(n) == count, n


@pytest.mark.slow
def test_plain_count_at_27_matches_a_memoised_element_driven_count():
    assert count_skolem_starters(27) == STARTER_COUNTS[(27, False)] == 3_040_560


def test_kernel_validation():
    with pytest.raises(ValueError, match="odd"):
        _pysearch.run_search(8, True)
    with pytest.raises(ValueError, match="odd"):
        _pysearch.run_search(1, True)
    with pytest.raises(ValueError, match="fixed_top"):
        _pysearch.run_search(11, True, 0, 0, True, 6)
    with pytest.raises(TypeError, match="keyword argument"):
        _pysearch.run_search(11, True, fixed_top=1)


def test_compiled_kernel_validation(fastsearch):
    with pytest.raises(ValueError, match="odd"):
        fastsearch.run_search(8, True)
    with pytest.raises(ValueError, match="fixed_top"):
        fastsearch.run_search(11, True, 0, 0, True, 6)
    with pytest.raises(ValueError, match="limit of 63"):
        fastsearch.run_search(65, True)
    with pytest.raises(TypeError, match="keyword argument"):
        fastsearch.run_search(11, True, fixed_top=1)


def test_fixed_top_partitions_the_space():
    # partial counts over the top-level choices sum to the full count
    for strong in (False, True):
        full, full_nodes, _ = _pysearch.run_search(11, strong)
        parts = [_pysearch.run_search(11, strong, 0, 0, True, x) for x in range(1, 6)]
        assert sum(p[0] for p in parts) == full
        assert sum(p[1] for p in parts) == full_nodes


def test_search_config_validation():
    with pytest.raises(ValueError, match="odd"):
        SearchConfig(n=10)
    with pytest.raises(ValueError, match="odd"):
        SearchConfig(n=1)
    with pytest.raises(TypeError, match="must be an int"):
        SearchConfig(n="11")
    with pytest.raises(ValueError, match="limit"):
        SearchConfig(n=11, limit=0)
    # a limit caps only collected witnesses, so no other mode takes one
    for mode in ("count", "first"):
        with pytest.raises(ValueError, match="--limit needs --enumerate"):
            SearchConfig(n=11, mode=mode, limit=1)
    with pytest.raises(ValueError, match="workers"):
        SearchConfig(n=11, workers=0)
    # a truthy non-bool such as "no" would otherwise switch the flag on
    for field in ("require_strong", "force"):
        for value in ("no", 1, None):
            with pytest.raises(TypeError, match=f"{field} must be a bool, got {value!r}"):
                SearchConfig(n=11, **{field: value})
    with pytest.raises(ValueError):
        SearchConfig(n=11, mode="everything")
    with pytest.raises(ValueError):
        SearchConfig(n=11, mode=None)
    with pytest.raises(ValueError):
        SearchConfig(n=11, mode=3)
    with pytest.raises(ValueError, match="not supported"):
        SearchConfig(n=1_000_003)
    assert SearchConfig(n=11, mode="count").mode is SearchMode.COUNT_ALL
    assert SearchConfig(n=11).t == 5


def test_count_mode():
    result = search_skolem_starters(SearchConfig(n=11))
    assert result.count == 2
    assert result.complete
    assert result.witnesses == ()
    assert result.mode is SearchMode.COUNT_ALL
    assert result.require_strong
    assert result.backend == active_backend()
    assert result.wall_time >= 0
    loose = search_skolem_starters(SearchConfig(n=11, require_strong=False))
    assert loose.count == 10


def test_count_mode_inadmissible_orders():
    # n == 5 or 7 (mod 8) admits no Skolem starter; the walk confirms it
    for n in (5, 7, 13, 15, 21, 23):
        result = search_skolem_starters(SearchConfig(n=n, require_strong=False))
        assert result.count == 0, n


def test_enumerate_mode():
    result = search_skolem_starters(SearchConfig(n=11, mode="enumerate"))
    assert result.count == 2
    assert len(result.witnesses) == 2
    pair_sets = {ps.pairs for ps in result.witnesses}
    assert pair_sets == {S_TWO[11], S_HALF[11]}
    for ps in result.witnesses:
        assert isinstance(ps, PairSet)
        assert full_report(ps).verdicts == (True, True, True)


def test_enumerate_mode_limit_keeps_exact_count():
    full = search_skolem_starters(SearchConfig(n=17, mode="enumerate"))
    capped = search_skolem_starters(SearchConfig(n=17, mode="enumerate", limit=5))
    assert full.count == capped.count == 56
    assert len(full.witnesses) == 56
    assert len(capped.witnesses) == 5
    assert [p.pairs for p in capped.witnesses] == [
        p.pairs for p in full.witnesses[:5]
    ]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_limit_past_the_machine_word_is_no_limit(fastsearch, monkeypatch, workers):
    # the compiled kernel takes its cap as a C long long, which such a cap
    # overflowed; none so large can bind, so both kernels enumerate all
    full = search_skolem_starters(SearchConfig(n=11, mode="enumerate", workers=workers))
    for kernel in (fastsearch, None):
        monkeypatch.setattr(skolem.search, "_fastsearch", kernel)
        for limit in (2**63 - 1, 2**63, 10**23):
            config = SearchConfig(n=11, mode="enumerate", limit=limit, workers=workers)
            result = search_skolem_starters(config)
            assert (result.count, result.witnesses) == (2, full.witnesses), (kernel, limit)


def test_first_witness_mode():
    for n, xs in FIRST_STRONG_WITNESS.items():
        if n > DEFAULT_CEILING:
            continue
        result = search_skolem_starters(SearchConfig(n=n, mode="first"))
        assert result.count == 1
        assert not result.complete
        assert len(result.witnesses) == 1
        assert result.witnesses[0].pairs == tuple(sorted(_witness_pairs(xs)))
        assert full_report(result.witnesses[0]).verdicts == (True, True, True)


def test_first_witness_exhausts_when_none_exists():
    result = search_skolem_starters(SearchConfig(n=9, mode="first"))
    assert result.count == 0
    assert result.complete
    assert result.witnesses == ()


def _check_partitioned_search(whole_walk, n_max):
    """search_skolem_starters on one worker or up to three threads returns
    exactly whole_walk's triple: counts, node counts (FIRST_WITNESS walks
    whole partitions before its witness), witness order and cap.  Only the
    compiled kernel's parts run on threads; the pure kernel's run on one."""
    threads = active_backend() == "compiled"
    cases = [(SearchMode.COUNT_ALL, None, 0, 0), (SearchMode.FIRST_WITNESS, None, 1, 1)]
    cases += [(SearchMode.ENUMERATE_ALL, lim, 0, cap) for lim, cap in ((None, -1), (1, 1), (3, 3))]
    for n in range(3, n_max + 1, 2):
        for strong in (False, True):
            for mode, limit, stop_after, collect in cases:
                count, nodes, whole = whole_walk(n, strong, stop_after, collect, True, 0)
                expected = (count, nodes, [tuple(sorted(_witness_pairs(xs))) for xs in whole])
                for workers in (1, 3):
                    config = SearchConfig(
                        n=n, mode=mode, require_strong=strong, limit=limit, workers=workers
                    )
                    result = search_skolem_starters(config)
                    got = (result.count, result.nodes_explored, [w.pairs for w in result.witnesses])
                    assert got == expected, config
                    # a count walks only the partitions x <= ceil(t/2)
                    t = (n - 1) // 2
                    parts = (t + 1) // 2 if mode is SearchMode.COUNT_ALL else t
                    parallel = threads and not stop_after
                    assert result.workers == (min(workers, parts) if parallel else 1)


def test_parallel_matches_sequential(fastsearch):
    # the compiled kernel's partitions run on threads
    _check_partitioned_search(fastsearch.run_search, 17)


def test_pure_kernel_parallel_matches_the_naive_walk(fastsearch, monkeypatch):
    # the pure kernel holds the GIL, so threads would not speed it up: a
    # search asked for three threads runs its partitions on one worker
    monkeypatch.setattr(skolem.search, "_fastsearch", None)
    assert active_backend() == "pure"
    _check_partitioned_search(sum_array_walk, 13)


def test_compiled_kernel_releases_the_gil(fastsearch):
    # a Python loop in this thread keeps running while the kernel walks in
    # another; a kernel holding the GIL would stall it for the whole call
    span = []

    def walk():
        start = time.perf_counter()
        result = fastsearch.run_search(25, True, 0, 0, True, 0)
        span.extend((result, start, time.perf_counter()))

    walker = threading.Thread(target=walk)
    ticks = []
    walker.start()
    while walker.is_alive():
        ticks.append(time.perf_counter())
    walker.join(timeout=60)
    assert not walker.is_alive()
    (count, nodes, _), start, end = span
    assert (count, nodes) == (9622, 2_856_928)
    quarter = (end - start) / 4
    assert any(start + quarter < tick < end - quarter for tick in ticks)


def test_import_loads_no_executor_and_no_pure_kernel(fastsearch):
    # compiled partitions run on plain threads and pure ones on one worker,
    # so no search imports concurrent.futures (nor with it logging and
    # multiprocessing); the pure kernel itself loads only when a search
    # picks it, so with the C kernel built only that one loads
    executors = ["concurrent.futures", "logging", "multiprocessing"]
    lazy = executors + ["skolem._pysearch"]
    probe = (f"import sys, skolem; print([m for m in {lazy!r} if m in sys.modules], "
             f"'skolem._fastsearch' in sys.modules); "
             f"skolem.search._fastsearch = None; "
             f"r = skolem.search_skolem_starters(skolem.SearchConfig(n=15, workers=2)); "
             f"print([m for m in {executors!r} if m in sys.modules], r.backend, r.workers)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    assert proc.stdout.splitlines() == ["[] True", "[] pure 1"]


def test_active_backend_loads_no_pure_kernel():
    # naming the pure kernel is no search, so it does not load it
    probe = ("import sys, skolem; skolem.search._fastsearch = None; "
             "print(skolem.active_backend(), 'skolem._pysearch' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    assert proc.stdout.splitlines() == ["pure False"]


def _hook_kernel(monkeypatch, fastsearch, run_search):
    """Point the search at the compiled kernel, each run_search call going
    through the given hook instead."""
    kernel = types.SimpleNamespace(
        MAX_N=fastsearch.MAX_N, witness_pairs=fastsearch.witness_pairs, run_search=run_search
    )
    monkeypatch.setattr(skolem.search, "_fastsearch", kernel)


@pytest.mark.parametrize("failing", [{2}, {1, 2}], ids=["part-2", "parts-1-and-2"])
def test_failing_partition_raises_and_joins_every_thread(fastsearch, monkeypatch, failing):
    # a part that raises re-raises in the caller once every thread is
    # joined; parts start nearest the mirror axis first (6, 7, 5, 8, ...,
    # 2, 11, 1, 12 at n = 25) and stop at the failure.  When two parts
    # fail, the first in that order wins, not the first in time: part 2
    # raises only after part 1 has.
    queue = [6, 7, 5, 8, 4, 9, 3, 10, 2, 11, 1, 12]
    tops = []
    first_failed = threading.Event()

    def run_search(*args):
        top = args[5]
        tops.append(top)
        if top not in failing:
            return fastsearch.run_search(*args)
        if top == 1:
            first_failed.set()
        elif 1 in failing:
            assert first_failed.wait(10)
        raise RuntimeError(f"partition {top} failed")

    _hook_kernel(monkeypatch, fastsearch, run_search)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"partition {min(failing, key=queue.index)} failed"):
        search_skolem_starters(SearchConfig(n=25, mode="enumerate", workers=2))
    assert threading.active_count() == before
    assert sorted(tops, key=queue.index) == queue[: len(tops)]


def test_two_workers_are_the_caller_and_one_thread(fastsearch, monkeypatch):
    # workers=2 starts one thread and the caller takes parts from the same
    # queue; each thread's first part waits for the other's, so both must
    # take one
    runners = []
    first_parts = threading.Barrier(2, timeout=10)

    def run_search(*args):
        me = threading.current_thread()
        if me not in runners:
            first_parts.wait()
        runners.append(me)
        return fastsearch.run_search(*args)

    started = []

    class CountingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    expected = search_skolem_starters(SearchConfig(n=25, mode="enumerate"))
    _hook_kernel(monkeypatch, fastsearch, run_search)
    monkeypatch.setattr(threading, "Thread", CountingThread)
    before = threading.active_count()
    result = search_skolem_starters(SearchConfig(n=25, mode="enumerate", workers=2))
    assert threading.active_count() == before
    assert len(started) == 1
    assert set(runners) == {threading.main_thread(), started[0]}
    assert len(runners) == 12
    assert (result.count, result.nodes_explored, result.witnesses, result.workers) == (
        expected.count, expected.nodes_explored, expected.witnesses, 2)


def test_interrupt_lets_running_partitions_finish_and_starts_no_more(fastsearch, monkeypatch):
    # Ctrl-C while the caller walks its own part and the thread another:
    # the caller's part stops at the kernel's next poll, the thread's part
    # finishes, no queued part starts, and every thread is joined before
    # the KeyboardInterrupt propagates.  Uninterrupted, the caller's part
    # (partition 1 of n = 35) takes about ten seconds.
    started, finished, interrupted = [], [], []
    caller_running = threading.Event()

    def run_search(*args):
        started.append(args[5])
        if threading.current_thread() is threading.main_thread():
            try:
                caller_running.set()
                return fastsearch.run_search(35, True, 0, 0, True, 1)
            except KeyboardInterrupt:
                interrupted.append((args[5], time.perf_counter()))
                raise
        assert caller_running.wait(10)
        time.sleep(0.05)
        signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        time.sleep(0.5)
        finished.append((args[5], time.perf_counter()))
        return fastsearch.run_search(*args)

    _hook_kernel(monkeypatch, fastsearch, run_search)
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        search_skolem_starters(SearchConfig(n=25, mode="enumerate", workers=2))
    assert threading.active_count() == before
    assert sorted(started) == [6, 7]
    [(caller_top, stopped_at)] = interrupted
    [(thread_top, finished_at)] = finished
    assert {caller_top, thread_top} == {6, 7}
    # the caller stopped while the thread's part was still running
    assert stopped_at < finished_at


def test_interrupt_while_the_caller_waits_lets_the_thread_finish(fastsearch, monkeypatch):
    # Ctrl-C after the caller has run its own part, while it waits for the
    # thread's: the thread's part still finishes and the thread is joined
    # before the KeyboardInterrupt propagates.  A count at n = 7 has two
    # parts, one per worker.
    thread_started, caller_done = threading.Event(), threading.Event()
    finished = []

    def run_search(*args):
        if threading.current_thread() is threading.main_thread():
            assert thread_started.wait(10)  # the thread holds the other part
            caller_done.set()
            return fastsearch.run_search(*args)
        thread_started.set()
        assert caller_done.wait(10)
        time.sleep(0.05)  # the caller is back in _thread_map, waiting
        signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        time.sleep(0.5)
        finished.append(time.perf_counter())
        return fastsearch.run_search(*args)

    _hook_kernel(monkeypatch, fastsearch, run_search)
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        search_skolem_starters(SearchConfig(n=7, workers=2))
    raised_at = time.perf_counter()
    assert threading.active_count() == before
    [finished_at] = finished
    assert finished_at < raised_at


def test_mirror_partitions_have_equal_counts_and_nodes(fastsearch):
    # x -> n - x - d maps the starters and the placements of top-level
    # partition x onto those of t + 1 - x, one to one
    for kernel, n_max in ((fastsearch, 21), (_pysearch, 15)):
        for n in range(3, n_max + 1, 2):
            t = (n - 1) // 2
            for strong in (False, True):
                parts = [kernel.run_search(n, strong, 0, 0, True, x)[:2] for x in range(1, t + 1)]
                assert parts == parts[::-1], (kernel, n, strong)


def test_mirrored_count_matches_the_whole_walk(fastsearch):
    for n in (19, 21, 23):
        for strong in (False, True):
            expected = fastsearch.run_search(n, strong, 0, 0, True, 0)[:2]
            for workers in (1, 2):
                config = SearchConfig(n=n, require_strong=strong, workers=workers)
                result = search_skolem_starters(config)
                assert (result.count, result.nodes_explored) == expected, config
                assert result.complete


def test_mirrored_count_at_27_strong(fastsearch):
    # t = 13 is odd, so the self-mirrored middle partition x = 7 counts once
    result = search_skolem_starters(SearchConfig(n=27))
    assert result.backend == "compiled"
    assert (result.count, result.nodes_explored) == (47116, 17_855_357)


def test_count_walks_half_the_partitions_and_enumeration_all(fastsearch, monkeypatch):
    tops = []

    def run_search(*args):
        tops.append(args[5])
        return fastsearch.run_search(*args)

    _hook_kernel(monkeypatch, fastsearch, run_search)
    for n, half in ((25, 6), (27, 7)):
        for mode, seen in (("count", half), ("enumerate", (n - 1) // 2)):
            tops.clear()
            search_skolem_starters(SearchConfig(n=n, mode=mode, limit=None if mode == "count" else 1))
            assert tops == list(range(1, seen + 1)), (n, mode)


def test_one_worker_asks_each_partition_only_for_missing_witnesses(fastsearch, monkeypatch):
    # the partitions of n = 17 strong hold 6, 3, 7, 12, ... starters, so
    # with limit 10 the parts are asked for 10, 4, 1 and then no witness
    caps = []

    def run_search(*args):
        caps.append(args[3])
        return fastsearch.run_search(*args)

    _hook_kernel(monkeypatch, fastsearch, run_search)
    result = search_skolem_starters(SearchConfig(n=17, mode="enumerate", limit=10))
    assert caps == [10, 4, 1, 0, 0, 0, 0, 0]
    assert (result.count, len(result.witnesses)) == (56, 10)


def test_threads_ask_each_partition_for_the_whole_cap(fastsearch, monkeypatch):
    # on threads every part runs before the merge, so each is asked for
    # all 10 witnesses and the merge keeps the one-worker result's
    one_worker = search_skolem_starters(SearchConfig(n=17, mode="enumerate", limit=10))
    caps = []

    def run_search(*args):
        caps.append(args[3])
        return fastsearch.run_search(*args)

    _hook_kernel(monkeypatch, fastsearch, run_search)
    result = search_skolem_starters(SearchConfig(n=17, mode="enumerate", limit=10, workers=2))
    assert (result.workers, caps) == (2, [10] * 8)
    assert result.witnesses == one_worker.witnesses


def test_parallel_zero_count_order():
    seq = search_skolem_starters(SearchConfig(n=15, require_strong=False))
    par = search_skolem_starters(
        SearchConfig(n=15, require_strong=False, workers=2)
    )
    assert seq.count == par.count == 0
    assert seq.nodes_explored == par.nodes_explored


def test_first_witness_ignores_workers():
    result = search_skolem_starters(SearchConfig(n=11, mode="first", workers=4))
    assert result.workers == 1
    assert result.witnesses[0].pairs == tuple(
        sorted(_witness_pairs(FIRST_STRONG_WITNESS[11]))
    )


def test_ceiling_enforcement(monkeypatch):
    assert DEFAULT_CEILING == 27
    with pytest.raises(CeilingExceededError) as exc_info:
        search_skolem_starters(SearchConfig(n=29))
    assert exc_info.value.n == 29
    assert exc_info.value.ceiling == DEFAULT_CEILING
    assert "force" in str(exc_info.value)

    monkeypatch.setattr(skolem.search, "DEFAULT_CEILING", 9)
    with pytest.raises(CeilingExceededError) as exc_info:
        search_skolem_starters(SearchConfig(n=11))
    assert exc_info.value.ceiling == 9
    forced = search_skolem_starters(SearchConfig(n=11, force=True))
    assert forced.count == 2


def test_backend_override(fastsearch, monkeypatch):
    assert active_backend() == "compiled"
    # without the extension every search falls back to the pure kernel
    monkeypatch.setattr(skolem.search, "_fastsearch", None)
    assert active_backend() == "pure"
    result = search_skolem_starters(SearchConfig(n=11))
    assert result.backend == "pure"
    assert result.count == 2


def test_non_int_limit_or_workers_is_refused_on_both_kernels(fastsearch, monkeypatch):
    # a float limit used to reach the kernels, which then disagreed: the
    # compiled one raised TypeError, the pure one returned 2 witnesses
    bad = [("limit", 1.5), ("limit", True), ("workers", 2.0), ("workers", False)]
    for kernel in (fastsearch, None):
        monkeypatch.setattr(skolem.search, "_fastsearch", kernel)
        for field, value in bad:
            with pytest.raises(TypeError, match=f"{field} must be an int, got {value!r}"):
                search_skolem_starters(SearchConfig(n=11, mode="enumerate", **{field: value}))
        capped = search_skolem_starters(SearchConfig(n=11, mode="enumerate", limit=1))
        assert (capped.count, len(capped.witnesses)) == (2, 1)


def test_orders_past_the_machine_word_run_the_pure_kernel(fastsearch):
    assert skolem.search._kernel(63) == (fastsearch, "compiled")
    assert skolem.search._kernel(65) == (_pysearch, "pure")


def test_backends_agree_through_the_front_door(fastsearch, monkeypatch):
    runs = {}
    for backend, kernel in (("compiled", fastsearch), ("pure", None)):
        monkeypatch.setattr(skolem.search, "_fastsearch", kernel)
        result = search_skolem_starters(SearchConfig(n=13, mode="enumerate", require_strong=False))
        assert result.backend == backend
        runs[backend] = (
            result.count,
            result.nodes_explored,
            [p.pairs for p in result.witnesses],
        )
    assert runs["pure"] == runs["compiled"]


def test_cross_validation():
    # both constructed starters of Z_11 verify and occur in the enumeration
    built = [build_strong_skolem(11, choice) for choice in BetaChoice]
    for ps in built:
        assert full_report(ps).verdicts == (True, True, True)
    result = search_skolem_starters(SearchConfig(n=11, mode="enumerate"))
    assert result.count == STARTER_COUNTS[(11, True)]
    assert {ps.pairs for ps in result.witnesses} == {ps.pairs for ps in built}

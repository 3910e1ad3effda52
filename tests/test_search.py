import copy
import dataclasses
import gc
import inspect
import os
import pickle
import platform
import signal
import subprocess
import sys
import threading
import time
import types
import weakref
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
    skolem_admissible,
)
import skolem.search
from skolem import _pysearch

from _fixtures import FIRST_STRONG_WITNESS, NODE_COUNTS, S_HALF, S_TWO, STARTER_COUNTS
from _naive import (
    count_skolem_starters,
    element_driven_starters,
    plain_count_by_coefficients,
    row_pairs,
    sum_array_walk,
)

SRC = Path(__file__).resolve().parent.parent / "src"


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


def _agreement_calls(n, strong):
    """run_search arguments, descending, for the whole walk, every
    top-level partition, early stops with and without a witness cap, and
    caps either side of the 256 witnesses the compiled kernel buffers
    before it hands them over."""
    calls = [(0, -1, x) for x in range(n - (n - 1) // 2)]
    calls += [(stop, cap, 0) for stop in (1, 3) for cap in (0, 2)]
    calls += [(0, cap, 0) for cap in (255, 256, 257)]
    return [(n, strong, stop, cap, True, top) for stop, cap, top in calls]


def test_kernels_agree_exactly(fastsearch):
    # The compiled walk enters every order the same way: a recursive
    # function per level hands its subtree down until the hand-off level.
    # n = 3 (t = 1) is that last level alone; n = 5 to 15 (t <= 7) recurse
    # down to their last level, which runs out of line.  From n = 17
    # (t = 8) the last 7 levels run as nested loops of their own: n = 17
    # hands over below its top level, and n = 19, 21 and 23 2 to 4 levels
    # down, and every stop and every full witness batch falls in the tail.
    # n = 15 has no starter, so whether t = 7 takes the last level or the
    # nested loops is not seen here.  n <= 17 are checked, both orders,
    # against the recursive walk that tests each candidate's sum, by
    # test_kernel_fuzz.py's grid.  n = 19 and 21 are checked against the
    # pure kernel alone, descending, as the package walks, and so is n = 23
    # strong, on the whole walk and every partition only: it has no
    # starter, so each stop and cap would walk the whole tree again and
    # check nothing new.
    for n, strong in ((19, False), (19, True), (21, True)):
        for args in _agreement_calls(n, strong):
            assert fastsearch.run_search(*args) == _pysearch.run_search(*args), args
    for top in range(12):  # 0, the whole walk, then each x of difference 11
        args = (23, True, 0, -1, True, top)
        assert fastsearch.run_search(*args) == _pysearch.run_search(*args), args


@pytest.mark.parametrize("n, nodes", [(57, 304_453), (59, 164_183)])
def test_kernels_agree_at_the_top_of_the_word(fastsearch, n, nodes):
    # the first three strong starters: F and G reach bit n - 1 near 63,
    # and the C kernel's G carries bits past n into the next rotation
    expected = _pysearch.run_search(n, True, 3, -1, True, 0)
    assert expected[:2] == (3, nodes)
    assert fastsearch.run_search(n, True, 3, -1, True, 0) == expected
    # and so do their PairSets, whose elements reach n - 1
    pair_sets = [PairSet(n, row_pairs(xs)) for xs in expected[2]]
    for kernel in (fastsearch, _pysearch):
        assert kernel.run_search(n, True, 3, -1, True, 0, PairSet) == (*expected[:2], pair_sets)


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


# Given PairSet, both kernels' run_search hand their witnesses over as
# PairSets, the compiled one built in C and the pure one through
# PairSet._from_witnesses; every test below holds the two to the same
# contract.


def test_witness_constructor_matches_pair_set(fastsearch):
    # run_search with PairSet gives the count and node count of the call
    # without it and, per row, the pair set of that row's pairs: for the
    # whole walk and every top-level partition, each walked whole, to the
    # first starter and to a cap of 3, at each n <= 19 that has a Skolem
    # starter.  Walks that find none, as at n = 21 and 23, are held to the
    # same count and node count by test_witness_batch_of_none_is_empty and
    # by the kernel fuzz grid's PairSet calls
    for kernel in (fastsearch, _pysearch):
        for n in filter(skolem_admissible, range(3, 20, 2)):
            for strong in (False, True):
                for descending in (True, False):
                    top_d = (n - 1) // 2 if descending else 1
                    for top in range(n - top_d):
                        for stop, cap in ((0, -1), (1, 1), (0, 3)):
                            args = (n, strong, stop, cap, descending, top)
                            count, nodes, rows = kernel.run_search(*args)
                            found = kernel.run_search(*args, PairSet)
                            assert found[:2] == (count, nodes), (kernel, args)
                            assert len(found[2]) == len(rows), (kernel, args)
                            for xs, ps in zip(rows, found[2]):
                                checked = PairSet(n, row_pairs(xs))
                                fast = PairSet._from_pairs(n, xs, [y for _, y in row_pairs(xs)])
                                for built in (ps, fast):
                                    assert type(built) is PairSet
                                    assert built.pairs == checked.pairs and built == checked
                                    assert hash(built) == hash(checked)


def test_witness_batch_of_none_is_empty(fastsearch):
    # no Skolem starter of Z_13 exists; a count collects none
    for kernel in (fastsearch, _pysearch):
        assert kernel.run_search(13, False, 0, -1, True, 0, PairSet)[::2] == (0, [])
        assert kernel.run_search(11, False, 0, 0, True, 0, PairSet)[::2] == (10, [])
    assert PairSet._from_witnesses(11, []) == ()


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
        PairSet._from_pairs(n, xs, [y for _, y in row_pairs(xs)])


def test_witnesses_share_their_pair_tuples(fastsearch):
    # one tuple per distinct pair (x, x + d), 1 <= x < x + d <= n - 1, not
    # one per witness and difference
    n = 19
    t = (n - 1) // 2
    distinct_pairs = sum(n - 1 - d for d in range(1, t + 1))
    for kernel in (fastsearch, _pysearch):
        _, _, witnesses = kernel.run_search(n, False, 0, -1, True, 0, PairSet)
        canonical = [ps.pairs for ps in witnesses]
        assert len(canonical) == STARTER_COUNTS[(n, False)] > distinct_pairs
        assert len({id(p) for pairs in canonical for p in pairs}) <= distinct_pairs
    for workers in (1, 2):
        config = SearchConfig(n=n, mode="enumerate", require_strong=False, workers=workers)
        r = search_skolem_starters(config)
        assert len(r.witnesses) == STARTER_COUNTS[(n, False)]
        assert len({id(p) for ps in r.witnesses for p in ps.pairs}) <= distinct_pairs


def test_pair_tuples_are_shared_across_searches_and_the_construction(fastsearch):
    # the compiled layout keeps each pair of small elements for the life of
    # the module: two searches hand out the same objects, and the
    # construction's starter of Z_19 shares every pair with the equal witness
    config = SearchConfig(n=19, mode="enumerate")
    first, second = (search_skolem_starters(config).witnesses for _ in range(2))
    assert [ps.pairs for ps in first] == [ps.pairs for ps in second]
    assert all(p is q for a, b in zip(first, second) for p, q in zip(a.pairs, b.pairs))
    built = build_strong_skolem(19)
    (found,) = [ps for ps in first if ps.pairs == built.pairs]
    assert all(p is q for p, q in zip(built.pairs, found.pairs))


def test_compiled_tuples_stay_out_of_the_cyclic_gc(fastsearch, no_collection):
    # tuples of ints, tuples of those, and the frozen slotted PairSets that
    # hold an int and such a tuple cannot form a cycle, and rows are
    # bytes; the lists and the result triples, which hold them, stay
    # tracked
    n = 19
    refs = sys.getrefcount(PairSet)
    rows = fastsearch.run_search(n, False, 0, -1)
    result = fastsearch.run_search(n, False, 0, -1, True, 0, PairSet)
    witnesses, found = rows[2], result[2]
    # each PairSet holds one reference to its class
    assert sys.getrefcount(PairSet) == refs + len(found)
    assert len(witnesses) == len(found) == STARTER_COUNTS[(n, False)]
    assert all(map(gc.is_tracked, (rows, result, witnesses, found)))
    assert {(type(xs), len(xs)) for xs in witnesses} == {(bytes, (n - 1) // 2)}
    assert not any(map(gc.is_tracked, witnesses))
    assert {type(ps) for ps in found} == {PairSet}
    assert not any(map(gc.is_tracked, found))
    assert not any(gc.is_tracked(ps.pairs) for ps in found)
    assert not any(gc.is_tracked(p) for ps in found for p in ps.pairs)


def test_compiled_search_witnesses_are_untracked_pair_sets(fastsearch, monkeypatch, no_collection):
    # built in C, each is an exact, frozen PairSet equal, with an equal hash
    # and repr, to the pure kernel's witness and to the checked constructor's
    n = 19
    config = SearchConfig(n=n, mode="enumerate", require_strong=False)
    compiled = search_skolem_starters(config)
    monkeypatch.setattr(skolem.search, "_fastsearch", None)
    pure = search_skolem_starters(config)
    assert (compiled.backend, pure.backend) == ("compiled", "pure")
    assert len(compiled.witnesses) == len(pure.witnesses) == STARTER_COUNTS[(n, False)]
    for ps, reference in zip(compiled.witnesses, pure.witnesses):
        assert type(ps) is PairSet and not gc.is_tracked(ps)
        for other in (reference, PairSet(n, ps.pairs)):
            assert ps == other and hash(ps) == hash(other) and repr(ps) == repr(other)
    ps = compiled.witnesses[0]
    assert not hasattr(ps, "__dict__")
    with pytest.raises(TypeError):
        weakref.ref(ps)
    for name, value in (("n", 21), ("pairs", ())):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ps, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(ps, name)
    # so is a name that is no field, which has no slot either
    with pytest.raises(dataclasses.FrozenInstanceError):
        ps.extra = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        del ps.extra


def test_pair_sets_survive_pickle_copy_and_replace(fastsearch):
    found = search_skolem_starters(SearchConfig(n=19, mode="first")).witnesses[0]
    built = build_strong_skolem(19)
    for ps in (found, built):
        copies = [pickle.loads(pickle.dumps(ps, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(ps), copy.deepcopy(ps), dataclasses.replace(ps)]
        for other in copies:
            assert type(other) is PairSet
            assert other == ps and hash(other) == hash(ps) and repr(other) == repr(ps)
        # replace runs the checking constructor
        assert dataclasses.replace(ps, pairs=ps.pairs[::-1]) == ps
        assert dataclasses.replace(ps, pairs=ps.pairs[1:]) == PairSet(19, ps.pairs[1:])
        with pytest.raises(ValueError, match="odd"):
            dataclasses.replace(ps, n=18)


@dataclasses.dataclass(frozen=True)
class _WithDict:
    n: int
    pairs: tuple


class _WithWeakref:
    __slots__ = ("n", "pairs", "__weakref__")


class _WithoutPairs:
    __slots__ = ("n",)


@pytest.mark.parametrize(
    "cls, message",
    [
        (_WithDict, "^_WithDict instances have a __dict__ or a __weakref__$"),
        (_WithWeakref, "^_WithWeakref instances have a __dict__ or a __weakref__$"),
        (_WithoutPairs, "^_WithoutPairs has no slots n and pairs of its own$"),
        (tuple, "^tuple has no slots n and pairs of its own$"),
        (PairSet(11, S_HALF[11]), "must be type"),
    ],
    ids=["dict", "weakref", "no-pairs-slot", "no-slots", "not-a-class"],
)
def test_compiled_witness_pairs_refuses_a_class_it_cannot_untrack(fastsearch, cls, message):
    # the compiled run_search builds its witnesses' pair sets only as
    # instances it can take out of the cyclic GC
    with pytest.raises(TypeError, match=message):
        fastsearch.run_search(11, True, 0, -1, True, 0, cls)


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


def _element_driven(n, strong):
    """The starters of element_driven_starters(n, strong), as a set of
    frozensets of pairs."""
    return {frozenset(tuple(sorted(p)) for p in ps) for ps in element_driven_starters(n, strong)}


def test_kernel_witnesses_match_element_driven_oracle(fastsearch):
    # Same starter sets from a structurally different enumeration strategy.
    # n = 19 takes the oracle 0.12 s plain and 0.03 s strong
    for n in (9, 11, 17, 19):
        for strong in (False, True):
            oracle = _element_driven(n, strong)
            for kernel in (_pysearch, fastsearch):
                count, _, witnesses = kernel.run_search(n, strong, 0, -1)
                found = {frozenset(row_pairs(xs)) for xs in witnesses}
                assert count == len(oracle) == len(found), (kernel, n, strong)
                assert found == oracle, (kernel, n, strong)


@pytest.mark.slow
def test_compiled_strong_witnesses_at_25_match_element_driven_oracle(fastsearch):
    # the oracle takes 9 to 11 s here; at strong n = 27 it took 48 to 79 s
    # and 72 MB, so that order is left to the frozen counts
    oracle = _element_driven(25, True)
    count, _, witnesses = fastsearch.run_search(25, True, 0, -1)
    found = {frozenset(row_pairs(xs)) for xs in witnesses}
    assert count == len(oracle) == len(found) == STARTER_COUNTS[(25, True)]
    assert found == oracle


def test_plain_counts_match_a_memoised_element_driven_count():
    # the oracle above lists starters only up to n = 19; this count checks
    # the plain fixture at n = 25 too, with no kernel involved.
    # n = 27 takes it 6 to 7 s and 408 MB and is the slow test below
    for (n, strong), count in STARTER_COUNTS.items():
        if not strong and n <= 25:
            assert count_skolem_starters(n) == count, n


@pytest.mark.slow
def test_plain_count_at_27_matches_a_memoised_element_driven_count():
    assert count_skolem_starters(27) == STARTER_COUNTS[(27, False)] == 3_040_560


def test_plain_node_count_fixtures_match_a_count_that_walks_no_tree():
    # every plain count of the fixtures up to n = 19 as a polynomial's
    # coefficient: no branching, no element or difference order, no walk
    for (n, strong), (count, _) in NODE_COUNTS.items():
        if not strong and n <= 19:
            assert plain_count_by_coefficients(n) == count, n


@pytest.mark.slow
def test_plain_count_at_25_matches_a_count_that_walks_no_tree():
    assert plain_count_by_coefficients(25) == STARTER_COUNTS[(25, False)] == 455_936


def test_kernel_validation():
    with pytest.raises(ValueError, match="odd"):
        _pysearch.run_search(8, True)
    with pytest.raises(ValueError, match="odd"):
        _pysearch.run_search(1, True)
    with pytest.raises(ValueError, match="fixed_top"):
        _pysearch.run_search(11, True, 0, 0, True, 6)
    with pytest.raises(TypeError, match="keyword argument"):
        _pysearch.run_search(11, True, fixed_top=1)
    with pytest.raises(ValueError, match="^n = 259 exceeds the pure kernel's limit of 257$"):
        _pysearch.run_search(259, True)


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
    # the pure kernel's witnesses hold each element, x <= n - 2, in a byte
    assert SearchConfig(n=257, force=True).n == skolem.search.MAX_SEARCH_N == 257
    with pytest.raises(ValueError, match="^exhaustive search beyond n = 257 is not supported$"):
        SearchConfig(n=259, force=True)
    assert SearchConfig(n=11, mode="count").mode is SearchMode.COUNT_ALL
    assert SearchConfig(n=11).t == 5


def test_count_mode():
    config = SearchConfig(n=11)
    result = search_skolem_starters(config)
    assert result.count == 2
    assert result.complete
    assert result.witnesses == ()
    assert config.mode is SearchMode.COUNT_ALL
    assert config.require_strong
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
        assert result.witnesses[0].pairs == tuple(sorted(row_pairs(xs)))
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
                expected = (count, nodes, [tuple(sorted(row_pairs(xs))) for xs in whole])
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
    kernel = types.SimpleNamespace(MAX_N=fastsearch.MAX_N, run_search=run_search)
    monkeypatch.setattr(skolem.search, "_fastsearch", kernel)


@pytest.mark.parametrize("failing", [{2}, {1, 2}], ids=["part-2", "parts-1-and-2"])
def test_failing_partition_raises_and_joins_every_thread(fastsearch, monkeypatch, failing):
    # a part that raises re-raises in the caller once every thread is
    # joined; an enumeration's parts start in ascending x and stop at the
    # failure.  When two parts fail, the first in that order wins, not the
    # first in time: part 1 raises only after part 2 has.
    queue = list(range(1, 13))
    tops = []
    second_failed = threading.Event()

    def run_search(*args):
        top = args[5]
        tops.append(top)
        if top not in failing:
            return fastsearch.run_search(*args)
        if top == 2:
            second_failed.set()
        elif 2 in failing:
            assert second_failed.wait(10)
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
    # the KeyboardInterrupt propagates.  An enumeration starts parts 1 and
    # 2.  Uninterrupted, the caller's part (partition 1 of n = 35) takes
    # about ten seconds.
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
    assert sorted(started) == [1, 2]
    [(caller_top, stopped_at)] = interrupted
    [(thread_top, finished_at)] = finished
    assert {caller_top, thread_top} == {1, 2}
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


@pytest.mark.parametrize("workers", [1, 2])
def test_the_mode_alone_sets_the_part_order(fastsearch, monkeypatch, workers):
    # A count's parts grow towards the mirror axis x = (t + 1) / 2, so on
    # any number of workers it walks them from the axis down, the largest
    # first, and every other mode walks all t in ascending x.  One worker
    # calls the kernel in that order, and two take the calls from a queue
    # in that order.  No part finds a starter here, so a first-witness
    # search walks every part and each asks for one witness, as does each
    # part of an enumeration capped at 1.
    calls, queues = [], []
    thread_map = skolem.search._thread_map

    def record(workers, fn, items):
        queues.append(list(items))
        return thread_map(workers, fn, items)

    def run_search(*args):
        calls.append(args)
        return 0, 0, []

    monkeypatch.setattr(skolem.search, "_thread_map", record)
    _hook_kernel(monkeypatch, fastsearch, run_search)
    for n, counted in ((25, [6, 5, 4, 3, 2, 1]), (27, [7, 6, 5, 4, 3, 2, 1])):
        for mode, limit, stop, cap in (("count", None, 0, 0), ("first", None, 1, 1),
                                       ("enumerate", 1, 0, 1)):
            calls.clear()
            queues.clear()
            config = SearchConfig(n=n, mode=mode, limit=limit, workers=workers)
            result = search_skolem_starters(config)
            tops = counted if mode == "count" else list(range(1, config.t + 1))
            expected = [(n, True, stop, cap, True, x, PairSet) for x in tops]
            if result.workers == 1:
                assert (calls, queues) == (expected, []), config
            else:
                assert queues == [tops] and sorted(calls) == sorted(expected), config


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


def test_threads_ask_each_partition_for_the_cap_less_the_parts_below(fastsearch, monkeypatch):
    # on threads a part asks for the cap of 10 less the counts of the parts
    # below it that are walked when it starts, and an enumeration queues
    # its parts in ascending x.  Each part here runs alone, so every part
    # that ran before it counts; the part counts are 6, 3, 7, 12, 12, 7, 3, 6
    one_worker = search_skolem_starters(SearchConfig(n=17, mode="enumerate", limit=10))
    counts = {x: fastsearch.run_search(17, True, 0, 0, True, x)[0] for x in range(1, 9)}
    queues, calls = [], []
    alone = threading.Lock()
    thread_map = skolem.search._thread_map

    def one_at_a_time(workers, fn, items):
        queues.append(list(items))

        def part(x):
            with alone:
                return fn(x)

        return thread_map(workers, part, items)

    def run_search(*args):
        calls.append((args[5], args[3]))
        return fastsearch.run_search(*args)

    monkeypatch.setattr(skolem.search, "_thread_map", one_at_a_time)
    _hook_kernel(monkeypatch, fastsearch, run_search)
    result = search_skolem_starters(SearchConfig(n=17, mode="enumerate", limit=10, workers=2))
    assert (result.workers, queues) == (2, [list(range(1, 9))])
    assert sorted(x for x, _ in calls) == list(range(1, 9))
    for i, (x, cap) in enumerate(calls):
        assert cap == max(10 - sum(counts[y] for y, _ in calls[:i] if y < x), 0)
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
    assert result.witnesses[0].pairs == tuple(sorted(row_pairs(FIRST_STRONG_WITNESS[11])))


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


def test_the_walk_runs_on_bmi2_exactly_where_the_cpu_has_it(fastsearch):
    # GCC and clang build the walk a second time for BMI1 and BMI2 on
    # x86-64, and the module picks that copy at import on a CPU that lists
    # both; anywhere else the walk is the baseline copy
    flags = set()
    if sys.platform == "linux" and platform.machine() == "x86_64":
        lines = Path("/proc/cpuinfo").read_text().splitlines()
        flags = set(next(line for line in lines if line.startswith("flags")).split())
    assert fastsearch.WALK == ("bmi2" if {"bmi1", "bmi2"} <= flags else "baseline")


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

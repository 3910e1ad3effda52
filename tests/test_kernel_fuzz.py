"""Differential checks of the compiled and pure kernels, and of the
construction's compiled and pure routes.

Every run_search call in a finite grid, each with and without PairSet,
must give on each kernel the (count, nodes, witnesses) triple of the
recursive walk in _naive.py, which tests every candidate's sum instead of
masking by half-sums, and with PairSet each witness must be the PairSet
of that walk's row.  Each folding certificate of a second finite grid,
real or corrupted, must get the same pair set, element types included,
or the same error from the construction's compiled and pure routes.
"""

import enum
from itertools import product

import pytest

from skolem import HalfSetCertificate, PairSet, _pysearch
from skolem.construction import _skolem_pairs

from _naive import row_pairs, sum_array_walk


def _grid(n):
    """Every run_search argument tuple of order n in the grid: either kind,
    each early stop, each witness cap, either order and each top-level
    partition, 0 being the whole walk; and on the whole walk, caps either
    side of the 256 witnesses the compiled kernel buffers before it hands
    them over (n = 17 plain has 504 witnesses, so they fill the buffer)."""
    for strong, stop, descending in product((False, True), (0, 1, 3), (True, False)):
        top_d = (n - 1) // 2 if descending else 1
        for top in range(n - top_d):
            for cap in (-1, 0, 2, 255, 256, 257) if top == 0 else (-1, 0, 2):
                yield n, strong, stop, cap, descending, top


@pytest.mark.parametrize("n", range(3, 18, 2))
def test_kernels_agree_on_every_call(fastsearch, n):
    # args: (n, strong, stop_after, collect_limit, descending, fixed_top),
    # and then with PairSet too
    for args in _grid(n):
        count, nodes, witnesses = sum_array_walk(*args)
        pair_sets = [PairSet(n, row_pairs(xs)) for xs in witnesses]
        for kernel in (fastsearch, _pysearch):
            assert kernel.run_search(*args) == (count, nodes, witnesses), (kernel, args)
            assert kernel.run_search(*args, PairSet) == (count, nodes, pair_sets), (kernel, args)


class _Two(enum.IntEnum):
    TWO = 2


def _foldings():
    """Every (q, direct, reflected) of the folding grid: each odd q in
    3..39, whose folding of the squares partitions 1..t only for a prime
    q == 3 (mod 4), with its two runs in either order, and one run at a
    time varied: kept, reversed, rotated by one, emptied, made 1..t+1,
    given a repeated entry, or with one position set to one of the entries
    below.  Runs are tuples, the one container the compiled route reads."""
    for q in range(3, 40, 2):
        t = (q - 1) // 2
        squares = {x * x % q for x in range(1, t + 1)}
        runs = (tuple(d for d in range(1, t + 1) if d in squares),
                tuple(d for d in range(1, t + 1) if q - d in squares))
        # entries near the range, far past any machine word, and a bool, a
        # float and an int subclass, which only the pure route reads
        entries = (-1, 0, 1, t, t + 1, t + 2, 2**80, -(2**80), True, 2.0, _Two.TWO)
        for pair in (runs, runs[::-1]):
            for side, run in enumerate(pair):
                variants = [run, run[::-1], run[1:] + run[:1], (), tuple(range(1, t + 2)),
                            run[:1] + run]
                variants += [run[:i] + (e,) + run[i + 1 :] for i in range(len(run)) for e in entries]
                for varied in variants:
                    yield (q, varied, pair[1]) if side == 0 else (q, pair[0], varied)


def test_construction_routes_agree_on_every_folding(routes):
    for case in _foldings():
        q, direct, reflected = case
        compiled, pure = routes(lambda: _skolem_pairs(*case).pairs)
        assert compiled == pure, case
        certificate = HalfSetCertificate(q, 2, direct, reflected)
        compiled, pure = routes(lambda: certificate.pair_set().pairs)
        assert compiled == pure, case

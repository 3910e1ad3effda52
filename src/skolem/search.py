"""Exhaustive search for (strong) Skolem starters: configuration, backend
selection, the partitioned walk and cross-validation of the construction.

The backtracking kernel exists twice with one contract and one tree: a
hand-written C extension, _fastsearch, whose 64-bit masks hold n <= 63,
and the pure-Python _pysearch, which has no such limit.  A search runs
the compiled kernel when it built and n fits its word, else the pure one.
Every search calls the kernel once per top-level partition (the position
x of the pair with the largest difference t) and merges the parts in
ascending x, in this process or across a process pool.

Search cost grows explosively with n, so search_skolem_starters refuses
n above a ceiling (default 27) unless forced; SKOLEM_CEILING overrides
the default.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from enum import Enum
from itertools import repeat

from . import _pysearch
from .construction import BetaChoice, build_strong_skolem
from .starters import PairSet, full_report

try:
    from . import _fastsearch
except ImportError:
    _fastsearch = None

DEFAULT_CEILING = 27
CEILING_ENV = "SKOLEM_CEILING"

# Memory-safety bound on the pure kernel's bytearray(n) arrays (the
# compiled kernel stops at n = 63); the time wall arrives far earlier, and
# the ceiling plus force covers every realistic run.
MAX_SEARCH_N = 1_000_001


class SearchMode(Enum):
    COUNT_ALL = "count"
    FIRST_WITNESS = "first"
    ENUMERATE_ALL = "enumerate"


class CeilingExceededError(RuntimeError):
    """Search refused because n exceeds the configured ceiling."""

    def __init__(self, n: int, ceiling: int):
        self.n = n
        self.ceiling = ceiling
        super().__init__(
            f"n = {n} exceeds the search ceiling {ceiling}; raise "
            f"{CEILING_ENV} or pass force=True (command line: --force)"
        )


def effective_ceiling() -> int:
    """The active search ceiling: SKOLEM_CEILING if set, else the default."""
    raw = os.environ.get(CEILING_ENV)
    if raw is None or raw == "":
        return DEFAULT_CEILING
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{CEILING_ENV} must be an integer, got {raw!r}") from None


def _kernel(n: int):
    """The kernel for a search of order n and its backend name."""
    if _fastsearch is not None and n <= _fastsearch.MAX_N:
        return _fastsearch, "compiled"
    return _pysearch, "pure"


def active_backend() -> str:
    """Name of the kernel searches up to n = 63 use: compiled or pure.

    Larger orders always run the pure kernel.
    """
    return _kernel(3)[1]


def _require_int(name: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {value!r}")


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one exhaustive search over Z_n.

    mode: COUNT_ALL tallies every starter, FIRST_WITNESS stops at the first
    one found, ENUMERATE_ALL tallies everything while collecting witnesses
    (capped at limit when given; the count stays exact past the cap).
    require_strong restricts the walk to strong starters.  COUNT_ALL and
    ENUMERATE_ALL spread the t top-level partitions over min(workers, t)
    processes when workers > 1; FIRST_WITNESS runs on one worker, walking
    the partitions in order until one holds a starter, so the witness is
    the deterministic depth-first one.  force bypasses the ceiling.
    """

    n: int
    mode: SearchMode = SearchMode.COUNT_ALL
    require_strong: bool = True
    limit: int | None = None
    workers: int = 1
    force: bool = False

    def __post_init__(self):
        if isinstance(self.mode, str):
            object.__setattr__(self, "mode", SearchMode(self.mode))
        n = self.n
        _require_int("n", n)
        if n < 3 or n % 2 == 0:
            raise ValueError(f"n must be odd and >= 3, got {n}")
        if n > MAX_SEARCH_N:
            raise ValueError(f"exhaustive search beyond n = {MAX_SEARCH_N} is not supported")
        if self.limit is not None:
            _require_int("limit", self.limit)
            if self.limit < 1:
                raise ValueError(f"limit must be a positive int or None, got {self.limit}")
        _require_int("workers", self.workers)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    @property
    def t(self) -> int:
        return (self.n - 1) // 2


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one search.

    count is the exact number of starters of the requested kind when
    complete is True; for an aborted FIRST_WITNESS run it is the number
    found before stopping (i.e. 1).  nodes_explored counts successful pair
    placements across the whole walk, witnesses holds collected starters in
    deterministic depth-first order.  Each witness becomes a PairSet
    through PairSet._from_witness: one partition check of 1..n-1 per
    witness, with n validated once by SearchConfig.  wall_time times the
    walk only (kernel calls, pool start-up and merge), not the building
    of the PairSets.  workers is the number of processes the walk used.
    """

    n: int
    mode: SearchMode
    require_strong: bool
    count: int
    nodes_explored: int
    witnesses: tuple[PairSet, ...]
    complete: bool
    wall_time: float
    backend: str
    workers: int


def search_skolem_starters(config: SearchConfig) -> SearchResult:
    """Run the exhaustive search described by config.

    Raises CeilingExceededError when config.n exceeds the ceiling and
    force is not set.  The walk is t kernel calls, one per top-level
    partition x = 1..t of the first difference t, merged in ascending x:
    the depth-first order of one whole-tree walk, so the result is the
    same on any number of workers.
    """
    ceiling = effective_ceiling()
    if config.n > ceiling and not config.force:
        raise CeilingExceededError(config.n, ceiling)
    mod, backend_name = _kernel(config.n)
    n, t = config.n, config.t
    strong = config.require_strong
    if config.mode is SearchMode.FIRST_WITNESS:
        stop_after, collect = 1, 1
    elif config.mode is SearchMode.COUNT_ALL:
        stop_after, collect = 0, 0
    else:
        stop_after, collect = 0, (-1 if config.limit is None else config.limit)
    workers = 1 if stop_after else min(config.workers, t)
    count = nodes = 0
    raw_witnesses = []
    # The builtin map draws a call's arguments only when the loop asks for
    # that part, so on one worker each part collects just what the cap
    # still needs; a pool draws them all up front and the cap is applied
    # after the merge.
    caps = (collect - len(raw_witnesses) if collect >= 0 else -1 for _ in range(t))
    calls = (mod.run_search, repeat(n), repeat(strong), repeat(stop_after),
             caps, repeat(True), range(1, t + 1))

    started = time.perf_counter()
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        parts = map(*calls) if pool is None else pool.map(*calls)
        for part_count, part_nodes, part_witnesses in parts:
            count += part_count
            nodes += part_nodes
            raw_witnesses += part_witnesses
            if 0 < stop_after <= count:
                break
    if collect >= 0:
        del raw_witnesses[collect:]
    elapsed = time.perf_counter() - started

    return SearchResult(
        n=n,
        mode=config.mode,
        require_strong=strong,
        count=count,
        nodes_explored=nodes,
        witnesses=tuple(PairSet._from_witness(n, xs) for xs in raw_witnesses),
        complete=not stop_after or count == 0,
        wall_time=elapsed,
        backend=backend_name,
        workers=workers,
    )


@dataclass(frozen=True)
class CrossValidation:
    """Result of checking the construction against exhaustive enumeration.

    ok means: both constructed starters verify as strong Skolem starters
    and both literally occur among the exhaustively enumerated ones.
    """

    q: int
    strong_count: int
    nodes_explored: int
    verified_two: bool
    verified_half: bool
    found_two: bool
    found_half: bool
    wall_time: float

    @property
    def ok(self) -> bool:
        return (
            self.verified_two
            and self.verified_half
            and self.found_two
            and self.found_half
        )


def cross_validate_construction(q: int, workers: int = 1) -> CrossValidation:
    """Confront build_strong_skolem(q) with the independent search.

    Enumerates every strong Skolem starter of Z_q and checks that both
    constructed starters (beta = 2 and beta = (q+1)/2) verify and appear
    in the enumeration.  Subject to the search ceiling like any search.
    """
    built = {c: build_strong_skolem(q, c) for c in (BetaChoice.TWO, BetaChoice.HALF)}
    verified = {c: all(full_report(ps).verdicts) for c, ps in built.items()}
    result = search_skolem_starters(
        SearchConfig(
            n=q,
            mode=SearchMode.ENUMERATE_ALL,
            require_strong=True,
            workers=workers,
        )
    )
    enumerated = {ps.pairs for ps in result.witnesses}
    return CrossValidation(
        q=q,
        strong_count=result.count,
        nodes_explored=result.nodes_explored,
        verified_two=verified[BetaChoice.TWO],
        verified_half=verified[BetaChoice.HALF],
        found_two=built[BetaChoice.TWO].pairs in enumerated,
        found_half=built[BetaChoice.HALF].pairs in enumerated,
        wall_time=result.wall_time,
    )

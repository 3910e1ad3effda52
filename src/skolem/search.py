"""Exhaustive search for (strong) Skolem starters: configuration, backend
selection and the partitioned walk.

The backtracking kernel is one bitset walk, written twice with one
contract and one tree: a hand-written C extension, _fastsearch, whose
64-bit masks hold n <= 63, and the pure-Python _pysearch, which has no
word limit and stops at n = 257, where a witness's elements still fit in
its bytes.  A search runs the compiled kernel when it built and n fits
its word, else the pure one.  Every search calls the kernel once per
top-level partition (the position x of the pair with the largest
difference t), with PairSet, so that the kernel hands each kept witness
over as a PairSet, and merges the parts in ascending x; the compiled
kernel builds them in C, out of the cyclic GC, each time the walk takes
the GIL back to flush its buffer of witnesses.  With workers > 1 the
parts of the compiled kernel, which walks with the GIL released, run on
the caller plus workers - 1 plain threads; the pure kernel holds the
GIL, so it runs on one worker, which also sees Ctrl-C at once.
`import skolem` loads no executor, and _pysearch only when a search
picks it.
The reflection x -> n - x - d maps starters to starters and partition x
to t + 1 - x, so a count walks only x = 1..ceil(t/2) and adds each
mirror pair twice; its node count is still that of the whole tree.

Search cost grows explosively with n, so search_skolem_starters refuses
n above DEFAULT_CEILING (27) unless forced.
"""

import threading
import time
from dataclasses import dataclass
from enum import Enum

from .residues import _quote, _require_int
from .starters import PairSet

# the one handle on the compiled module; skolem.construction reads it too
try:
    from . import _fastsearch
except ImportError:
    _fastsearch = None

DEFAULT_CEILING = 27

# The pure kernel, the only one past n = 63, hands each witness over as
# bytes when not given PairSet, and a smaller element x <= n - 2 must fit
# in a byte.  No search near the bound can finish anyway: the pure kernel
# finds no first strong witness for any n in 89..123 within 20 s.
MAX_SEARCH_N = 257


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
            f"n = {n} exceeds the search ceiling {ceiling}; "
            f"pass force=True (command line: --force)"
        )


def _kernel(n: int):
    """The kernel for a search of order n and its backend name."""
    if _fastsearch is not None and n <= _fastsearch.MAX_N:
        return _fastsearch, "compiled"
    from . import _pysearch

    return _pysearch, "pure"


def active_backend() -> str:
    """Name of the kernel searches up to n = 63 use: compiled or pure.

    Larger orders always run the pure kernel.
    """
    return "compiled" if _fastsearch is not None else "pure"


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one exhaustive search over Z_n.

    mode: COUNT_ALL tallies every starter, FIRST_WITNESS stops at the first
    one found, ENUMERATE_ALL tallies everything while collecting witnesses
    (capped at limit when given, which no other mode accepts; the count
    stays exact past the cap).
    require_strong restricts the walk to strong starters.  COUNT_ALL walks
    the ceil(t/2) top-level partitions up to the mirror and ENUMERATE_ALL
    all t of them, spread over the caller plus min(workers, partitions) - 1
    plain threads when workers > 1 on the compiled kernel; the pure
    kernel, which holds the GIL, and FIRST_WITNESS run on one worker, the
    latter walking the partitions in order until one holds a starter, so
    the witness is the deterministic depth-first one.  force bypasses the
    ceiling.
    """

    n: int
    mode: SearchMode = SearchMode.COUNT_ALL
    require_strong: bool = True
    limit: int | None = None
    workers: int = 1
    force: bool = False

    def __post_init__(self):
        try:
            object.__setattr__(self, "mode", SearchMode(self.mode))
        except ValueError:
            raise ValueError(f"{_quote(self.mode)} is not a valid SearchMode") from None
        n = self.n
        _require_int("n", n)
        if n < 3 or n % 2 == 0:
            raise ValueError(f"n must be odd and >= 3, got {_quote(n)}")
        if n > MAX_SEARCH_N:
            raise ValueError(f"exhaustive search beyond n = {MAX_SEARCH_N} is not supported")
        if self.limit is not None:
            _require_int("limit", self.limit)
            if self.limit < 1:
                raise ValueError(f"limit must be a positive int or None, got {_quote(self.limit)}")
            if self.mode is not SearchMode.ENUMERATE_ALL:
                raise ValueError(
                    "limit applies only to ENUMERATE_ALL "
                    "(command line: --limit needs --enumerate)"
                )
        _require_int("workers", self.workers)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {_quote(self.workers)}")
        for name in ("require_strong", "force"):
            if not isinstance(getattr(self, name), bool):
                raise TypeError(f"{name} must be a bool, got {_quote(getattr(self, name))}")

    @property
    def t(self) -> int:
        return (self.n - 1) // 2


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one search.

    count is the exact number of starters of the requested kind when
    complete is True; for an aborted FIRST_WITNESS run it is the number
    found before stopping (i.e. 1).  nodes_explored counts successful pair
    placements across the whole walk; for COUNT_ALL that is the whole
    tree, the walked partitions with each mirror pair doubled, which the
    reflection makes exact.  witnesses holds collected starters in
    deterministic depth-first order, as PairSets that the kernel that
    walked the tree builds as it walks, with n validated once by
    SearchConfig; the compiled one builds them in C and the GC does not
    track them.  wall_time times the whole search: kernel calls with the
    building of the PairSets, worker start-up and merge.  workers is the
    number of threads the walk used, the caller plus workers - 1 plain
    ones: always 1 for FIRST_WITNESS and on the pure kernel.
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


def _thread_map(workers: int, fn, items: list) -> list:
    """[fn(item) for item in items], run by the caller plus `workers - 1`
    threads, all taking calls from one queue.

    The results keep the order of items; the first call, in that order,
    that raised re-raises here, and no call not yet begun starts after a
    failure.  The caller works rather than waits, so its CPU, warm from
    whatever ran before, is not left idle while the threads share the
    other ones.  On Ctrl-C the caller's own call stops (the compiled
    kernel at its next poll), no call not yet begun starts, the calls
    running on the other threads finish, and every thread is joined
    before the exception propagates.  Plain threads spare `import skolem`
    the import of the standard executors, about a third of its cost.
    """
    results = [None] * len(items)
    errors = {}
    queue = list(enumerate(items))[::-1]  # popped from the end, in order
    # The wait is on this semaphore, not on Thread.join: an interrupted
    # join can mark a thread that is still running as stopped (CPython
    # 3.11), after which joining it again returns at once.
    exited = threading.Semaphore(0)

    def work():
        # list.pop and list.clear are atomic, so each call runs once
        while True:
            try:
                i, item = queue.pop()
            except IndexError:
                break
            try:
                results[i] = fn(item)
            except BaseException as exc:
                errors[i] = exc
                queue.clear()
        exited.release()

    threads = []
    try:
        for _ in range(min(workers, len(items)) - 1):
            thread = threading.Thread(target=work)
            thread.start()
            threads.append(thread)
        work()
        for _ in range(len(threads) + 1):  # the caller's work released once too
            exited.acquire()
    except BaseException:
        queue.clear()
        raise
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return results


def search_skolem_starters(config: SearchConfig) -> SearchResult:
    """Run the exhaustive search described by config.

    Raises CeilingExceededError when config.n exceeds DEFAULT_CEILING and
    force is not set.  The walk is one kernel call per top-level
    partition x of the first difference t, merged in ascending x: the
    depth-first order of one whole-tree walk, so the result is the same on
    any number of workers.  A count stops at x = ceil(t/2), the mirror.
    """
    if config.n > DEFAULT_CEILING and not config.force:
        raise CeilingExceededError(config.n, DEFAULT_CEILING)
    mod, backend_name = _kernel(config.n)
    n, t = config.n, config.t
    strong = config.require_strong
    if config.mode is SearchMode.FIRST_WITNESS:
        stop_after, collect = 1, 1
    elif config.mode is SearchMode.COUNT_ALL:
        stop_after, collect = 0, 0
    else:
        # no cap past the compiled kernel's C long long can bind
        stop_after, collect = 0, (-1 if config.limit is None else min(config.limit, 2**63 - 1))
    # A count walks up to the mirror (see the module docstring) and weighs
    # every part twice but the middle one of odd t, its own mirror.
    mirrored = config.mode is SearchMode.COUNT_ALL
    tops = range(1, (t + 1) // 2 + 1 if mirrored else t + 1)
    workers = 1 if stop_after or backend_name == "pure" else min(config.workers, len(tops))
    count = nodes = 0
    witnesses = []
    walked = [0] * (t + 1)  # the count of each part x once it is walked

    def part(x):
        # The merge below keeps from part x at most the cap less the
        # counts of the parts below it, so the part asks for the cap less
        # the counts of those walked by the time it starts: on one worker
        # all of them, on threads those that have finished.
        cap = max(collect - sum(walked[:x]), 0) if collect >= 0 else -1
        result = mod.run_search(n, strong, stop_after, cap, True, x, PairSet)
        walked[x] = result[0]
        return result

    started = time.perf_counter()
    if workers == 1:
        parts = map(part, tops)
    else:
        # Parts grow towards the mirror axis x = (t + 1) / 2, so a count's
        # threads take the parts nearest it first and the last to start is
        # small.  An enumeration takes them in ascending x, so that more
        # of the parts below each are walked when it starts; the part
        # sizes are symmetric, so its last part is small too.
        queued = sorted(tops, key=lambda x: abs(2 * x - t - 1)) if mirrored else list(tops)
        done = dict(zip(queued, _thread_map(workers, part, queued)))
        parts = map(done.pop, tops)
    for x, (part_count, part_nodes, part_witnesses) in zip(tops, parts):
        weight = 2 if mirrored and 2 * x != t + 1 else 1
        count += weight * part_count
        nodes += weight * part_nodes
        if collect >= 0:
            del part_witnesses[collect - len(witnesses):]
        witnesses += part_witnesses
        if 0 < stop_after <= count:
            break
    elapsed = time.perf_counter() - started

    return SearchResult(
        n=n,
        mode=config.mode,
        require_strong=strong,
        count=count,
        nodes_explored=nodes,
        witnesses=tuple(witnesses),
        complete=not stop_after or count == 0,
        wall_time=elapsed,
        backend=backend_name,
        workers=workers,
    )

"""Workload definitions and the exact-answer checks every solve must pass.

Shared by the harness (run.py) and the fresh-process solver (child.py).
skolem is imported inside the functions, never at module level, so that
child.py can time `import skolem` itself.
"""

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class Instance:
    """One problem with its frozen exact answer.

    kind "search" is a search_skolem_starters call on Z_size; kind
    "tabulate" is the in-process path of `skolem tabulate --q-max size
    --beta both` plus half_set_certificate for each starter.  count is the
    exact number of starters found (search) or tabulated (tabulate).
    digest is witness_digest over every witness in depth-first order
    (search; checked by the gate, and by solves that enumerate) or over
    (q, beta choice, pairs) of every tabulated starter (tabulate).
    """

    kind: str
    size: int
    count: int
    digest: str
    mode: str = "count"
    strong: bool = True
    workers: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    full: Instance
    setup: Instance  # smallest instance: setup_s times the first answer on it
    tiny: Instance   # self-test size


# Digests were frozen from the pure kernel at the commit that added this
# benchmark; witness order is part of the search contract.
_STRONG_11 = Instance(
    "search", 11, 2, "ca2e7329580b94175e51f7d11fbdac800be5497d3ed965868944ca771b32f949"
)
_STRONG_11_W2 = Instance("search", 11, 2, _STRONG_11.digest, workers=2)
_PLAIN_11 = Instance(
    "search", 11, 10, "8fa7ed6074411835f27339ea3b1ae5f7f6047910081ef7ccaeae8cde45682f19",
    mode="enumerate", strong=False,
)
_STRONG_25 = Instance(
    "search", 25, 9622, "397b4bf84ad2a919790fc043db4046301f286b6e5c0d0e6a8b7fcfb815451fe3"
)
_TAB_11 = Instance(
    "tabulate", 11, 4, "e8acb62a63595d8564f6089e20ce69fdbc0f38362b310c43f2cc0e4dd45b69ec"
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "count-strong-25",
            "strong COUNT_ALL at n=25 on one worker: all time is in the kernel",
            _STRONG_25,
            _STRONG_11,
            _STRONG_11,
        ),
        Workload(
            "count-strong-25-w2",
            "the same count on two workers: pool start-up, 12 partitions, merge",
            Instance("search", 25, 9622, _STRONG_25.digest, workers=2),
            _STRONG_11_W2,
            _STRONG_11_W2,
        ),
        Workload(
            "enumerate-plain-19",
            "plain ENUMERATE_ALL at n=19: 2656 witnesses, the only PairSet-heavy load",
            Instance(
                "search", 19, 2656,
                "43f489c70102f97318104c6b2dee17235640ee7a259f1dc86dd114a2f6f47785",
                mode="enumerate", strong=False,
            ),
            _PLAIN_11,
            _PLAIN_11,
        ),
        Workload(
            "tabulate-1500",
            "construction plus full_report for 120 starters; never calls search",
            Instance(
                "tabulate", 1500, 120,
                "a2ac48d08fd8aa4f336f6050cd084dae398b902ec1988b491d2972ee19df4d9c",
            ),
            _TAB_11,
            Instance(
                "tabulate", 100, 14,
                "f92cb27ba58c738bc07cd13b7f404555703e59d0c2cf24079f66e838527c758b",
            ),
        ),
    )
}

# The traced pass's layer sweep: a per-layer metric falls back to one of
# these when the workload makes no call into that layer.  "parallel" is
# the parallel driver on a problem small enough to add to every traced run.
SWEEP = {
    "tabulate": WORKLOADS["tabulate-1500"].full,
    "enumerate": WORKLOADS["enumerate-plain-19"].full,
    "parallel": Instance(
        "search", 19, 194, "41ff697dce22d09b267670531d956a48df38bc452fc7b981c185e9762d34a2cc",
        workers=2,
    ),
}


def witness_digest(witnesses) -> str:
    """sha256 over an ordered sequence of pair tuples."""
    h = hashlib.sha256()
    for pairs in witnesses:
        h.update(repr(tuple(pairs)).encode())
        h.update(b"\n")
    return h.hexdigest()


def kernel_pairs(xs) -> tuple:
    """Canonical PairSet.pairs of a raw kernel witness (xs[d-1] = x)."""
    return tuple(sorted((x, x + d) for d, x in enumerate(xs, start=1)))


def run_instance(inst: Instance, call=None):
    """Solve inst through the public API and check the answer exactly.

    call(name, fn, *args) wraps each call into the package; the traced pass
    passes a span recorder, everything else calls straight through.
    Returns (ok, detail) where detail holds the figures the metrics need.
    """
    if call is None:
        def call(_name, fn, *args):
            return fn(*args)
    if inst.kind == "search":
        return _run_search(inst, call)
    return _run_tabulate(inst, call)


def _run_search(inst, call):
    from skolem import SearchConfig, SearchMode, search_skolem_starters

    config = SearchConfig(
        n=inst.size,
        mode=SearchMode(inst.mode),
        require_strong=inst.strong,
        workers=inst.workers,
    )
    result = call("search.search_skolem_starters", search_skolem_starters, config)
    ok = result.complete and result.count == inst.count
    if config.mode is SearchMode.ENUMERATE_ALL:
        ok = ok and witness_digest(ps.pairs for ps in result.witnesses) == inst.digest
    return ok, {
        "count": result.count,
        "nodes": result.nodes_explored,
        "witnesses": len(result.witnesses),
        "kernel_s": result.wall_time,
        "backend": result.backend,
        "workers": result.workers,
        "problem": [inst.size, inst.strong],
    }


def _run_tabulate(inst, call):
    from skolem import (
        BetaChoice,
        build_strong_skolem,
        construction_primes,
        full_report,
        half_set_certificate,
        smallest_qr_generator,
    )

    entries = []
    ok = True
    for q in call("construction.construction_primes", construction_primes, inst.size):
        for choice in (BetaChoice.TWO, BetaChoice.HALF):
            ps = call("construction.build_strong_skolem", build_strong_skolem, q, choice)
            report = call("starters.full_report", full_report, ps)
            call("residues.smallest_qr_generator", smallest_qr_generator, q)
            cert = call("construction.half_set_certificate", half_set_certificate, q, choice)
            ok = ok and all(report.verdicts) and cert.pair_set().pairs == ps.pairs
            entries.append((q, choice.value, ps.pairs))
    ok = ok and len(entries) == inst.count and witness_digest(entries) == inst.digest
    return ok, {"count": len(entries)}

"""The benchmark scripts under bench/: the kernel child that bench/record.py
and bench/kernel_ab.py both time with."""

import sys
from pathlib import Path

from _fixtures import NODE_COUNTS

ROOT = Path(__file__).resolve().parent.parent


def test_the_kernel_child_counts_in_a_fresh_interpreter(fastsearch, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from record import kernel_rows

    cases = [(19, True), (19, False)]
    rows = kernel_rows(ROOT / "src", cases, 1, 0)
    assert [(row["n"], row["strong"]) for row in rows] == cases
    for row in rows:
        key = row["n"], row["strong"]
        assert (row["count"], row["nodes_explored"]) == NODE_COUNTS[key], key
        assert (row["backend"], row["walk"]) == ("compiled", fastsearch.WALK)
        # the warm-up run is dropped; a spec of 0 s keeps the one run asked for
        assert row["runs"] == 1
        assert row["wall_time"] > 0

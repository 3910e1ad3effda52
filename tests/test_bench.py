"""The benchmark scripts under bench/: the kernel child that bench/record.py
and bench/kernel_ab.py both time with, and kernel_ab.py's verdict on a row."""

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


def test_the_ab_verdict_needs_nine_wins_in_ten_and_a_gap_past_the_iqr(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from kernel_ab import verdict

    # the base's median is 10.9 and its interquartile range 0.9
    base = [10.0, 10.2, 10.4, 10.6, 10.8, 11.0, 11.2, 11.4, 11.6, 11.8]
    faster = [b - 1 for b in base]
    assert verdict(base, faster) == "gain"
    assert verdict(faster, base) == "loss"
    # a tie counts for neither side: 9 wins of 10 are enough, 8 are not
    assert verdict(base, faster[:9] + base[9:]) == "gain"
    assert verdict(base, faster[:8] + base[8:]) == "no clear change"
    # every round won, but the medians closer than the base's IQR
    assert verdict(base, [b - 0.5 for b in base]) == "no clear change"
    assert verdict(base, base) == "no clear change"
    # fewer than 10 rounds show nothing, however far apart
    assert verdict(base[:9], [b - 5 for b in base[:9]]) == "no clear change"

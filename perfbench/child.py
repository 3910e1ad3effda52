"""One fresh-interpreter measurement; prints a JSON object as its last line.

    python3 perfbench/child.py setup '<instance json>'
    python3 perfbench/child.py solve '<instance json>'

setup times `import skolem` plus the first verified answer on the
instance, from inside the process.  solve imports first, then times one
verified solve: wall seconds, user+system CPU seconds of this process and
of the pool workers it reaped, and the process's peak resident memory.
Around the solve it also times a fixed reference computation that never
touches skolem, so the harness can express solve times in units of the
machine's current speed.
The harness puts the built package on PYTHONPATH.
"""

import json
import resource
import sys
import time

import workloads

REFERENCE_MIN_S = 0.1   # reference time before the solve, and at least after it
REFERENCE_SHARE = 0.2   # reference time after the solve, as a share of the solve


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _status_mb(field: str) -> float:
    # VmHWM belongs to this process image; ru_maxrss would carry over the
    # parent's peak through fork and exec.
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{field} missing from /proc/self/status")


def _queens(n: int) -> int:
    count = 0
    cols, up, down = [False] * n, [False] * (2 * n), [False] * (2 * n)

    def place(row: int) -> None:
        nonlocal count
        if row == n:
            count += 1
            return
        for c in range(n):
            if not (cols[c] or up[row + c] or down[row - c + n]):
                cols[c] = up[row + c] = down[row - c + n] = True
                place(row + 1)
                cols[c] = up[row + c] = down[row - c + n] = False

    place(0)
    return count


def reference_s(budget_s: float) -> float:
    """Mean seconds to count the 724 ten-queens solutions, over budget_s.

    Pure-Python backtracking like the search kernel, but independent of
    the package, so no change to skolem can move it while a slower or
    faster machine moves it as much as the solves.  The machine switches
    between speeds within a second, so the reference repeats for a budget
    in proportion to the solve it is set against.
    """
    reps = 0
    t0 = time.perf_counter()
    while True:
        if _queens(10) != 724:
            raise RuntimeError("reference computation gave a wrong answer")
        reps += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= budget_s:
            return elapsed / reps


def main(mode: str, raw: str) -> dict:
    inst = workloads.Instance(**json.loads(raw))
    if mode == "setup":
        t0 = time.perf_counter()
        import skolem  # noqa: F401

        t1 = time.perf_counter()
        ok, _ = workloads.run_instance(inst)
        t2 = time.perf_counter()
        return {"ok": ok, "setup_s": t2 - t0, "import_s": t1 - t0}
    if mode != "solve":
        raise ValueError(f"unknown mode {mode!r}")
    ref_before = reference_s(REFERENCE_MIN_S)
    import skolem

    rss_import = _status_mb("VmRSS")
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    ok, detail = workloads.run_instance(inst)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    peak = _status_mb("VmHWM")
    after_s = max(REFERENCE_MIN_S, REFERENCE_SHARE * wall)
    ref_after = reference_s(after_s)
    return dict(
        detail,
        ok=ok,
        solve_s=wall,
        cpu_s=cpu,
        peak_rss_mb=peak,
        import_rss_mb=rss_import,
        reference_s=(ref_before * REFERENCE_MIN_S + ref_after * after_s)
        / (REFERENCE_MIN_S + after_s),
        active_backend=skolem.active_backend(),
    )


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], sys.argv[2])))

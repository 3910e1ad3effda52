"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at its tiny size (n = 11, q_max = 100) through both
passes and checks that each run is correct and that its result line and
its printed table carry every metric BENCHMARK.json names for the pass,
with the unit BENCHMARK.json gives and a finite value.  Then it feeds
deliberately wrong expected answers and checks that the runs report
failures (error_rate > 0), which shows the correctness gate is not
vacuous.  Exits 1 on any problem.
"""

import contextlib
import io
import json
import math
import sys
from dataclasses import replace

import run
from workloads import WORKLOADS


def run_quiet(argv, workloads):
    """Exit code, result line, and the units of the printed table."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv + ["--seconds", "0.5"], workloads)
    lines = out.getvalue().strip().splitlines()
    table = dict(ln.split()[::2] for ln in lines[:-1]
                 if not ln.startswith("#") and len(ln.split()) == 3)
    return code, json.loads(lines[-1]), table


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    tiny = {name: replace(w, full=w.tiny) for name, w in WORKLOADS.items()}
    problems = []
    for name in tiny:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, res, table = run_quiet(["--workload", name, "--trace", str(trace)], tiny)
            label = f"{name} --trace {trace}"
            if code != 0 or not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{label}: not a clean correct run: {res}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            units = {k: v["unit"] for k, v in res["metrics"].items()}
            if units != want:
                problems.append(f"{label}: result-line units {units} differ from BENCHMARK.json")
            printed = {k: table.get(k) for k in want}
            if printed != want:
                problems.append(f"{label}: printed units {printed} differ from BENCHMARK.json")
            bad = [k for k, v in res["metrics"].items() if not math.isfinite(v["value"])]
            if bad:
                problems.append(f"{label}: non-finite values for {bad}")
            print(f"ok {label}: {len(units)} metrics", flush=True)
    for name in ("count-strong-25", "enumerate-plain-19", "tabulate-1500"):
        w = tiny[name]
        wrong = {name: replace(w, full=replace(w.full, count=w.full.count + 1))}
        code, res, _ = run_quiet(["--workload", name], wrong)
        if code == 0 or res["correct"] or not res["failed"]:
            problems.append(f"{name}: a wrong expected count went unnoticed: {res}")
        else:
            print(f"ok {name}: wrong expected count gives "
                  f"error_rate {res['failed'] / res['attempted']:.3f}", flush=True)
    for line in problems:
        print(f"FAIL {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

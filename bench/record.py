"""Record a baseline: the benchmark's end-to-end metrics over several seeds,
the search kernel's speed, the wall time and peak RSS of four command-line
runs, the wall time of one Tier-1 run and the source size, in one file.

    python3 bench/record.py --label NAME

For each workload in BENCHMARK.json and each seed 1..5 this runs
`perfbench/run.py --workload W --seed k --trace 0`, each timed pass lasting
BENCHMARK.json's run_seconds, and reads the row that run writes to
.bench_build/results/W-seed<k>-trace0.json.  Seed 0 is never
run or read: perfbench/selftest.py uses it for its deliberate wrong-answer
run.  Each row is deleted before its run, so a row left by another
revision cannot be read.

It then runs, from the package the last benchmark run built from this
checkout, the search kernel and four commands.  The kernel block is a
one-worker COUNT_ALL of each (n, strong) in KERNEL in one fresh
interpreter: one warm-up run, which is dropped, and then as many runs as
fill KERNEL_SECONDS, and at least KERNEL_RUNS.  A short count keeps
speeding up over its first runs, so a fixed few runs read it high.  Per
row: the backend and, for the compiled one, the copy of its walk that
runs on this CPU (_fastsearch.WALK, bmi2 or baseline), nodes_explored,
the number of runs kept, the best wall_time and ns per node.  A count
walks only half of the mirrored tree and reports the whole tree's nodes,
so ns per node is per node of the whole tree, about half the time each
walked node takes.  The commands are `skolem tabulate --q-max
20000 --beta both`, the same table to q = 5000 as JSON, `skolem search 27`
and `skolem search 25 --enumerate --no-strong`, five runs each.  Last, it
runs the Tier-1 suite once, `python -m pytest -q` at the checkout's root,
which builds the compiled module in place under src/.

BENCH_<NAME>.json, written at the checkout's root, holds, per workload,
each row's provenance, attempted and failed and its end-to-end metrics,
and the median and IQR/median over the seeds of each metric; the kernel
rows; per command, every run's wall time and peak RSS, with the same
two figures of each; the Tier-1 run's wall time, exit code and its
pytest summary line; and, as source, bench/size.py's figures: the lines
of each file under src/skolem, the C file's lines that hold code and the
Python lines that hold code.  It also records the length of the
checkout's path, which moves peak_rss_mb, so only baselines taken from
paths of equal length compare on that metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from size import sizes

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
SEEDS = range(1, 6)
CLI_RUNS = 5
COMMANDS = {
    "skolem tabulate --q-max 20000 --beta both": ["tabulate", "--q-max", "20000", "--beta", "both"],
    "skolem tabulate --q-max 5000 --beta both --json":
        ["tabulate", "--q-max", "5000", "--beta", "both", "--json"],
    "skolem search 27": ["search", "27"],
    "skolem search 25 --enumerate --no-strong": ["search", "25", "--enumerate", "--no-strong"],
}
# the plain walk is compiled apart from the strong one, so it has rows of
# its own at n = 19 and at n = 25, which has 6.9 times the strong nodes
KERNEL = [(19, True), (19, False), (25, True), (25, False), (27, True)]
KERNEL_RUNS = 5
KERNEL_SECONDS = 0.2
# run in a fresh interpreter; argv[1] is KERNEL, KERNEL_RUNS and
# KERNEL_SECONDS as JSON
KERNEL_CHILD = """
import json, sys, time
from skolem import SearchConfig, active_backend, search_skolem_starters
from skolem.search import _fastsearch
cases, runs, seconds = json.loads(sys.argv[1])
rows = []
for n, strong in cases:
    config = SearchConfig(n=n, require_strong=strong)
    search_skolem_starters(config)  # the warm-up run, dropped
    results = []
    start = time.perf_counter()
    while len(results) < runs or time.perf_counter() - start < seconds:
        results.append(search_skolem_starters(config))
    best = min(r.wall_time for r in results)
    nodes = results[0].nodes_explored
    rows.append({"n": n, "strong": strong, "backend": active_backend(),
                 "walk": _fastsearch.WALK if _fastsearch else None,
                 "nodes_explored": nodes, "runs": len(results), "wall_time": best,
                 "ns_per_node": best / nodes * 1e9})
print(json.dumps(rows))
"""


def spread(values) -> dict:
    """The median of values and the interquartile range over it."""
    mid = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": mid, "iqr_over_median": (q3 - q1) / mid}


def run_workload(name, seeds, seconds) -> list:
    """One perfbench row per seed, each from a run made here."""
    rows = []
    for seed in seeds:
        path = BUILD / "results" / f"{name}-seed{seed}-trace0.json"
        path.unlink(missing_ok=True)
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        code = subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode
        if not path.exists():
            raise SystemExit(f"{name} seed {seed}: run.py exited {code} and wrote no row")
        row = json.loads(path.read_text())
        print(f"# {name} seed {seed}: failed {row['failed']}/{row['attempted']}, "
              + ", ".join(f"{m} {v:.4g}" for m, v in row["metrics"].items()), file=sys.stderr)
        rows.append(row)
    return rows


def summarise(rows, metrics) -> dict:
    runs = []
    for row in rows:
        prov = dict(row["provenance"])
        prov["skolem_file"] = str(Path(prov["skolem_file"]).relative_to(ROOT))
        runs.append({"provenance": prov, "attempted": row["attempted"],
                     "failed": row["failed"],
                     "metrics": {m: row["metrics"][m] for m in metrics}})
    return {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {m: {**spread([r["metrics"][m] for r in runs]), "unit": unit}
                    for m, unit in metrics.items()},
        "runs": runs,
    }


def time_kernel() -> list:
    """The kernel rows: KERNEL's counts on one worker, each the best of the
    runs that follow one warm-up run and fill KERNEL_SECONDS, at least
    KERNEL_RUNS of them."""
    env = {**os.environ, "PYTHONPATH": str(BUILD / "lib")}
    spec = json.dumps([KERNEL, KERNEL_RUNS, KERNEL_SECONDS])
    proc = subprocess.run([sys.executable, "-c", KERNEL_CHILD, spec],
                          env=env, capture_output=True, text=True, check=True)
    rows = json.loads(proc.stdout)
    for row in rows:
        print(f"# kernel n={row['n']} strong={row['strong']}: {row['nodes_explored']} nodes, "
              f"best of {row['runs']}: {row['wall_time'] * 1e3:.4g} ms, "
              f"{row['ns_per_node']:.3f} ns/node", file=sys.stderr)
    return rows


def time_command(args, runs) -> dict:
    """Wall time and peak RSS of `python -m skolem args`, in fresh processes,
    importing the package the benchmark built."""
    env = {**os.environ, "PYTHONPATH": str(BUILD / "lib")}
    walls, peaks = [], []
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "skolem", *args], env=env,
                                stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        walls.append(time.perf_counter() - start)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise SystemExit(f"skolem {' '.join(args)} exited {proc.returncode}")
        peaks.append(usage.ru_maxrss / 1024)  # KiB on Linux
    return {"wall_s": {**spread(walls), "runs": walls},
            "peak_rss_mb": {**spread(peaks), "runs": peaks}}


def time_tests() -> dict:
    """Wall time, exit code and summary line of one Tier-1 run."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q"], cwd=ROOT,
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    summary = lines[-1] if lines else ""
    print(f"# tier-1: {summary}, {wall:.1f} s wall, exit {proc.returncode}",
          file=sys.stderr)
    return {"wall_s": wall, "exit_code": proc.returncode, "summary": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    # outside a git checkout, git fails with nothing on stdout: not clean
    git = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                         cwd=ROOT, capture_output=True, text=True)
    out = {
        "label": args.label,
        "seeds": list(SEEDS),
        "seconds": seconds,
        "checkout_path_length": len(str(ROOT)),
        "tracked_files_clean": git.returncode == 0 and git.stdout == "",
        "workloads": {w["name"]: summarise(run_workload(w["name"], SEEDS, seconds),
                                           metrics)
                      for w in spec["workloads"]},
    }
    out["kernel"] = time_kernel()
    out["commands"] = {name: time_command(cli, CLI_RUNS) for name, cli in COMMANDS.items()}
    out["tier1"] = time_tests()
    out["source"] = sizes()
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"# wrote {path.name}", file=sys.stderr)
    ok = all(w["failed"] == 0 for w in out["workloads"].values())
    return 0 if ok and out["tier1"]["exit_code"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

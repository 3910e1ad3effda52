"""Record a baseline: the benchmark's end-to-end metrics over several seeds,
and the wall time and peak RSS of two command-line runs, in one file.

    python3 bench/record.py --label NAME

For each workload in BENCHMARK.json and each seed 1..5 this runs
`perfbench/run.py --workload W --seed k --trace 0`, each timed pass lasting
BENCHMARK.json's run_seconds, and reads the row that run writes to
.bench_build/results/W-seed<k>-trace0.json.  Seed 0 is never
run or read: perfbench/selftest.py uses it for its deliberate wrong-answer
run.  Each row is deleted before its run, so a row left by another
revision cannot be read.

It then times `skolem tabulate --q-max 20000 --beta both` and
`skolem search 27`, five runs each, from the package the last benchmark run
built from this checkout, and writes BENCH_<NAME>.json at the checkout's
root.  The file holds, per workload, each row's provenance, attempted and
failed and its end-to-end metrics, and the median and IQR/median over the
seeds of each metric; per command, every run's wall time and peak RSS,
with the same two figures of each.  It also records the length of the checkout's path,
which moves peak_rss_mb, so only baselines taken from paths of equal
length compare on that metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
SEEDS = range(1, 6)
CLI_RUNS = 5
COMMANDS = {
    "skolem tabulate --q-max 20000 --beta both": ["tabulate", "--q-max", "20000", "--beta", "both"],
    "skolem search 27": ["search", "27"],
}


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                            cwd=ROOT, capture_output=True, text=True).stdout
    out = {
        "label": args.label,
        "seeds": list(SEEDS),
        "seconds": seconds,
        "checkout_path_length": len(str(ROOT)),
        "tracked_files_clean": status == "",
        "workloads": {w["name"]: summarise(run_workload(w["name"], SEEDS, seconds),
                                           metrics)
                      for w in spec["workloads"]},
    }
    out["commands"] = {name: time_command(cli, CLI_RUNS) for name, cli in COMMANDS.items()}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"# wrote {path.name}", file=sys.stderr)
    return 0 if all(w["failed"] == 0 for w in out["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())

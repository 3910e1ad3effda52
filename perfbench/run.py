"""Benchmark of the skolem package: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload count-strong-25 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload tabulate-1500 --seed 1 --seconds 10 --trace 1

Each run first builds the package with its own setup.py into a freshly
emptied .bench_build/lib, compiling whatever extension that build
defines, and imports skolem from there with the default backend
selection.  It then runs the correctness gate and one of two passes:

  --trace 0  fresh-process solves and set-ups: the end-to-end metrics;
  --trace 1  in-process solves with a span around every call into the
             package, a layer sweep and CLI probes: the per-layer metrics.

Every answer is checked exactly; a wrong or failed one counts in `failed`
and never as a timing.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the metrics are the ones
BENCHMARK.json lists for the pass.  A provenance row (and, traced, the
spans) goes to .bench_build/results/.  See README.md.
"""

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from tracing import Tracer
from workloads import SWEEP, WORKLOADS, run_instance, witness_digest, kernel_pairs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
LIB = BUILD / "lib"
RESULTS = BUILD / "results"

MIN_SOLVES = 5        # untraced solves, even when one outlasts --seconds
SETUP_SAMPLES = 9     # fresh interpreters behind the setup_s median
CLI_SAMPLES = 5       # fresh interpreters per CLI probe
SPOT_CHECKS = 8       # seeded witnesses re-verified with full_report
CHILD_TIMEOUT_S = 150

# The unit of every figure the harness prints; selftest.py checks the
# ones in the result line against BENCHMARK.json.
UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "cpu_s": "s",
    "reference_s": "s",
    "solve_rel": "ref",
    "cpu_rel": "ref",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
    "kernel.ns_per_node": "ns",
    "kernel.pure.ns_per_node": "ns",
    "kernel.compiled.ns_per_node": "ns",
    "kernel.nodes": "count",
    "kernel.yield": "ratio",
    "search.kernel_s": "s",
    "search.materialise_s": "s",
    "search.materialise_share": "ratio",
    "search.materialise_us_per_witness": "us",
    "search.partition_imbalance": "ratio",
    "search.pool_overhead_s": "s",
    "search.parallel_speedup": "ratio",
    "search.parallel_efficiency": "ratio",
    "starters.pairset_us": "us",
    "starters.full_report_ms": "ms",
    "starters.full_report_calls": "count",
    "construction.build_ms": "ms",
    "construction.certificate_ms": "ms",
    "residues.is_prime_us": "us",
    "residues.build_qr_table_ms": "ms",
    "residues.smallest_qr_generator_ms": "ms",
    "cli.import_s": "s",
    "cli.cold_start_s": "s",
    "trace.overhead_share": "ratio",
}


class Tally:
    """Operations attempted and the ones that failed or answered wrongly."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def build() -> float:
    """Build the package as a user's install would; returns seconds taken.

    The build directories are emptied first: distutils only adds or
    refreshes files, so a module or extension left from another revision
    would otherwise be imported as part of this one.
    """
    t0 = time.perf_counter()
    for stale in (BUILD / "setup", LIB):
        shutil.rmtree(stale, ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build", "--force",
         "--build-base", str(BUILD / "setup"), "--build-lib", str(LIB)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"build failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return time.perf_counter() - t0


def child_env() -> dict:
    path = [str(LIB)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def run_child(mode, inst, tally):
    """One fresh-interpreter measurement (child.py); None when it failed."""
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), mode, json.dumps(asdict(inst))]
    out, why = None, ""
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode == 0:
            out = json.loads(proc.stdout.strip().splitlines()[-1])
        else:
            why = proc.stderr.strip()[-300:]
    except subprocess.TimeoutExpired:
        why = "timed out"
    ok = out is not None and out["ok"]
    tally.check(ok, f"{mode} {inst.kind} {inst.size}: {why or 'wrong answer'}")
    return out if ok else None


def kernels() -> dict:
    """Every search kernel present, by backend name."""
    from skolem import _pysearch, search

    found = {"pure": _pysearch}
    if search._fastsearch is not None:
        found["compiled"] = search._fastsearch
    return found


def gate(inst, rng, tally, tr, label="gate"):
    """Check the exact answer before any timing.

    Search: every present kernel walks the instance partition by partition
    (the split the parallel driver uses) and must return the same
    (count, nodes, witnesses); count and witness order must match the
    frozen answer; ascending and descending order must agree at n = 19; a
    seeded sample of witnesses must pass full_report.  Node counts are
    compared between kernels only, never with a frozen value.  Tabulate:
    one verified solve.
    """
    from skolem import PairSet, full_report

    with tr.span(label, solve=label):
        if inst.kind == "tabulate":
            tally.check(run_instance(inst, tr.call)[0], f"{label}: tabulate answer")
            return
        n, strong = inst.size, inst.strong
        t = (n - 1) // 2
        found = kernels()
        names = sorted(found)
        rng.shuffle(names)
        triples = {}
        for name in names:
            mod = found[name]
            count = nodes = 0
            wits = []
            for x in range(1, n - t):
                c, k, w = tr.call(f"kernel.{name}.run_search", mod.run_search,
                                  n, strong, 0, -1, True, x)
                tr.annotate(count=c, nodes=k, problem=[n, strong], top=x)
                count += c
                nodes += k
                wits.extend(w)
            triples[name] = (count, nodes, wits)
            asc, desc = (mod.run_search(19, strong, 0, 0, d, 0)[0] for d in (False, True))
            tally.check(asc == desc, f"{label}: {name} ascending {asc} != descending {desc} at n=19")
        count, _, wits = triples[names[0]]
        tally.check(all(v == triples[names[0]] for v in triples.values()),
                    f"{label}: kernels disagree on (count, nodes, witnesses)")
        tally.check(count == inst.count, f"{label}: count {count} != {inst.count}")
        tally.check(witness_digest(kernel_pairs(xs) for xs in wits) == inst.digest,
                    f"{label}: witnesses differ from the frozen digest")
        pair_sets = tr.call(
            "starters.PairSet",
            lambda: [PairSet(n, [(x, x + d) for d, x in enumerate(xs, 1)]) for xs in wits],
            calls=len(wits),
        )
        for ps in rng.sample(pair_sets, min(SPOT_CHECKS, len(pair_sets))):
            rep = tr.call("starters.full_report", full_report, ps)
            tally.check(rep.is_starter and rep.is_skolem and (rep.is_strong or not strong),
                        f"{label}: witness {ps.pairs} fails full_report")


def untraced_pass(w, seconds, rng, tally):
    """Fresh-process solves for --seconds, interleaved with set-up samples.

    Returns the end-to-end metrics and a dict of figures for the row.
    """
    solves, setups = [], []
    setup_turn = rng.random() < 0.5
    deadline = time.perf_counter() + seconds
    while len(solves) < MIN_SOLVES or time.perf_counter() < deadline:
        if setup_turn and len(setups) < SETUP_SAMPLES:
            setups.append(run_child("setup", w.setup, tally))
        else:
            solves.append(run_child("solve", w.full, tally))
        setup_turn = not setup_turn
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child("setup", w.setup, tally))
    solves = [s for s in solves if s]
    setups = [s for s in setups if s]
    return {
        "setup_s": median(s["setup_s"] for s in setups),
        # Each solve over the reference timed around it in the same process.
        "solve_rel": median(s["solve_s"] / s["reference_s"] for s in solves),
        "cpu_rel": median(s["cpu_s"] / s["reference_s"] for s in solves),
        "peak_rss_mb": median(s["peak_rss_mb"] for s in solves),
        "solve_s": median(s["solve_s"] for s in solves),
        "cpu_s": median(s["cpu_s"] for s in solves),
        "reference_s": median(s["reference_s"] for s in solves),
    }, {
        "samples": {"solve": len(solves), "setup": len(setups)},
        "solves": solves,
        "setup_samples_s": [s["setup_s"] for s in setups],
    }


def timed_solves(w, seconds, rng, tally, tr):
    """Alternate traced and untraced in-process solves for --seconds."""
    traced, untraced = [], []
    turn = rng.random() < 0.5
    deadline = time.perf_counter() + seconds
    while not traced or not untraced or time.perf_counter() < deadline:
        if turn:
            with tr.span("solve", solve=f"solve-{len(traced)}") as root:
                ok, detail = run_instance(w.full, tr.call)
            root.attrs.update(detail)
            traced.append(root.duration)
        else:
            t0 = time.perf_counter()
            ok, _ = run_instance(w.full)
            untraced.append(time.perf_counter() - t0)
        tally.check(ok, f"{'traced' if turn else 'untraced'} in-process solve")
        turn = not turn
    return traced, untraced


def layer_sweep(w, rng, tally, tr):
    """Direct calls into the layers the workload's own calls may not reach.

    Per-layer metrics prefer the workload's spans; where it makes no call
    into a layer, each falls back to one fixed sweep solve.  Sweep solve
    identifiers start with "sweep-", so the workload's own spans stay
    separable.
    """
    from skolem import build_qr_table, construction_primes, is_prime, smallest_qr_generator

    for key, inst in SWEEP.items():
        if inst == w.full:
            continue
        gate(inst, rng, tally, tr, label=f"sweep-gate-{key}")
        with tr.span("solve", solve=f"sweep-solve-{key}") as root:
            ok, detail = run_instance(inst, tr.call)
        root.attrs.update(detail)
        tally.check(ok, f"sweep solve {inst.kind} {inst.size}")
    with tr.span("residues", solve="sweep-residues"):
        candidates = range(3, 1501, 8)
        flags = tr.call("residues.is_prime", lambda: [is_prime(q) for q in candidates],
                        calls=len(candidates))
        primes = [q for q, f in zip(candidates, flags) if f]
        ok = primes == construction_primes(1500) and len(primes) == 60
        for q in primes:
            table = tr.call("residues.build_qr_table", build_qr_table, q)
            gen = tr.call("residues.smallest_qr_generator", smallest_qr_generator, q)
            ok = ok and table.smallest_qr_generator == gen and len(table.qr_set) == (q - 1) // 2
        tally.check(ok, "sweep: residues answers")


def cli_probes(w, tally) -> dict:
    """Interpreter start, `import skolem`, and `python -m skolem search 19 --json`."""
    bare, cold, imports = [], [], []
    for _ in range(CLI_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=child_env(), check=True)
        t1 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "skolem", "search", "19", "--json"],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        t2 = time.perf_counter()
        try:
            ok = proc.returncode == 0 and json.loads(proc.stdout)["results"]["count"] == 194
        except (ValueError, KeyError):
            ok = False
        if tally.check(ok, "cli: skolem search 19 --json"):
            bare.append(t1 - t0)
            cold.append(t2 - t1)
        out = run_child("setup", w.setup, tally)
        if out:
            imports.append(out["import_s"])
    return {"cli.import_s": median(imports), "cli.cold_start_s": median(cold) - median(bare)}


def two_worker_makespan(durations) -> float:
    """Shortest possible wall time of the partitions on two workers."""
    total = sum(durations)
    sums = {0.0}
    for d in durations:
        sums |= {s + d for s in sums}
    return min(max(s, total - s) for s in sums)


def layer_metrics(tr, backend):
    """Per-layer metrics from the spans, and the names taken from the sweep.

    Each metric comes from the workload's own spans when it has any for
    that call, else from one fixed sweep solve, named below.
    """
    from_sweep = set()

    def own(s):
        return not s.solve.startswith("sweep-")

    def spans(name, solve=own, where=lambda s: True):
        return [s for s in tr.spans if s.name == name and solve(s) and where(s)]

    def own_or_sweep(metrics, name, fallback, where=lambda s: True):
        found = spans(name, own, where)
        if found:
            return found
        from_sweep.update(metrics)
        return spans(name, lambda s: s.solve == fallback, where)

    def per_call(metric, name, scale, fallback):
        found = own_or_sweep([metric], name, fallback)
        return scale * sum(s.duration for s in found) / sum(s.attrs["calls"] for s in found)

    def searches(metrics, fallback, where=lambda a: True):
        found = own_or_sweep(metrics, "search.search_skolem_starters", fallback,
                             lambda s: where(tr.spans[s.parent].attrs))
        return [(s.duration, tr.spans[s.parent].attrs) for s in found]

    out = {}
    for name in kernels():
        walk = own_or_sweep([f"kernel.{name}.ns_per_node"], f"kernel.{name}.run_search",
                            "sweep-gate-enumerate")
        out[f"kernel.{name}.ns_per_node"] = (
            1e9 * sum(s.duration for s in walk) / sum(s.attrs["nodes"] for s in walk))
    walk = own_or_sweep(["kernel.ns_per_node", "kernel.nodes", "kernel.yield",
                         "search.partition_imbalance"],
                        f"kernel.{backend}.run_search", "sweep-gate-enumerate")
    parts = [s.duration for s in walk]
    out["kernel.ns_per_node"] = out[f"kernel.{backend}.ns_per_node"]
    out["kernel.nodes"] = sum(s.attrs["nodes"] for s in walk)
    out["kernel.yield"] = sum(s.attrs["count"] for s in walk) / out["kernel.nodes"]
    out["search.partition_imbalance"] = max(parts) / statistics.fmean(parts)

    rows = searches(["search.kernel_s", "search.materialise_s", "search.materialise_share"],
                    "sweep-solve-enumerate")
    out["search.kernel_s"] = median(a["kernel_s"] for _, a in rows)
    out["search.materialise_s"] = median(d - a["kernel_s"] for d, a in rows)
    out["search.materialise_share"] = median((d - a["kernel_s"]) / d for d, a in rows)
    rows = searches(["search.materialise_us_per_witness"], "sweep-solve-enumerate",
                    lambda a: a["witnesses"] > 0)
    out["search.materialise_us_per_witness"] = median(
        1e6 * (d - a["kernel_s"]) / a["witnesses"] for d, a in rows)

    # The parallel driver against the ideal schedule of the partitions its
    # problem's gate walked one after another.
    parallel = ["search.pool_overhead_s", "search.parallel_speedup",
                "search.parallel_efficiency"]
    rows = searches(parallel, "sweep-solve-parallel", lambda a: a["workers"] > 1)
    gated = own if parallel[0] not in from_sweep else (
        lambda s: s.solve == "sweep-gate-parallel")
    parts = [s.duration for s in spans(f"kernel.{backend}.run_search", gated)]
    wall = median(d for d, _ in rows)
    out["search.pool_overhead_s"] = wall - two_worker_makespan(parts)
    out["search.parallel_speedup"] = sum(parts) / wall
    out["search.parallel_efficiency"] = out["search.parallel_speedup"] / rows[0][1]["workers"]

    reports = spans("starters.full_report")
    out["starters.pairset_us"] = per_call(
        "starters.pairset_us", "starters.PairSet", 1e6, "sweep-gate-enumerate")
    out["starters.full_report_ms"] = 1e3 * statistics.fmean(s.duration for s in reports)
    out["starters.full_report_calls"] = len(reports) / len({s.solve for s in reports})
    out["construction.build_ms"] = per_call(
        "construction.build_ms", "construction.build_strong_skolem", 1e3, "sweep-solve-tabulate")
    out["construction.certificate_ms"] = per_call(
        "construction.certificate_ms", "construction.half_set_certificate", 1e3,
        "sweep-solve-tabulate")
    out["residues.is_prime_us"] = per_call(
        "residues.is_prime_us", "residues.is_prime", 1e6, "sweep-residues")
    out["residues.build_qr_table_ms"] = per_call(
        "residues.build_qr_table_ms", "residues.build_qr_table", 1e3, "sweep-residues")
    out["residues.smallest_qr_generator_ms"] = per_call(
        "residues.smallest_qr_generator_ms", "residues.smallest_qr_generator", 1e3,
        "sweep-residues")
    return out, sorted(from_sweep)


def provenance(seed, build_s) -> dict:
    import skolem

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True).stdout.strip() or None
    except OSError:
        rev = None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "active_backend": skolem.active_backend(),
        "kernels": sorted(kernels()),
        "git_rev": rev,
        "seed": seed,
        "build_s": build_s,
        "clean_build": True,
        "built_files": sorted(p.name for p in (LIB / "skolem").iterdir()),
        "skolem_file": skolem.__file__,
    }


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # The package's own defaults: the backend it selects and its ceiling.
    for var in ("SKOLEM_BACKEND", "SKOLEM_CEILING"):
        os.environ.pop(var, None)
    build_s = build()
    sys.path.insert(0, str(LIB))
    import skolem

    if not Path(skolem.__file__).resolve().is_relative_to(LIB.resolve()):
        raise SystemExit(f"imported skolem from {skolem.__file__}, not from {LIB}")
    w = workloads[args.workload]
    rng = random.Random(args.seed)
    tally = Tally()
    tr = Tracer(enabled=bool(args.trace))
    row = {"workload": w.name, "trace": args.trace, "provenance": provenance(args.seed, build_s)}
    print(f"# {w.name}: {w.why}")
    print("# " + " ".join(f"{k}={v}" for k, v in row["provenance"].items()))

    gate(w.full, rng, tally, tr)
    print(f"# gate: {tally.attempted} checks, {len(tally.failures)} failed")
    if args.trace:
        traced, untraced = timed_solves(w, args.seconds, rng, tally, tr)
        layer_sweep(w, rng, tally, tr)
        metrics, row["from_sweep"] = layer_metrics(tr, skolem.active_backend())
        metrics.update(cli_probes(w, tally))
        metrics["trace.overhead_share"] = median(traced) / median(untraced) - 1
        own = [s for s in tr.spans if not s.solve.startswith("sweep-")]
        row["kernel_spans_in_workload"] = sum(s.name.startswith("kernel.") for s in own)
        row["samples"] = {"traced": len(traced), "untraced": len(untraced)}
        row["self_s"] = tr.self_time_by_name("sweep-")
        print(f"# samples: {len(traced)} traced, {len(untraced)} untraced solves; "
              f"{row['kernel_spans_in_workload']} kernel spans outside the sweep")
        print(f"# from the sweep: {', '.join(row['from_sweep']) or 'none'}")
        for name, own_s in sorted(row["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"# self time {name}: {own_s:.6f} s")
    else:
        metrics, figures = untraced_pass(w, args.seconds, rng, tally)
        row.update(figures)
        print(f"# samples: {row['samples']}; RSS after import "
              f"{median(s['import_rss_mb'] for s in row['solves']):.2f} MB")
    failed = len(tally.failures)
    metrics["error_rate"] = failed / tally.attempted
    for what in tally.failures:
        print(f"# FAILED: {what}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {UNITS[name]}")
    row.update(metrics=metrics, attempted=tally.attempted, failed=failed,
               failures=tally.failures)
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(row, indent=1))
    if args.trace:
        tr.dump(RESULTS / f"{stem}.spans.json")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": UNITS[m["name"]]}
                    for m in wanted},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

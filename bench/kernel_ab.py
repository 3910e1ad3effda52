"""Compare the compiled search kernel of a revision with the working tree's,
in one interpreter, in alternating rounds.

    python3 bench/kernel_ab.py REV [--rounds N]

Builds the extension twice, each with `setup.py build_ext --force` in a
temporary directory of its own, the two paths of equal length: once from
`git archive REV` and once from the working tree's files as they are on
disk, tracked or not (ignored files left out).  It prints `nm -S` of
`upper`, `upper_bmi2` and `run_search` in each build, then loads both
modules into this interpreter and checks, for every top-level partition
of each (n, strong) in bench/record.py's KERNEL, descending, that they
give the same count and node count.

Each round then times every KERNEL row on both builds, the rows in a
shuffled order.  A row's sample is the time of the one-worker strong or
plain count, the partitions 1..ceil(t/2) that skolem.search walks,
averaged over a fixed number of counts that makes it last about
SAMPLE_SECONDS on each build.  The two builds take turns of about
TURN_SECONDS, or one count where a count takes longer, in a random order
each turn, so that both samples of a round see the same load on the
machine.  Per row it prints each build's median time per count, its
interquartile range over the median, the working tree's change of the
median, and in how many of the N rounds the working tree was faster.  It
needs git and a C compiler, and nothing from the network; REV is anything
git rev-parse accepts.
"""

import argparse
import importlib.util
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from record import KERNEL, spread
from size import SYMBOLS

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ["setup.py", "pyproject.toml", "src"]
SAMPLE_SECONDS = 0.2
TURN_SECONDS = 0.005


def checkout_rev(rev: str, dest: Path) -> None:
    """The build inputs of rev, from git archive."""
    archive = subprocess.run(["git", "archive", rev, *SOURCES], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def checkout_tree(dest: Path) -> None:
    """The build inputs of the working tree, as they are on disk."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard", "--", *SOURCES], cwd=ROOT,
                            capture_output=True, check=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted on disk is not built
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def build(checkout: Path) -> Path:
    """The path of the extension built from checkout, under checkout/lib."""
    proc = subprocess.run([sys.executable, "setup.py", "build_ext", "--force",
                           "--build-lib", "lib", "--build-temp", "tmp"],
                          cwd=checkout, capture_output=True, text=True)
    found = sorted((checkout / "lib" / "skolem").glob("_fastsearch*"))
    if proc.returncode != 0 or not found:
        raise SystemExit(f"the build in {checkout} failed:\n{proc.stdout}{proc.stderr}")
    return found[0]


def symbol_sizes(path: Path) -> str:
    """`nm -S` lines of SYMBOLS."""
    out = subprocess.run(["nm", "-S", str(path)], capture_output=True, text=True,
                         check=True).stdout
    lines = [line for line in out.splitlines() if line.split()[-1] in SYMBOLS]
    return "\n".join(lines) or "(none of " + ", ".join(SYMBOLS) + ")"


def load(path: Path, tag: str):
    """The extension at path as a module of its own, named <tag>._fastsearch
    so that its init function is found."""
    spec = importlib.util.spec_from_file_location(f"{tag}._fastsearch", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check(modules: dict) -> None:
    """Both builds' (count, nodes) for every partition of every row."""
    for n, strong in KERNEL:
        t = (n - 1) // 2
        for x in range(1, n - t):
            answers = {tag: mod.run_search(n, strong, 0, 0, True, x)[:2]
                       for tag, mod in modules.items()}
            if len(set(answers.values())) != 1:
                raise SystemExit(f"n={n} strong={strong} partition {x}: {answers}")


def count_once(mod, n: int, strong: bool) -> None:
    """The partitions that a one-worker count walks."""
    t = (n - 1) // 2
    for x in range(1, (t + 1) // 2 + 1):
        mod.run_search(n, strong, 0, 0, True, x)


def timed_counts(mod, n: int, strong: bool, counts: int) -> float:
    """The seconds of counts counts."""
    start = time.perf_counter()
    for _ in range(counts):
        count_once(mod, n, strong)
    return time.perf_counter() - start


def samples(modules: dict, rng, n: int, strong: bool, turn: int, turns: int) -> dict:
    """Seconds per count of each build over turns turns of turn counts, the
    builds taking turns."""
    total = dict.fromkeys(modules, 0.0)
    for _ in range(turns):
        for tag in rng.sample(list(modules), len(modules)):
            total[tag] += timed_counts(modules[tag], n, strong, turn)
    return {tag: seconds / (turn * turns) for tag, seconds in total.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the revision to compare the working tree with")
    parser.add_argument("--rounds", type=int, default=10, help="alternating rounds (default 10)")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    sha = subprocess.run(["git", "rev-parse", "--short", args.rev], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="kernel_ab_") as scratch:
        # base/ and tree/: paths of equal length
        paths = {"base": Path(scratch) / "base", "tree": Path(scratch) / "tree"}
        for path in paths.values():
            path.mkdir()
        checkout_rev(args.rev, paths["base"])
        checkout_tree(paths["tree"])
        modules = {}
        for tag, path in paths.items():
            built = build(path)
            print(f"# {tag} ({sha if tag == 'base' else 'working tree'}): {built.name}")
            print(symbol_sizes(built))
            modules[tag] = load(built, f"kernel_ab_{tag}")
        print("# walk: " + ", ".join(f"{tag} {mod.WALK}" for tag, mod in modules.items()))
        check(modules)
        print(f"# both builds agree on every partition of {len(KERNEL)} rows")

        shape = {}  # per row, the counts of one turn and the turns of one sample
        for row in KERNEL:  # and a warm-up
            one = min(timed_counts(mod, *row, 1) for mod in modules.values())
            turn = max(1, round(TURN_SECONDS / one))
            shape[row] = turn, max(1, round(SAMPLE_SECONDS / (turn * one)))
        times = {row: {tag: [] for tag in modules} for row in KERNEL}
        rng = random.Random()
        for _ in range(args.rounds):
            for row in rng.sample(KERNEL, len(KERNEL)):
                for tag, seconds in samples(modules, rng, *row, *shape[row]).items():
                    times[row][tag].append(seconds)

    print(f"# {args.rounds} rounds; ms per count, median (IQR/median)")
    print(f"{'row':>14} {'counts':>7} {'base':>16} {'tree':>16} {'change':>8}  tree wins")
    for (n, strong), got in times.items():
        base, base_iqr = spread(got["base"]).values()
        tree, tree_iqr = spread(got["tree"]).values()
        wins = sum(b > w for b, w in zip(got["base"], got["tree"]))
        label = f"{n} {'strong' if strong else 'plain'}"
        turn, turns = shape[(n, strong)]
        print(f"{label:>14} {turn * turns:7} {base * 1e3:8.3f} ({base_iqr:5.1%})"
              f" {tree * 1e3:8.3f} ({tree_iqr:5.1%}) {tree / base - 1:+8.1%}"
              f"  {wins} of {args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

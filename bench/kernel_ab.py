"""Compare the compiled search kernel of a revision with the working tree's,
each build timed in fresh interpreters of its own, in alternating rounds.

    python3 bench/kernel_ab.py REV [--rounds N]

Builds the extension twice, each with `setup.py build_ext --inplace` in a
temporary directory of its own, the two paths of equal length: once from
`git archive REV` and once from the working tree's files as they are on
disk, tracked or not (ignored files left out).  It prints each build's
machine code as bench/size.py measures it, then, from a fresh interpreter
that imports that build, the copy of the walk it runs on this CPU
(_fastsearch.WALK) and the count and node count of every top-level
partition of each (n, strong) in bench/record.py's KERNEL, descending.
The two builds must agree on every partition, or it stops before timing.

Each round then runs record.py's KERNEL_CHILD once per build, the builds
in a random order, each in a fresh interpreter that imports that build, so
that a round's sample of a row is what a BENCH_*.json kernel row holds:
the best wall time of a one-worker count through search_skolem_starters.
Per row it prints each build's median over the N rounds, its
interquartile range over the median, the working tree's change of the
median, in how many of the N rounds the working tree was faster, and the
verdict() on the row: "gain", "loss" or "no clear change".  It needs git
and a C compiler, and nothing from the network; REV is anything git
rev-parse accepts that names a commit.
"""

import argparse
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from record import KERNEL, child, kernel_rows, spread
from size import MODULE, machine_code

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ["setup.py", "pyproject.toml", "src"]
# run in each build's own interpreter; argv[1] is KERNEL as JSON
CHECK_CHILD = """
import json, sys
from skolem.search import _fastsearch
cases = json.loads(sys.argv[1])
print(json.dumps([_fastsearch.WALK] + [
    [_fastsearch.run_search(n, strong, 0, 0, True, x)[:2] for x in range(1, (n + 1) // 2)]
    for n, strong in cases]))
"""


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
    """The path of the extension built in place in checkout."""
    proc = subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
                          cwd=checkout, capture_output=True, text=True)
    built = checkout / MODULE.relative_to(ROOT)
    if proc.returncode != 0 or not built.exists():
        raise SystemExit(f"the build in {checkout} failed:\n{proc.stdout}{proc.stderr}")
    return built


def verdict(base: list, tree: list) -> str:
    """"gain" when, over at least 10 rounds, the tree's times, each against
    the base's of its round, are lower in at least 9 of 10 rounds, a tie
    counting for neither side, and their median is lower by more than the
    base's interquartile range; "loss" in the mirror case; else "no clear
    change", as always for fewer than 10 rounds."""
    base_mid, base_iqr = spread(base).values()
    change = statistics.median(tree) - base_mid
    # the rounds won by the side whose median is lower
    wins = sum((w - b) * change > 0 for b, w in zip(base, tree))
    if len(base) >= 10 and abs(change) > base_iqr * base_mid and 10 * wins >= 9 * len(base):
        return "gain" if change < 0 else "loss"
    return "no clear change"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the revision to compare the working tree with")
    parser.add_argument("--rounds", type=int, default=10, help="alternating rounds (default 10)")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    git = subprocess.run(["git", "rev-parse", "--verify", "--short", args.rev + "^{commit}"],
                         cwd=ROOT, capture_output=True, text=True)
    if git.returncode != 0:
        parser.error(f"{args.rev!r} names no commit in {ROOT}: "
                     + git.stderr.strip().removeprefix("fatal: "))
    with tempfile.TemporaryDirectory(prefix="kernel_ab_") as scratch:
        # base/ and tree/: paths of equal length
        paths = {"base": Path(scratch) / "base", "tree": Path(scratch) / "tree"}
        for path in paths.values():
            path.mkdir()
        checkout_rev(args.rev, paths["base"])
        checkout_tree(paths["tree"])
        answers = {}
        for tag, path in paths.items():
            code = machine_code(build(path))
            walk, *answers[tag] = child(CHECK_CHILD, path / "src", KERNEL)
            name = git.stdout.strip() if tag == "base" else "working tree"
            print(f"# {tag} ({name}): walk {walk}; bytes of .text {code['text_bytes']}, "
                  + ", ".join(f"{sym} {size}" for sym, size in code["symbol_bytes"].items()))
        for (n, strong), base, tree in zip(KERNEL, answers["base"], answers["tree"]):
            for x, pair in enumerate(zip(base, tree), 1):
                if pair[0] != pair[1]:
                    raise SystemExit(f"n={n} strong={strong} partition {x}: "
                                     f"(count, nodes) base {pair[0]}, tree {pair[1]}")
        print(f"# both builds agree on every partition of {len(KERNEL)} rows")

        times = {row: {tag: [] for tag in paths} for row in KERNEL}
        rng = random.Random()
        for _ in range(args.rounds):
            for tag in rng.sample(list(paths), len(paths)):
                for row in kernel_rows(paths[tag] / "src"):
                    times[row["n"], row["strong"]][tag].append(row["wall_time"])

    print(f"# {args.rounds} rounds, each build in a fresh interpreter per round;"
          " ms per count, median (IQR/median)")
    print(f"{'row':>14} {'base':>16} {'tree':>16} {'change':>8}  tree wins  verdict")
    for (n, strong), got in times.items():
        base, base_iqr = spread(got["base"]).values()
        tree, tree_iqr = spread(got["tree"]).values()
        wins = sum(b > w for b, w in zip(got["base"], got["tree"]))
        label = f"{n} {'strong' if strong else 'plain'}"
        print(f"{label:>14} {base * 1e3:8.3f} ({base_iqr:5.1%})"
              f" {tree * 1e3:8.3f} ({tree_iqr:5.1%}) {tree / base - 1:+8.1%}"
              f"  {wins:>2} of {args.rounds:<2}  {verdict(got['base'], got['tree'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

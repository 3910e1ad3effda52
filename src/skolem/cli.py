"""Command-line interface: generate, verify, search and tabulate.

Text output is round-trip safe: every informational line starts with '#'
and the pair blocks parse back with the same reader the verify command
uses.  --json switches any subcommand to a single JSON envelope on stdout.

Exit codes: 0 success, 1 internal self-check failure, 2 bad usage or
precondition, 3 verified property does not hold, 4 search ceiling refusal,
130 search interrupted (Ctrl-C).
"""

import argparse
import json
import sys

from . import __version__
from .construction import (
    BetaChoice,
    ConstructionError,
    build_strong_skolem,
    build_strong_starter,
    enumerate_strong_skolem,
)
from .search import (
    DEFAULT_CEILING,
    CeilingExceededError,
    SearchConfig,
    SearchMode,
    search_skolem_starters,
)
from .starters import (
    PairSet,
    full_report,
    pair_set_from_obj,
    pair_set_to_obj,
    pair_set_to_text,
    parse_pair_set_text,
)

SCHEMA_VERSION = "2"

EXIT_OK = 0
EXIT_SELF_CHECK = 1
EXIT_USAGE = 2
EXIT_PROPERTY = 3
EXIT_CEILING = 4
EXIT_INTERRUPTED = 130


def _envelope(command: str, parameters: dict, results: dict) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "results": results,
    }
    return json.dumps(doc, indent=2)


def _error(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _cmd_generate(args) -> int:
    try:
        choice, beta, ps = _construct(args.q, args.beta)
    except ValueError as exc:
        _error(str(exc))
        return EXIT_USAGE
    report = full_report(ps)
    # Self-check: the construction must deliver what it promises.
    expected_skolem = choice is not None
    if not report.is_starter or not report.is_strong or (
        expected_skolem and not report.is_skolem
    ):
        _error(
            f"self-check failed for q={args.q}: construction output does "
            f"not verify; this is a bug"
        )
        return EXIT_SELF_CHECK
    if args.json:
        print(
            _envelope(
                "generate",
                {
                    "q": args.q,
                    "beta": beta,
                    "beta_choice": choice.value if choice else None,
                },
                {"pair_set": pair_set_to_obj(ps), "report": report.to_obj()},
            )
        )
    else:
        sys.stdout.write(pair_set_to_text(ps))
        print(f"# q={args.q} beta={beta}")
        for line in report.lines():
            print(f"# {line}")
    return EXIT_OK


def _construct(q: int, raw: str):
    """(choice, beta, starter) for --beta: a BetaChoice name or an integer.

    choice is None for an integer beta, which builds a plain strong starter.
    """
    if raw in ("2", "half"):
        choice = BetaChoice(raw)
        ps = build_strong_skolem(q, choice)
        return choice, choice.beta(q), ps
    try:
        beta = int(raw)
    except ValueError:
        raise ConstructionError(
            f"--beta must be '2', 'half' or an integer, got {raw!r}"
        ) from None
    ps = build_strong_starter(q, beta)
    return None, beta % q, ps


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_any(text: str) -> PairSet:
    """Accept either the text format or a JSON pair-set object, after one
    leading UTF-8 byte-order mark, if any."""
    text = text.removeprefix("\ufeff")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return pair_set_from_obj(json.loads(stripped))
    return parse_pair_set_text(text)


_REQUIREMENTS = ("starter", "strong", "skolem", "strong-skolem")


def _requirement_holds(report, requirement: str) -> bool:
    if requirement == "starter":
        return report.is_starter
    if requirement == "strong":
        return report.is_strong
    if requirement == "skolem":
        return report.is_skolem
    return report.is_strong and report.is_skolem


def _cmd_verify(args) -> int:
    try:
        ps = _parse_any(_read_input(args.input))
    except (ValueError, OSError) as exc:
        _error(str(exc))
        return EXIT_USAGE
    report = full_report(ps)
    holds = _requirement_holds(report, args.require)
    if args.json:
        print(
            _envelope(
                "verify",
                {"input": args.input, "require": args.require},
                {
                    "report": report.to_obj(),
                    "required_holds": holds,
                },
            )
        )
    else:
        print(f"# n={ps.n} pairs={len(ps)}")
        for line in report.lines():
            print(f"# {line}")
        print(f"# required: {args.require}")
        print(f"# required holds: {'yes' if holds else 'no'}")
    return EXIT_OK if holds else EXIT_PROPERTY


def _cmd_search(args) -> int:
    if args.first:
        mode = SearchMode.FIRST_WITNESS
    elif args.enumerate:
        mode = SearchMode.ENUMERATE_ALL
    else:
        mode = SearchMode.COUNT_ALL
    try:
        config = SearchConfig(
            n=args.n,
            mode=mode,
            require_strong=not args.no_strong,
            limit=args.limit,
            workers=args.workers,
            force=args.force,
        )
        result = search_skolem_starters(config)
    except CeilingExceededError as exc:
        _error(str(exc))
        return EXIT_CEILING
    except KeyboardInterrupt:
        _error("search interrupted")
        return EXIT_INTERRUPTED
    except (ValueError, RuntimeError) as exc:
        _error(str(exc))
        return EXIT_USAGE
    if args.json:
        print(
            _envelope(
                "search",
                {
                    "n": args.n,
                    "mode": mode.value,
                    "require_strong": not args.no_strong,
                    "limit": args.limit,
                    "workers": result.workers,
                },
                {
                    "count": result.count,
                    "nodes_explored": result.nodes_explored,
                    "complete": result.complete,
                    "wall_time": result.wall_time,
                    "backend": result.backend,
                    "witnesses": [pair_set_to_obj(ps) for ps in result.witnesses],
                },
            )
        )
    else:
        kind = "strong skolem" if result.require_strong else "skolem"
        print(
            f"# search n={result.n} kind={kind} mode={mode.value} "
            f"backend={result.backend} workers={result.workers}"
        )
        for ps in result.witnesses:
            print()
            sys.stdout.write(pair_set_to_text(ps))
        print(f"# count={result.count}")
        print(f"# nodes={result.nodes_explored}")
        print(f"# complete={'yes' if result.complete else 'no'}")
        print(f"# wall_time={result.wall_time:.3f}s")
    return EXIT_OK


def _cmd_tabulate(args) -> int:
    if args.beta == "both":
        choices = (BetaChoice.TWO, BetaChoice.HALF)
    else:
        choices = (BetaChoice(args.beta),)
    entries = []
    try:
        for q, choice, ps in enumerate_strong_skolem(args.q_max, choices):
            if not all(full_report(ps).verdicts):
                _error(
                    f"self-check failed for q={q} beta={choice.value}; "
                    f"this is a bug"
                )
                return EXIT_SELF_CHECK
            entries.append((q, choice, ps))
    except ValueError as exc:
        _error(str(exc))
        return EXIT_USAGE
    if args.json:
        print(
            _envelope(
                "tabulate",
                {"q_max": args.q_max, "beta": args.beta},
                {
                    "entries": [
                        {
                            "q": q,
                            "beta": choice.beta(q),
                            "beta_choice": choice.value,
                            "pair_set": pair_set_to_obj(ps),
                        }
                        for q, choice, ps in entries
                    ]
                },
            )
        )
    else:
        print(
            f"# strong skolem starters from the quadratic-residue "
            f"construction, q <= {args.q_max}"
        )
        for q, choice, ps in entries:
            print()
            print(f"# q={q} beta={choice.beta(q)}")
            sys.stdout.write(pair_set_to_text(ps))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skolem",
        description="Construct, verify and exhaustively search strong "
        "Skolem starters for Z_n.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate",
        help="build a strong (Skolem) starter from the residue construction",
    )
    gen.add_argument(
        "q", type=int, help="odd prime modulus; must be 3 mod 8 for Skolem output"
    )
    gen.add_argument(
        "--beta",
        default="2",
        help="'2' or 'half' for the Skolem construction, or any "
        "non-residue integer for a plain strong starter (default: 2)",
    )
    gen.add_argument("--json", action="store_true", help="emit a JSON envelope")
    gen.set_defaults(func=_cmd_generate)

    ver = sub.add_parser("verify", help="check the three starter properties")
    ver.add_argument(
        "input",
        nargs="?",
        default="-",
        help="path to a text record or JSON pair-set object; '-' for stdin",
    )
    ver.add_argument(
        "--require",
        choices=_REQUIREMENTS,
        default="strong-skolem",
        help="property that must hold for exit code 0 (default: strong-skolem)",
    )
    ver.add_argument("--json", action="store_true", help="emit a JSON envelope")
    ver.set_defaults(func=_cmd_verify)

    sea = sub.add_parser("search", help="exhaustive backtracking search")
    sea.add_argument("n", type=int, help="odd order of Z_n")
    mode = sea.add_mutually_exclusive_group()
    mode.add_argument(
        "--count", action="store_true", help="count all starters (default)"
    )
    mode.add_argument(
        "--first", action="store_true", help="stop at the first starter found"
    )
    mode.add_argument(
        "--enumerate", action="store_true", help="count and list the starters"
    )
    sea.add_argument(
        "--limit", type=int, default=None, help="cap listed witnesses (--enumerate)"
    )
    sea.add_argument(
        "--no-strong",
        action="store_true",
        help="search plain Skolem starters instead of strong ones",
    )
    sea.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel workers: threads, or processes on the pure kernel",
    )
    sea.add_argument(
        "--force",
        action="store_true",
        help=f"bypass the search ceiling ({DEFAULT_CEILING})",
    )
    sea.add_argument("--json", action="store_true", help="emit a JSON envelope")
    sea.set_defaults(func=_cmd_search)

    tab = sub.add_parser(
        "tabulate",
        help="construction output for every applicable prime up to a bound",
    )
    tab.add_argument("--q-max", type=int, default=100, help="largest q (default: 100)")
    tab.add_argument(
        "--beta",
        choices=("2", "half", "both"),
        default="both",
        help="which construction to tabulate (default: both)",
    )
    tab.add_argument("--json", action="store_true", help="emit a JSON envelope")
    tab.set_defaults(func=_cmd_tabulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)

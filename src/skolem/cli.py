"""Command-line interface: generate, verify, search and tabulate.

Text output is round-trip safe: every informational line starts with '#'
and the pair blocks parse back with the same reader the verify command
uses.  --json switches any subcommand to a single JSON envelope on stdout,
which holds each pair set once, in pair_set_to_obj's form: generate and
verify write theirs as results.pair_set, tabulate one per entry and
search one per witness, and results.report holds only the verdicts and
witnesses, as a report does not copy the pair set it describes.  A
search's parameters are those of the SearchConfig it ran, which its
result does not copy.

Exit codes: 0 success, 1 internal self-check failure, 2 bad usage or
precondition, unreadable input, unwritable output or too little memory,
3 verified property does not hold, 4 search ceiling refusal, 130
interrupted (Ctrl-C), 141 stdout closed by its reader (as by
`| head -1`).  A command returns 0, 1 or 3; main maps every exception a
command raises to its code.
"""

import argparse
import json
import os
import sys
from itertools import islice

from . import __version__
from .construction import (
    BetaChoice,
    ConstructionError,
    build_strong_skolem,
    build_strong_starter,
    enumerate_strong_skolem,
)
from .residues import _cut, _quote
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

SCHEMA_VERSION = "3"

EXIT_OK = 0
EXIT_SELF_CHECK = 1
EXIT_USAGE = 2
EXIT_PROPERTY = 3
EXIT_CEILING = 4
EXIT_INTERRUPTED = 130
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process it killed


def _envelope(command: str, parameters: dict, results: dict) -> None:
    """Write the command's JSON envelope to stdout, encoded and written a
    piece at a time rather than made one string first."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "results": results,
    }
    chunks = json.JSONEncoder(indent=2).iterencode(doc)
    # a few thousand chunks per write: json.dump's one write per chunk
    # made `tabulate --q-max 5000 --json` half again as slow
    for piece in iter(lambda: "".join(islice(chunks, 4096)), ""):
        sys.stdout.write(piece)
    sys.stdout.write("\n")


def _error(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _cmd_generate(args) -> int:
    choice, beta, ps = _construct(args.q, args.beta)
    report = full_report(ps)
    # Self-check: the construction must deliver what it promises.
    if not _REQUIREMENTS["strong" if choice is None else "strong-skolem"](report):
        _error(
            f"self-check failed for q={args.q}: construction output does "
            f"not verify; this is a bug"
        )
        return EXIT_SELF_CHECK
    if args.json:
        _envelope(
            "generate",
            {
                "q": args.q,
                "beta": beta,
                "beta_choice": choice.value if choice else None,
            },
            {"pair_set": pair_set_to_obj(ps), "report": report.to_obj()},
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
            f"--beta must be '2', 'half' or an integer, got {_quote(raw)}"
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
        try:
            return pair_set_from_obj(json.loads(stripped))
        except RecursionError:
            raise ValueError("JSON input is nested too deeply") from None
    return parse_pair_set_text(text)


# Each requirement verify --require accepts, and the rule that decides it;
# generate and tabulate hold their own output to these rules too.
_REQUIREMENTS = {
    "starter": lambda report: report.is_starter,
    "strong": lambda report: report.is_strong,
    "skolem": lambda report: report.is_skolem,
    "strong-skolem": lambda report: report.is_strong and report.is_skolem,
}


def _cmd_verify(args) -> int:
    ps = _parse_any(_read_input(args.input))
    report = full_report(ps)
    holds = _REQUIREMENTS[args.require](report)
    if args.json:
        _envelope(
            "verify",
            {"input": args.input, "require": args.require},
            {
                "pair_set": pair_set_to_obj(ps),
                "report": report.to_obj(),
                "required_holds": holds,
            },
        )
    else:
        print(f"# n={ps.n} pairs={len(ps)}")
        for line in report.lines():
            print(f"# {line}")
        print(f"# required: {args.require}")
        print(f"# required holds: {'yes' if holds else 'no'}")
    return EXIT_OK if holds else EXIT_PROPERTY


class _PairLines(dict):
    """Each pair's "x y" line, made on first use: a search's witnesses share
    their pair tuples, so a call formats each distinct pair once."""

    def __missing__(self, pair):
        line = self[pair] = f"{pair[0]} {pair[1]}\n"
        return line


def _cmd_search(args) -> int:
    config = SearchConfig(
        n=args.n,
        mode=args.mode,
        require_strong=not args.no_strong,
        limit=args.limit,
        workers=args.workers,
        force=args.force,
    )
    result = search_skolem_starters(config)
    if args.json:
        _envelope(
            "search",
            {
                "n": config.n,
                "mode": config.mode.value,
                "require_strong": config.require_strong,
                "limit": config.limit,
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
    else:
        kind = "strong skolem" if config.require_strong else "skolem"
        print(
            f"# search n={config.n} kind={kind} mode={config.mode.value} "
            f"backend={result.backend} workers={result.workers}"
        )
        # each witness's block as pair_set_to_text writes it, after a blank
        # line, in one write
        head, lines = f"\nn={config.n}\n", _PairLines()
        for ps in result.witnesses:
            sys.stdout.write(head + "".join(map(lines.__getitem__, ps.pairs)))
        print(f"# count={result.count}")
        print(f"# nodes={result.nodes_explored}")
        print(f"# complete={'yes' if result.complete else 'no'}")
        print(f"# wall_time={result.wall_time:.3f}s")
    return EXIT_OK


def _cmd_tabulate(args) -> int:
    # Text is printed one starter at a time, each after its self-check, so
    # only one is held at once; the header goes out with the first, so a
    # failure there prints nothing.  JSON is one document, streamed only
    # once every starter has passed, so a failure prints none of it.
    choices = ("2", "half") if args.beta == "both" else (args.beta,)
    header = (
        f"# strong skolem starters from the quadratic-residue "
        f"construction, q <= {args.q_max}"
    )
    entries = []
    for q, choice, ps in enumerate_strong_skolem(args.q_max, choices):
        if not _REQUIREMENTS["strong-skolem"](full_report(ps)):
            _error(
                f"self-check failed for q={q} beta={choice.value}; "
                f"this is a bug"
            )
            return EXIT_SELF_CHECK
        if args.json:
            entries.append({"q": q, "beta": choice.beta(q), "beta_choice": choice.value,
                            "pair_set": pair_set_to_obj(ps)})
            continue
        if header:
            print(header)
            header = None
        print()
        print(f"# q={q} beta={choice.beta(q)}")
        sys.stdout.write(pair_set_to_text(ps))
    if args.json:
        _envelope(
            "tabulate",
            {"q_max": args.q_max, "beta": args.beta},
            {"entries": entries},
        )
    elif header:
        print(header)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, its subcommands' parsers included, whose error
    message is cut to 200 characters: argparse quotes a bad argument whole."""

    def error(self, message):
        super().error(_cut(message, 200))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    for flag, const, text in (
        ("--count", SearchMode.COUNT_ALL, "count all starters (default)"),
        ("--first", SearchMode.FIRST_WITNESS, "stop at the first starter found"),
        ("--enumerate", SearchMode.ENUMERATE_ALL, "count and list the starters"),
    ):
        mode.add_argument(
            flag, dest="mode", action="store_const", const=const, help=text
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
        help="run the compiled kernel on the caller plus WORKERS-1 threads "
        "(the pure kernel runs on one)",
    )
    sea.add_argument(
        "--force",
        action="store_true",
        help=f"bypass the search ceiling ({DEFAULT_CEILING})",
    )
    sea.add_argument("--json", action="store_true", help="emit a JSON envelope")
    sea.set_defaults(func=_cmd_search, mode=SearchMode.COUNT_ALL)

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
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except CeilingExceededError as exc:
        _error(str(exc))
        return EXIT_CEILING
    except KeyboardInterrupt:
        _error(f"{args.command} interrupted")
        return EXIT_INTERRUPTED
    except MemoryError:
        _error(f"{args.command} ran out of memory")
        return EXIT_USAGE
    except BrokenPipeError:  # an OSError, so caught before that
        # the reader is gone: point stdout at devnull so that the flush at
        # interpreter exit finds nothing to write and raises nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError) as exc:
        # an OSError repeats a path whole; cut it as argparse's messages are
        _error(_cut(str(exc), 200))
        return EXIT_USAGE
    return code

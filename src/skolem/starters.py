"""Pair sets over Z_n and the starter, strong and Skolem property checks.

A starter for Z_n (n odd) is a partition of {1, ..., n-1} into (n-1)/2
unordered pairs whose differences +-(y - x) mod n cover all of Z_n except 0.
It is strong when the pair sums x + y mod n are pairwise distinct, and
Skolem when the plain integer differences y - x (taking y > x) are exactly
{1, ..., (n-1)/2}.

PairSet is the shared container: immutable, canonically ordered, restricted
to well-formed inputs (odd n, elements in 1..n-1, no element reused).
Search witnesses enter through PairSet._from_witness, which checks each one
in a single partition test instead of pair by pair.  The verify_* functions
and full_report decide the three properties and return human-readable
witnesses for failures.
"""

from dataclasses import dataclass
from operator import add
from typing import Iterator

from .residues import _check_modulus


def skolem_admissible(n: int) -> bool:
    """Whether Skolem starters for Z_n can exist at all.

    The integer differences 1..t with t = (n - 1) // 2 sum to t(t+1)/2 and
    the paired elements sum to t(2t+1); parity forces t == 0 or 1 (mod 4),
    i.e. n == 1 or 3 (mod 8).
    """
    return n >= 3 and n % 2 == 1 and n % 8 in (1, 3)


class NotAStarterError(ValueError):
    """Raised when a strong or Skolem check is asked about a non-starter."""


@dataclass(frozen=True)
class Verdict:
    """Outcome of a single property check; witness explains a failure."""

    ok: bool
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class PairSet:
    """An immutable set of disjoint unordered pairs over {1, ..., n-1}.

    Pairs are normalised to (small, large) and sorted, so equal sets compare
    and hash equal no matter the construction order.  Well-formedness (odd
    n, elements in range, no reuse) is enforced here; whether the set is a
    starter is a separate question answered by verify_starter.

    Search kernel witnesses take the other entry, _from_witness, which
    skips the pair-by-pair checks: it asks only that the witness partition
    {1, ..., n-1} exactly, and leaves n to the caller to validate once.
    """

    n: int
    pairs: tuple[tuple[int, int], ...]

    def __init__(self, n: int, pairs):
        object.__setattr__(self, "n", n)
        _check_modulus(n)
        seen = set()
        canon = []
        for raw in pairs:
            pair = tuple(raw)
            if len(pair) != 2:
                raise ValueError(f"pair {raw!r} does not have exactly two elements")
            x, y = pair
            for el in (x, y):
                if not isinstance(el, int) or isinstance(el, bool):
                    raise TypeError(f"pair element {el!r} is not an int")
                if not 1 <= el <= n - 1:
                    raise ValueError(f"element {el} outside 1..{n - 1}")
            if x == y:
                raise ValueError(f"pair ({x}, {y}) repeats an element")
            for el in (x, y):
                if el in seen:
                    raise ValueError(f"element {el} appears in more than one pair")
                seen.add(el)
            canon.append((x, y) if x < y else (y, x))
        object.__setattr__(self, "pairs", tuple(sorted(canon)))

    @classmethod
    def _from_witness(cls, n: int, xs) -> "PairSet":
        """The PairSet of a kernel witness xs, where xs[d - 1] = x is the
        smaller element of the difference-d pair (x, x + d).

        n must already be a valid modulus.  The one check here is that the
        (n - 1) // 2 pairs use every element of 1..n-1 exactly once; a
        witness that fails it raises ValueError.
        """
        ys = [*map(add, xs, range(1, len(xs) + 1))]
        if not (
            2 * len(xs) == n - 1
            and len({*xs, *ys}) == n - 1
            and min(xs) >= 1
            and max(ys) <= n - 1
        ):
            raise ValueError(
                f"kernel witness {tuple(xs)!r} does not partition 1..{n - 1}"
            )
        ps = object.__new__(cls)
        object.__setattr__(ps, "n", n)
        object.__setattr__(ps, "pairs", tuple(sorted(zip(xs, ys))))
        return ps

    @property
    def t(self) -> int:
        """Number of pairs a full starter for this n must have."""
        return (self.n - 1) // 2

    @property
    def elements(self) -> frozenset:
        return frozenset(el for pair in self.pairs for el in pair)

    def sums(self) -> tuple[int, ...]:
        """Pair sums mod n, in canonical pair order."""
        return tuple((x + y) % self.n for x, y in self.pairs)

    def difference_classes(self) -> tuple[int, ...]:
        """Smaller representative of {y - x, x - y} mod n per pair."""
        return tuple(min((y - x) % self.n, (x - y) % self.n) for x, y in self.pairs)

    def integer_differences(self) -> tuple[int, ...]:
        """Plain differences large - small, in canonical pair order."""
        return tuple(y - x for x, y in self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.pairs)

    def __contains__(self, pair) -> bool:
        x, y = pair
        return ((x, y) if x < y else (y, x)) in self.pairs

    def to_text(self) -> str:
        return pair_set_to_text(self)

    def to_obj(self) -> dict:
        return pair_set_to_obj(self)


def _preview(values, limit: int = 8) -> str:
    vals = sorted(values)
    if len(vals) <= limit:
        return ", ".join(map(str, vals))
    shown = ", ".join(map(str, vals[:limit]))
    return f"{shown}, ... ({len(vals)} total)"


def verify_starter(ps: PairSet) -> Verdict:
    """Starter check: pairs cover {1..n-1} and so do the +- differences."""
    n = ps.n
    missing = set(range(1, n)) - ps.elements
    if missing:
        return Verdict(False, f"uncovered elements: {_preview(missing)}")
    by_class: dict[int, tuple[int, int]] = {}
    for pair, rep in zip(ps.pairs, ps.difference_classes()):
        if rep in by_class:
            other = by_class[rep]
            return Verdict(
                False,
                f"pairs {other} and {pair} share the difference class "
                f"+-{rep} (mod {n})",
            )
        by_class[rep] = pair
    return Verdict(True)


def _require_starter(ps: PairSet, check: str) -> None:
    v = verify_starter(ps)
    if not v:
        raise NotAStarterError(f"{check} is defined only for starters; {v.witness}")


def verify_strong(ps: PairSet) -> Verdict:
    """Strong check: pair sums mod n pairwise distinct.

    Raises NotAStarterError when the input is not a starter at all.
    """
    _require_starter(ps, "the strong property")
    return _strong_verdict(ps)


def _strong_verdict(ps: PairSet) -> Verdict:
    # verify_strong for a pair set already known to be a starter
    by_sum: dict[int, tuple[int, int]] = {}
    for pair, s in zip(ps.pairs, ps.sums()):
        if s in by_sum:
            return Verdict(
                False,
                f"pairs {by_sum[s]} and {pair} share the sum {s} (mod {ps.n})",
            )
        by_sum[s] = pair
    return Verdict(True)


def verify_skolem(ps: PairSet) -> Verdict:
    """Skolem check: integer differences are exactly {1, ..., (n-1)/2}.

    Raises NotAStarterError when the input is not a starter at all.
    """
    _require_starter(ps, "the Skolem property")
    return _skolem_verdict(ps)


def _skolem_verdict(ps: PairSet) -> Verdict:
    # verify_skolem for a pair set already known to be a starter
    diffs = sorted(ps.integer_differences())
    if diffs != list(range(1, ps.t + 1)):
        return Verdict(
            False,
            f"integer differences {{{_preview(diffs)}}} differ from "
            f"{{1, ..., {ps.t}}}",
        )
    return Verdict(True)


@dataclass(frozen=True)
class VerificationReport:
    """All three property verdicts for one pair set, plus raw check data.

    is_strong and is_skolem are False whenever is_starter is, since both
    properties are defined only for starters.  has_zero_sum is informational
    and independent of the verdicts: a strong starter without a zero sum is
    also skew, which matters for some downstream designs.
    """

    n: int
    pairs: tuple[tuple[int, int], ...]
    is_starter: bool
    is_strong: bool
    is_skolem: bool
    starter_witness: str | None
    strong_witness: str | None
    skolem_witness: str | None
    has_zero_sum: bool
    sums: tuple[int, ...]
    integer_differences: tuple[int, ...]

    @property
    def verdicts(self) -> tuple[bool, bool, bool]:
        return (self.is_starter, self.is_strong, self.is_skolem)

    def lines(self) -> list[str]:
        """Human-readable one-liners, one per verdict plus the zero-sum flag."""
        out = []
        for name, ok, witness in (
            ("starter", self.is_starter, self.starter_witness),
            ("strong", self.is_strong, self.strong_witness),
            ("skolem", self.is_skolem, self.skolem_witness),
        ):
            out.append(f"{name}: {'yes' if ok else f'no ({witness})'}")
        out.append(f"zero sum present: {'yes' if self.has_zero_sum else 'no'}")
        return out

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "pairs": [list(p) for p in self.pairs],
            "is_starter": self.is_starter,
            "is_strong": self.is_strong,
            "is_skolem": self.is_skolem,
            "starter_witness": self.starter_witness,
            "strong_witness": self.strong_witness,
            "skolem_witness": self.skolem_witness,
            "has_zero_sum": self.has_zero_sum,
        }


def full_report(ps: PairSet) -> VerificationReport:
    """Evaluate all three properties without raising on non-starters."""
    starter = verify_starter(ps)
    if starter:
        strong = _strong_verdict(ps)
        skolem = _skolem_verdict(ps)
    else:
        reason = "not a starter"
        strong = Verdict(False, reason)
        skolem = Verdict(False, reason)
    sums = ps.sums()
    return VerificationReport(
        n=ps.n,
        pairs=ps.pairs,
        is_starter=starter.ok,
        is_strong=strong.ok,
        is_skolem=skolem.ok,
        starter_witness=starter.witness,
        strong_witness=strong.witness,
        skolem_witness=skolem.witness,
        has_zero_sum=0 in sums,
        sums=sums,
        integer_differences=ps.integer_differences(),
    )


def pair_set_to_text(ps: PairSet) -> str:
    """Canonical text form: an n= header then one 'x y' line per pair."""
    lines = [f"n={ps.n}"]
    lines.extend(f"{x} {y}" for x, y in ps.pairs)
    return "\n".join(lines) + "\n"


def iter_pair_sets_text(text: str) -> Iterator[PairSet]:
    """Parse a stream of text records; each n= header starts a new set.

    Blank lines and '#' comments (whole-line or trailing) are ignored, so
    the annotated output of the command-line tools parses back unchanged.
    """
    n = None
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("n="):
            if n is not None:
                yield PairSet(n, pairs)
            try:
                n = int(line[2:])
            except ValueError:
                raise ValueError(f"line {lineno}: bad header {line!r}") from None
            pairs = []
            continue
        if n is None:
            raise ValueError(f"line {lineno}: pair data before any n= header")
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'x y', got {line!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer pair {line!r}") from None
    if n is not None:
        yield PairSet(n, pairs)


def parse_pair_set_text(text: str) -> PairSet:
    """Parse text holding exactly one pair set record."""
    sets = list(iter_pair_sets_text(text))
    if len(sets) != 1:
        raise ValueError(f"expected exactly one pair set record, found {len(sets)}")
    return sets[0]


def pair_set_to_obj(ps: PairSet) -> dict:
    """JSON-ready dict form: {"n": ..., "pairs": [[x, y], ...]}."""
    return {"n": ps.n, "pairs": [list(p) for p in ps.pairs]}


def pair_set_from_obj(obj) -> PairSet:
    """Inverse of pair_set_to_obj, with shape validation."""
    if not isinstance(obj, dict):
        raise ValueError(f"pair set object must be a dict, got {type(obj).__name__}")
    try:
        n = obj["n"]
        pairs = obj["pairs"]
    except KeyError as exc:
        raise ValueError(f"pair set object is missing the {exc.args[0]!r} key") from None
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"'n' must be an int, got {n!r}")
    if not isinstance(pairs, list):
        raise ValueError("'pairs' must be a list of two-element lists")
    for pair in pairs:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and all(
            isinstance(el, int) and not isinstance(el, bool) for el in pair
        )):
            raise ValueError(f"pair {pair!r} is not a two-element list of ints")
    return PairSet(n, pairs)

"""Pair sets over Z_n and the starter, strong and Skolem property checks.

A starter for Z_n (n odd) is a partition of {1, ..., n-1} into (n-1)/2
unordered pairs whose differences +-(y - x) mod n cover all of Z_n except 0.
It is strong when the pair sums x + y mod n are pairwise distinct, and
Skolem when the plain integer differences y - x (taking y > x) are exactly
{1, ..., (n-1)/2}.

PairSet is the shared container: immutable, canonically ordered, restricted
to well-formed inputs (odd n, elements in 1..n-1, no element reused).
Search witnesses and certificates enter through PairSet._from_witness, one
partition test in place of a pair-by-pair walk.  full_report is the one
verifier: it decides the three properties and returns a human-readable
witness for each failure.

Every check here is decided in bulk, by a few set, min, max or sorted
comparisons over whole tuples.  The pair-by-pair walk runs only when the
answer is no, to name the first fault in input or canonical order.
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


@dataclass(frozen=True)
class PairSet:
    """An immutable set of disjoint unordered pairs over {1, ..., n-1}.

    Pairs are normalised to (small, large) and sorted, so equal sets compare
    and hash equal no matter the construction order.  Well-formedness (odd
    n, elements in range, no reuse) is enforced here; whether the set is a
    starter is a separate question answered by full_report.

    The constructor decides well-formedness in bulk: every pair has two
    elements, every element is exactly an int, none repeats, and the
    smallest and largest lie in 1..n-1.  Only when that fails does the
    per-pair walk _reject run, which raises for the first faulty pair in
    input order, or accepts an int subclass the exact-type test turned away.

    Search witnesses and certificates take the other entry, _from_witness,
    which asks only that the witness partition {1, ..., n-1} exactly and
    leaves n to the caller to validate once: no pair-by-pair checks.
    """

    n: int
    pairs: tuple[tuple[int, int], ...]

    def __init__(self, n: int, pairs):
        object.__setattr__(self, "n", n)
        _check_modulus(n)
        raws = []
        try:
            raws.extend(pairs)
        except Exception:
            # a faulty pair read before the source failed is reported first
            _reject(n, raws, ())
            raise
        # extend keeps the pairs converted before a failing one, so that
        # _reject does not read them a second time
        tuples = []
        try:
            tuples.extend(map(tuple, raws))
            canon = [(x, y) if x < y else (y, x) for x, y in tuples]
        except Exception:
            canon = None
        if canon:
            # every canonical pair has x < y, so min(xs) and max(ys) bound
            # all the elements
            xs, ys = zip(*canon)
            if not (
                {*map(type, xs), *map(type, ys)} <= {int}
                and len({*xs, *ys}) == 2 * len(canon)
                and min(xs) >= 1
                and max(ys) <= n - 1
            ):
                canon = None
        if canon is None:
            canon = _reject(n, raws, tuples)
        object.__setattr__(self, "pairs", tuple(sorted(canon)))

    @classmethod
    def _from_witness(cls, n: int, xs) -> "PairSet":
        """The PairSet of a witness xs, where xs[d - 1] = x is the
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
                f"witness {tuple(xs)!r} does not partition 1..{n - 1}"
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
        n = self.n
        return tuple([(x + y) % n for x, y in self.pairs])

    def difference_classes(self) -> tuple[int, ...]:
        """Smaller representative of {y - x, x - y} mod n per pair."""
        # canonical pairs have 1 <= y - x < n, so the classes are y - x
        # and n - (y - x)
        n = self.n
        return tuple([y - x if 2 * (y - x) < n else n - y + x for x, y in self.pairs])

    def integer_differences(self) -> tuple[int, ...]:
        """Plain differences large - small, in canonical pair order."""
        return tuple([y - x for x, y in self.pairs])

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.pairs)

    def __contains__(self, pair) -> bool:
        x, y = pair
        return ((x, y) if x < y else (y, x)) in self.pairs


def _reject(n: int, raws: list, tuples) -> list:
    """The per-pair walk behind PairSet: the canonical pairs of raws, or
    the exception for the first fault in input order.

    tuples[i] is tuple(raws[i]) for a prefix of raws already converted, so
    no pair is read twice.  PairSet.__init__ runs this only when its bulk
    check fails; then it names the fault, or accepts an int subclass such
    as an IntEnum member that the exact-type test turned away.
    """
    seen = set()
    canon = []
    for i, raw in enumerate(raws):
        pair = tuples[i] if i < len(tuples) else tuple(raw)
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
    return canon


def _preview(values, limit: int = 8) -> str:
    vals = sorted(values)
    if len(vals) <= limit:
        return ", ".join(map(str, vals))
    shown = ", ".join(map(str, vals[:limit]))
    return f"{shown}, ... ({len(vals)} total)"


def _first_repeat(pairs, keys):
    """(earlier, pair, key) for the first pair, in order, whose key an
    earlier pair already has; None when every key is distinct."""
    seen: dict = {}
    for pair, key in zip(pairs, keys):
        if key in seen:
            return seen[key], pair, key
        seen[key] = pair
    return None


def _starter_witness(ps: PairSet) -> str | None:
    """Why ps is not a starter, or None when its pairs cover {1..n-1} and
    so do their +- differences."""
    n = ps.n
    # the elements are distinct and in 1..n-1, so they cover it iff there
    # are n - 1 of them
    if 2 * len(ps.pairs) != n - 1:
        missing = set(range(1, n)) - ps.elements
        return f"uncovered elements: {_preview(missing)}"
    classes = ps.difference_classes()
    if len({*classes}) == len(classes):
        return None
    other, pair, rep = _first_repeat(ps.pairs, classes)
    return f"pairs {other} and {pair} share the difference class +-{rep} (mod {n})"


def _strong_witness(ps: PairSet, sums: tuple[int, ...]) -> str | None:
    """Why the starter ps is not strong, or None when its pair sums mod n
    are pairwise distinct."""
    if len({*sums}) == len(sums):
        return None
    other, pair, s = _first_repeat(ps.pairs, sums)
    return f"pairs {other} and {pair} share the sum {s} (mod {ps.n})"


def _skolem_witness(ps: PairSet) -> str | None:
    """Why the starter ps is not Skolem, or None when its integer
    differences are exactly {1, ..., (n-1)/2}."""
    diffs = sorted(ps.integer_differences())
    if diffs == [*range(1, ps.t + 1)]:
        return None
    return (
        f"integer differences {{{_preview(diffs)}}} differ from "
        f"{{1, ..., {ps.t}}}"
    )


@dataclass(frozen=True)
class VerificationReport:
    """The three property verdicts for one pair set, with their witnesses.

    A witness is None when its property holds and otherwise says why it
    fails; is_starter, is_strong and is_skolem read it, so a verdict cannot
    disagree with its witness.  The strong and Skolem witnesses are "not a
    starter" whenever the starter one is set, since both properties are
    defined only for starters.  has_zero_sum is informational and
    independent of the verdicts: a strong starter without a zero sum is
    also skew, which matters for some downstream designs.
    """

    n: int
    pairs: tuple[tuple[int, int], ...]
    starter_witness: str | None
    strong_witness: str | None
    skolem_witness: str | None
    has_zero_sum: bool

    @property
    def is_starter(self) -> bool:
        return self.starter_witness is None

    @property
    def is_strong(self) -> bool:
        return self.strong_witness is None

    @property
    def is_skolem(self) -> bool:
        return self.skolem_witness is None

    @property
    def verdicts(self) -> tuple[bool, bool, bool]:
        return (self.is_starter, self.is_strong, self.is_skolem)

    def lines(self) -> list[str]:
        """Human-readable one-liners, one per verdict plus the zero-sum flag."""
        out = []
        for name, witness in (
            ("starter", self.starter_witness),
            ("strong", self.strong_witness),
            ("skolem", self.skolem_witness),
        ):
            out.append(f"{name}: {'yes' if witness is None else f'no ({witness})'}")
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
    """Decide all three properties of ps, with a witness for each failure.

    This is the one verifier: it never raises, and a non-starter is
    reported as neither strong nor Skolem.
    """
    starter = _starter_witness(ps)
    sums = ps.sums()
    if starter is None:
        strong = _strong_witness(ps, sums)
        skolem = _skolem_witness(ps)
    else:
        strong = skolem = "not a starter"
    return VerificationReport(
        n=ps.n,
        pairs=ps.pairs,
        starter_witness=starter,
        strong_witness=strong,
        skolem_witness=skolem,
        has_zero_sum=0 in sums,
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

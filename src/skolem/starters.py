"""Pair sets over Z_n and the starter, strong and Skolem property checks.

A starter for Z_n (n odd) is a partition of {1, ..., n-1} into (n-1)/2
unordered pairs whose differences +-(y - x) mod n cover all of Z_n except 0.
It is strong when the pair sums x + y mod n are pairwise distinct, and
Skolem when the plain integer differences y - x (taking y > x) are exactly
{1, ..., (n-1)/2}.

PairSet is the shared container: immutable, canonically ordered, restricted
to well-formed inputs (odd n, elements in 1..n-1, no element reused); its
docstring names the checked entry for outside input and the two partition
tests for the package's own pair sets.  full_report is the one verifier:
a compiled pass answers has_zero_sum for a strong Skolem starter, the one
report with no fault to name, and None for any other set; that set, and
every set without the compiled module, goes to the pure lines, which
decide in bulk, by a few set and size comparisons over whole tuples, and
walk pair by pair only on a no, to name the first fault in
canonical order.  Error messages quote outside input through
residues._quote, cut to its first 80 characters.
"""

from dataclasses import dataclass
from typing import Iterator

from .residues import _check_modulus, _quote

__all__ = [
    "PairSet",
    "VerificationReport",
    "full_report",
    "iter_pair_sets_text",
    "pair_set_from_obj",
    "pair_set_to_obj",
    "pair_set_to_text",
    "parse_pair_set_text",
    "skolem_admissible",
]


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

    The two fields are slots, declared here rather than through
    dataclass(slots=True), which rebuilds the class and leaves the frozen
    __setattr__ and __delattr__ bound to the old one: an instance has no
    __dict__ and takes no weak reference, and holds only n and the tuple of
    pairs.  It pickles and copies as a call to the checking constructor.
    A compiled search builds its witnesses in C as its walk flushes them,
    and takes each out of the cyclic GC, as it does their pair tuples: an
    object that holds only an int and a tuple of int pairs, and that
    nothing can change, cannot join a cycle.

    The constructor checks outside input in one pass, pair by pair, and
    raises for the first faulty pair in input order: a pair without
    exactly two elements, an element that is not an int (int subclasses
    such as IntEnum members pass, bool does not), outside 1..n-1 or
    already used.

    The pair sets the package builds itself take one of two other
    entries, both leaving n to the caller to validate once: _from_pairs
    for one pair set, which checks only that the pairs partition
    {1, ..., n-1} exactly, and _from_witnesses, which wraps pair tuples
    already canonical and checked, as _from_pairs, the pure kernel's walk
    and the compiled skolem_pairs hand them over.
    """

    __slots__ = ("n", "pairs")
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
                raise ValueError(f"pair {_quote(raw)} does not have exactly two elements")
            x, y = pair
            for el in pair:
                if not isinstance(el, int) or isinstance(el, bool):
                    raise TypeError(f"pair element {_quote(el)} is not an int")
                if not 1 <= el <= n - 1:
                    raise ValueError(f"element {_quote(el)} outside 1..{n - 1}")
            if x == y:
                raise ValueError(f"pair ({x}, {y}) repeats an element")
            for el in pair:
                if el in seen:
                    raise ValueError(f"element {el} appears in more than one pair")
                seen.add(el)
            canon.append((x, y) if x < y else (y, x))
        object.__setattr__(self, "pairs", tuple(sorted(canon)))

    def __reduce__(self):
        return PairSet, (self.n, self.pairs)

    @classmethod
    def _from_pairs(cls, n: int, xs, ys) -> "PairSet":
        """The PairSet of the pairs (xs[i], ys[i]), built by the package
        itself, which guarantees xs[i] < ys[i] and a valid modulus n.

        The one check here is that the pairs use every element of 1..n-1
        exactly once; a pair set that fails it raises ValueError.
        """
        if not (
            2 * len(xs) == n - 1
            and len({*xs, *ys}) == n - 1
            and min(xs) >= 1
            and max(ys) <= n - 1
        ):
            raise ValueError(
                f"pair set {tuple(zip(xs, ys))!r} does not partition 1..{n - 1}"
            )
        return cls._from_witnesses(n, [tuple(sorted(zip(xs, ys)))])[0]

    @classmethod
    def _from_witnesses(cls, n: int, canonical) -> tuple["PairSet", ...]:
        """The PairSets, for a valid n, of canonical pair tuples already
        known to partition 1..n-1, as the pure kernel's run_search builds
        them from its walk or the compiled skolem_pairs lays them out.
        Each one is wrapped as it is, shared pairs and all.
        """
        new, set_field = object.__new__, object.__setattr__
        out = []
        for pairs in canonical:
            ps = new(cls)
            set_field(ps, "n", n)
            set_field(ps, "pairs", pairs)
            out.append(ps)
        return tuple(out)

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
        try:  # anything but a pair of comparable elements is not held, as in a set
            x, y = pair
            pair = (x, y) if x < y else (y, x)
        except (TypeError, ValueError):
            return False
        return pair in self.pairs


def _preview(vals, total: int) -> str:
    """The first 8 of the ascending vals, then total when it is more."""
    shown = ", ".join(map(str, vals[:8]))
    return shown if total <= 8 else f"{shown}, ... ({total} total)"


def _first_repeat(pairs, keys):
    """(earlier, pair, key) for the first pair, in order, whose key an
    earlier pair already has; some key must repeat."""
    seen: dict = {}
    for pair, key in zip(pairs, keys):
        if key in seen:
            return seen[key], pair, key
        seen[key] = pair


def _starter_witness(ps: PairSet, skolem: bool) -> str | None:
    """Why ps is not a starter, or None when its pairs cover {1..n-1} and
    so do their +- differences; skolem says that its integer differences
    are 1..t, which already makes it one."""
    if skolem:
        return None
    n = ps.n
    # the elements are distinct and in 1..n-1, so they cover it iff there
    # are n - 1 of them
    covered = 2 * len(ps.pairs)
    if covered != n - 1:
        # the first 8 uncovered lie below covered + 9, however large n is
        used = ps.elements
        missing = [e for e in range(1, min(n, covered + 9)) if e not in used]
        return f"uncovered elements: {_preview(missing, n - 1 - covered)}"
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


@dataclass(frozen=True)
class VerificationReport:
    """The three property verdicts for one pair set, with their witnesses.

    A report describes the pair set full_report was given and does not
    copy it: whoever holds the report holds that set too, and writes it
    once, as the CLI's JSON documents do next to each report.

    A witness is None when its property holds and otherwise says why it
    fails; is_starter, is_strong and is_skolem read it, so a verdict cannot
    disagree with its witness.  The strong and Skolem witnesses are "not a
    starter" whenever the starter one is set, since both properties are
    defined only for starters.  has_zero_sum is informational and
    independent of the verdicts.  A starter is skew when its sums and
    their negatives are the n - 1 nonzero residues, so a zero sum rules
    skew out; its absence does not make a strong starter skew, as two
    sums may still be s and -s.
    """

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
    reported as neither strong nor Skolem.  The report holds the verdicts
    and witnesses only, not a copy of ps.  The compiled module, when it
    built, answers has_zero_sum for a strong Skolem starter in one pass,
    which makes the all-yes report, and None for any other set; the lines
    below decide every set it answers None for and name each fault.
    """
    from .search import _fastsearch  # read per call; search imports starters
    zero_sum = None if _fastsearch is None else _fastsearch.skolem_verdicts(ps.n, ps.pairs)
    if zero_sum is not None:  # no witness to name
        return VerificationReport(None, None, None, zero_sum)
    t = ps.t
    diffs = ps.integer_differences()
    # t distinct integer differences, none above t, are exactly 1..t: one
    # set test decides both "starter" and "Skolem" for every Skolem starter
    is_skolem = len({*diffs}) == t and max(diffs) <= t
    starter = _starter_witness(ps, is_skolem)
    sums = ps.sums()
    if starter is None:
        strong = _strong_witness(ps, sums)
        skolem = None if is_skolem else (
            f"integer differences {{{_preview(sorted(diffs), len(diffs))}}} differ from {{1, ..., {t}}}"
        )
    else:
        strong = skolem = "not a starter"
    return VerificationReport(
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


def _numeral(text: str) -> int:
    """int(text) for ASCII digits after at most one leading minus, blanks
    around them allowed; ValueError for the 1_1, +11 and non-ASCII digits
    that int() takes too, though pair_set_to_text never writes them."""
    digits = text.strip().removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("not a numeral")
    return int(text)


def iter_pair_sets_text(text: str) -> Iterator[PairSet]:
    """Parse a stream of text records; each n= header starts a new set.

    Blank lines and '#' comments (whole-line or trailing) are ignored, so
    the annotated output of the command-line tools parses back unchanged.
    n and the elements are ASCII digits after at most one leading minus.
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
                n = _numeral(line[2:])
            except ValueError:
                raise ValueError(f"line {lineno}: bad header {_quote(line)}") from None
            pairs = []
            continue
        if n is None:
            raise ValueError(f"line {lineno}: pair data before any n= header")
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'x y', got {_quote(line)}")
        try:
            pairs.append((_numeral(parts[0]), _numeral(parts[1])))
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer pair {_quote(line)}") from None
    if n is not None:
        yield PairSet(n, pairs)


def parse_pair_set_text(text: str) -> PairSet:
    """Parse text holding exactly one pair set record."""
    sets = list(iter_pair_sets_text(text))
    if len(sets) != 1:
        raise ValueError(f"expected exactly one pair set record, found {len(sets)}")
    return sets[0]


def pair_set_to_obj(ps: PairSet) -> dict:
    """JSON-ready dict form: {"n": ps.n, "pairs": ps.pairs}, the pair
    tuples themselves, which JSON encodes as it does lists: [[x, y], ...]."""
    return {"n": ps.n, "pairs": ps.pairs}


def pair_set_from_obj(obj) -> PairSet:
    """Inverse of pair_set_to_obj, with shape validation: "pairs" is a
    tuple, as pair_set_to_obj gives it, or a list, as JSON decodes it, of
    two-element lists or tuples of ints."""
    if not isinstance(obj, dict):
        raise ValueError(f"pair set object must be a dict, got {type(obj).__name__}")
    try:
        n = obj["n"]
        pairs = obj["pairs"]
    except KeyError as exc:
        raise ValueError(f"pair set object is missing the {exc.args[0]!r} key") from None
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"'n' must be an int, got {_quote(n)}")
    if not isinstance(pairs, (list, tuple)):
        raise ValueError("'pairs' must be a list of two-element lists")
    for pair in pairs:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and all(
            isinstance(el, int) and not isinstance(el, bool) for el in pair
        )):
            raise ValueError(f"pair {_quote(pair)} is not a two-element list of ints")
    return PairSet(n, pairs)

"""Quadratic-residue construction of strong and Skolem starters.

For an odd prime q == 3 (mod 4) and a non-residue beta other than q - 1,

    S_beta = {{x, beta * x mod q} : x a quadratic residue mod q}

is a strong starter for Z_q: its elements are the residues and the
non-residues, its difference classes are (beta - 1) times the residues and
non-residues, and its sums (beta + 1) * x repeat only when beta == q - 1.
The paper writes the same set through a generator alpha of the residue
group, S_beta = {{alpha**i, beta * alpha**i} : i = 1, ..., (q-1)/2}; the
powers of alpha run through the residues, so the set is the same for
every generator and the package builds it from the residues directly.

When additionally q == 3 (mod 8), both beta = 2 and beta = (q+1)/2 (the
inverse of 2) are non-residues, and S_beta becomes a Skolem starter: the
pairs are {y, 2y mod q} with y ranging over one residuosity class, and
folding that class into {1, ..., (q-1)/2} hits each integer difference
exactly once.  half_set_certificate exposes that folding, with beta naming
the class, as an object whose pair_set() checks it.
The folding is the one route to these starters: every builder of them
folds the residues once per call (enumerate_strong_skolem once per q), and
the {x, beta * x} loop serves only build_strong_starter's general beta.
Each fact is checked where it is made: _fold checks that the folding
partitions 1..(q-1)/2, and _skolem_pairs that the pairs realise each
difference once and partition 1..q-1.  Both run in the compiled module
skolem.search loads, read at call time, for any q the package accepts,
which reads only exact tuples and returns the answer or None; their
pure-Python lines are the route without it, decide whatever it answers
None for, and are the one that raises for a refusal.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from . import search
from .residues import MAX_MODULUS, _check_modulus, _quote, _require_int, is_prime
from .starters import PairSet

__all__ = [
    "BetaChoice",
    "ConstructionError",
    "HalfSetCertificate",
    "build_strong_skolem",
    "build_strong_starter",
    "construction_primes",
    "enumerate_strong_skolem",
    "half_set_certificate",
]


class ConstructionError(ValueError):
    """A parameter violates a precondition of the construction."""


class BetaChoice(Enum):
    """The two beta values that always yield Skolem starters."""

    TWO = "2"
    HALF = "half"

    def beta(self, q: int) -> int:
        return 2 if self is BetaChoice.TWO else (q + 1) // 2


def _as_choice(choice) -> BetaChoice:
    if isinstance(choice, BetaChoice):
        return choice
    try:
        return BetaChoice(str(choice))
    except ValueError:
        raise ConstructionError(
            f"beta choice must be '2' or 'half', got {_quote(choice)}"
        ) from None


def _require_prime_q(q: int) -> None:
    try:
        _check_modulus(q)
    except (TypeError, ValueError) as exc:
        raise ConstructionError(str(exc)) from None
    if not is_prime(q):
        raise ConstructionError(f"q = {q} is not prime")


def _require_skolem_q(q: int) -> None:
    _require_prime_q(q)
    if q % 8 != 3:
        raise ConstructionError(
            f"q % 8 == {q % 8}: Skolem starters from this construction "
            f"require q % 8 == 3"
        )


def _squares(q: int) -> set[int]:
    """QR(q): the squares of 1..(q-1)/2 already give every residue."""
    return {x * x % q for x in range(1, (q + 1) // 2)}


def _fold(q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(low, high), ascending: the squares d <= t = (q-1)/2 and the d <= t
    with q - d a square.  For q == 3 (mod 4) exactly one of d and q - d is
    a square, so the residues fold into (low, high), the rest into (high, low);
    ArithmeticError unless they partition 1..t.  The compiled module folds and
    checks when it built; the pure route below folds again to raise.
    """
    fast = search._fastsearch
    runs = None if fast is None else fast.fold(q)
    if runs is not None:
        return runs
    t = (q - 1) // 2
    squares = _squares(q)
    low = tuple(d for d in range(1, t + 1) if d in squares)
    high = tuple(d for d in range(1, t + 1) if q - d in squares)
    if sorted(low + high) != list(range(1, t + 1)):
        raise ArithmeticError(f"the squares mod {q} do not fold into a partition of 1..{t}")
    return low, high


def _folded(choice: BetaChoice, low, high):
    """(direct, reflected) for choice: beta = 2 folds the residues."""
    return (low, high) if choice is BetaChoice.TWO else (high, low)


def _skolem_pairs(q: int, direct, reflected) -> PairSet:
    """The pairs (d, 2d) for d in direct and (q - 2d, q - d) for d in
    reflected, for a valid q, checked to realise each difference 1..t once
    and to partition 1..q-1.  Compiled when both runs are exact tuples;
    the pure route reads any other iterable, decides whatever the compiled
    one answers None for, and names every fault: a bad entry first, then
    a failed partition, then a repeated difference."""
    fast = search._fastsearch
    pairs = None if fast is None else fast.skolem_pairs(q, direct, reflected)
    if pairs is not None:
        return PairSet._from_witnesses(q, (pairs,))[0]
    t = (q - 1) // 2
    # each run is read once, so any iterable serves and cannot change under
    # the checks below
    direct, reflected = tuple(direct), tuple(reflected)
    entries = direct + reflected
    for d in entries:
        if not isinstance(d, int) or isinstance(d, bool) or not 1 <= d <= t:
            raise ValueError(f"certificate entry {_quote(d)} is not an int in 1..{t}")
    xs = [*direct, *[q - 2 * d for d in reflected]]
    ys = [*[2 * d for d in direct], *[q - d for d in reflected]]
    ps = PairSet._from_pairs(q, xs, ys)
    if len({*entries}) < t:
        d = next(d for i, d in enumerate(entries) if d in entries[:i])
        raise ValueError(f"certificate realises difference {_quote(d)} more than once")
    return ps


def build_strong_starter(q: int, beta: int) -> PairSet:
    """Strong starter S_beta for Z_q; q prime, q % 4 == 3, beta a
    non-residue other than q - 1 (taken mod q)."""
    _require_prime_q(q)
    if q % 4 != 3:
        raise ConstructionError(
            f"q % 4 == {q % 4}: the construction requires q % 4 == 3"
        )
    _require_int("beta", beta)
    beta %= q
    residues = _squares(q)
    if beta == 0:
        raise ConstructionError(f"beta = {beta} outside 1..{q - 1}")
    if beta in residues:
        raise ConstructionError(
            f"beta = {beta} is a quadratic residue mod {q}; "
            f"a non-residue is required"
        )
    # beta = q - 1 makes every pair sum to zero, so the starter cannot be
    # strong; for q = 3 the single pair makes the sums trivially distinct
    if beta == q - 1 and q > 3:
        raise ConstructionError(
            "beta = q - 1 makes every pair sum to zero; "
            "the starter cannot be strong"
        )
    # the pairs {x, beta * x mod q}, smaller element first
    xs, ys = [], []
    for x in residues:
        y = beta * x % q
        if x > y:
            x, y = y, x
        xs.append(x)
        ys.append(y)
    return PairSet._from_pairs(q, xs, ys)


def build_strong_skolem(q: int, choice=BetaChoice.TWO) -> PairSet:
    """Strong Skolem starter for Z_q; q prime, q % 8 == 3.

    choice picks beta: '2' or 'half' (beta = (q+1)/2, the inverse of 2).
    """
    c = _as_choice(choice)
    _require_skolem_q(q)
    return _skolem_pairs(q, *_folded(c, *_fold(q)))


@dataclass(frozen=True)
class HalfSetCertificate:
    """Why S_beta is Skolem for beta in {2, (q+1)/2}: the folding witness.

    Every pair of S_beta has the form {y, 2y mod q} with y in one fixed
    residuosity class C (residues for beta = 2, non-residues for the
    inverse choice).  Writing t = (q-1)/2, each difference d in 1..t is
    realised exactly once:

      - d in C: the pair (d, 2d), plain difference d, and
      - q - d in C: the pair (q - 2d, q - d), plain difference d again.

    Since q == 3 (mod 4) makes -1 a non-residue, exactly one of d and q - d
    lies in C, so `direct` and `reflected` partition {1, ..., t}.
    """

    q: int
    beta: int
    direct: tuple[int, ...]
    reflected: tuple[int, ...]

    @property
    def t(self) -> int:
        return (self.q - 1) // 2

    def difference_pairs(self) -> dict[int, tuple[int, int]]:
        """Map each integer difference d in 1..t to the pair realising it."""
        return {y - x: (x, y) for x, y in self.pair_set()}

    def pair_set(self) -> PairSet:
        """The full starter reassembled from the certificate alone; raises
        TypeError or ValueError for a q that PairSet refuses, and, from the
        checks of _skolem_pairs, ValueError unless it realises each
        difference 1..t exactly once."""
        _check_modulus(self.q)
        return _skolem_pairs(self.q, self.direct, self.reflected)


def half_set_certificate(q: int, choice=BetaChoice.TWO) -> HalfSetCertificate:
    """The folding certificate for S_beta, checked where _fold makes it.

    Raises ConstructionError for inapplicable q and, from _fold,
    ArithmeticError if the folding fails to partition {1, ..., t}, which
    cannot happen when the preconditions hold.
    """
    c = _as_choice(choice)
    _require_skolem_q(q)
    direct, reflected = _folded(c, *_fold(q))
    return HalfSetCertificate(
        q=q,
        beta=c.beta(q),
        direct=direct,
        reflected=reflected,
    )


def construction_primes(q_max: int) -> list[int]:
    """All primes q <= q_max with q % 8 == 3, ascending (q_max <= 2**31 - 1)."""
    _require_int("q_max", q_max)
    if q_max > MAX_MODULUS:
        raise ConstructionError(f"q_max {_quote(q_max)} exceeds the supported cap 2**31 - 1")
    return [q for q in range(3, q_max + 1, 8) if is_prime(q)]


def enumerate_strong_skolem(
    q_max: int,
    choices: tuple = (BetaChoice.TWO, BetaChoice.HALF),
) -> Iterator[tuple[int, BetaChoice, PairSet]]:
    """Yield (q, choice, starter) for every q in construction_primes(q_max)
    and every choice in the tuple choices, each '2', 'half' or a BetaChoice."""
    if isinstance(choices, (str, BetaChoice)):
        raise ConstructionError(
            f"choices must be a tuple such as ('2', 'half'), got {_quote(choices)}"
        )
    normalized = tuple(_as_choice(c) for c in choices)
    for q in construction_primes(q_max):
        fold = _fold(q)
        for c in normalized:
            yield q, c, _skolem_pairs(q, *_folded(c, *fold))

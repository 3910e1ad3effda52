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
"""

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .residues import _check_modulus, is_prime
from .starters import PairSet


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
            f"beta choice must be '2' or 'half', got {choice!r}"
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


def _starter(q: int, beta: int) -> PairSet:
    """S_beta for a prime q == 3 (mod 4) that the caller has checked.

    beta must be a non-residue mod q.  beta = q - 1 is rejected for q > 3
    because then every pair sums to zero and the starter cannot be strong;
    for q = 3 the single pair makes the sums trivially distinct.
    """
    if not isinstance(beta, int) or isinstance(beta, bool):
        raise TypeError(f"beta must be an int, got {beta!r}")
    beta %= q
    residues = _squares(q)
    if beta == 0:
        raise ConstructionError(f"beta = {beta} outside 1..{q - 1}")
    if beta in residues:
        raise ConstructionError(
            f"beta = {beta} is a quadratic residue mod {q}; "
            f"a non-residue is required"
        )
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


def build_strong_starter(q: int, beta: int) -> PairSet:
    """Strong starter S_beta for Z_q; q prime, q % 4 == 3, beta a
    non-residue other than q - 1 (taken mod q)."""
    _require_prime_q(q)
    if q % 4 != 3:
        raise ConstructionError(
            f"q % 4 == {q % 4}: the construction requires q % 4 == 3"
        )
    return _starter(q, beta)


def build_strong_skolem(q: int, choice=BetaChoice.TWO) -> PairSet:
    """Strong Skolem starter for Z_q; q prime, q % 8 == 3.

    choice picks beta: '2' or 'half' (beta = (q+1)/2, the inverse of 2).
    """
    c = _as_choice(choice)
    _require_skolem_q(q)
    return _starter(q, c.beta(q))


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
        ValueError unless it realises each difference 1..t exactly once."""
        t = self.t
        entries = (*self.direct, *self.reflected)
        # in bulk first; the walk runs only to name a bad entry
        if not ({*map(type, entries)} <= {int}
                and min(entries, default=1) >= 1 and max(entries, default=t) <= t):
            for d in entries:
                if not isinstance(d, int) or isinstance(d, bool) or not 1 <= d <= t:
                    raise ValueError(f"certificate entry {d!r} is not an int in 1..{t}")
        q = self.q
        xs = [*self.direct, *[q - 2 * d for d in self.reflected]]
        ys = [*[2 * d for d in self.direct], *[q - d for d in self.reflected]]
        return PairSet._from_pairs(q, xs, ys)


def half_set_certificate(q: int, choice=BetaChoice.TWO) -> HalfSetCertificate:
    """Build and internally check the folding certificate for S_beta.

    Raises ConstructionError for inapplicable q and ArithmeticError if the
    folding fails to partition {1, ..., t}, which cannot happen when the
    preconditions hold.
    """
    c = _as_choice(choice)
    _require_skolem_q(q)
    t = (q - 1) // 2
    # one sorted pass over the squares: low holds the squares d <= t, high
    # the d <= t with q - d a square.  The check below shows that exactly
    # one of d and q - d is a square, so the QR class folds into
    # (low, high) and the NQR class into (high, low).
    squares = sorted(_squares(q))
    k = bisect_right(squares, t)
    low = tuple(squares[:k])
    high = tuple([q - s for s in reversed(squares[k:])])
    direct, reflected = (low, high) if c is BetaChoice.TWO else (high, low)
    if sorted(direct + reflected) != list(range(1, t + 1)):
        raise ArithmeticError(
            f"folding for beta = {c.beta(q)} does not partition 1..{t}"
        )
    return HalfSetCertificate(
        q=q,
        beta=c.beta(q),
        direct=direct,
        reflected=reflected,
    )


def construction_primes(q_max: int) -> list[int]:
    """All primes q <= q_max with q % 8 == 3, ascending."""
    return [q for q in range(3, q_max + 1, 8) if is_prime(q)]


def enumerate_strong_skolem(
    q_max: int,
    choices: tuple = (BetaChoice.TWO, BetaChoice.HALF),
) -> Iterator[tuple[int, BetaChoice, PairSet]]:
    """Yield (q, choice, starter) for every q in construction_primes(q_max)."""
    normalized = tuple(_as_choice(c) for c in choices)
    for q in construction_primes(q_max):
        _check_modulus(q)
        for c in normalized:
            yield q, c, _starter(q, c.beta(q))

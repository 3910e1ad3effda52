"""Exact arithmetic in Z_q for odd prime q: primality, quadratic residuosity,
generators of the residue group, modular inverses.

Everything is plain integer arithmetic; no floating point anywhere. Moduli are
capped at 2**31 - 1, so the product of two residues always fits in a 64-bit
word.  The compiled search kernel does not depend on this cap: it never
sees such a modulus, and its own 64-bit masks cap the order it searches
at 63.
"""

from dataclasses import dataclass, field
from enum import Enum

MAX_MODULUS = 2**31 - 1

# Sorted bases making Miller-Rabin deterministic for every n < 3.3e24,
# which covers the full 64-bit range the package accepts.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin, fixed base set).

    Exact for all inputs below 2**64; values at or above that are outside
    the supported range of the package.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_modulus(n) -> None:
    """Reject anything but an odd int n with 3 <= n <= 2**31 - 1.

    The shape check behind Modulus, without its primality test; PairSet
    needs only this.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"modulus must be an int, got {n!r}")
    if n < 3:
        raise ValueError(f"modulus must be >= 3, got {n}")
    if n % 2 == 0:
        raise ValueError(f"modulus must be odd, got {n}")
    if n > MAX_MODULUS:
        raise ValueError(f"modulus {n} exceeds the supported cap 2**31 - 1")


class ResidueClass(Enum):
    """Quadratic residuosity of an element of Z_q."""

    QR = "qr"
    NQR = "nqr"
    ZERO = "zero"


@dataclass(frozen=True)
class Modulus:
    """An odd modulus n >= 3, tagged with its primality."""

    n: int
    prime: bool = field(init=False, compare=False)

    def __post_init__(self):
        _check_modulus(self.n)
        object.__setattr__(self, "prime", is_prime(self.n))

    @property
    def half(self) -> int:
        """(n - 1) // 2, the size of each residuosity class for prime n."""
        return (self.n - 1) // 2

    def __str__(self):
        return str(self.n)


def as_modulus(q) -> Modulus:
    """Coerce an int (or pass through a Modulus) to a Modulus."""
    if isinstance(q, Modulus):
        return q
    return Modulus(q)


def _require_prime(m: Modulus) -> Modulus:
    if not m.prime:
        raise ValueError(f"modulus {m.n} is not prime")
    return m


def legendre_class(x: int, q) -> ResidueClass:
    """Residuosity of x mod an odd prime q (int or Modulus), by Euler's
    criterion.

    x**((q-1)/2) is 1 mod q exactly for quadratic residues and q-1 for
    non-residues; 0 maps to ZERO.
    """
    m = _require_prime(as_modulus(q))
    v = x % m.n
    if v == 0:
        return ResidueClass.ZERO
    e = pow(v, m.half, m.n)
    if e == 1:
        return ResidueClass.QR
    if e == m.n - 1:
        return ResidueClass.NQR
    raise ArithmeticError(f"Euler criterion failed for {v} mod {m.n}")


def mod_inverse(x: int, q) -> int:
    """Multiplicative inverse of x mod an odd prime q (int or Modulus);
    rejects x == 0 (mod q)."""
    m = _require_prime(as_modulus(q))
    if x % m.n == 0:
        raise ValueError(f"0 has no inverse mod {m.n}")
    return pow(x, -1, m.n)


def _prime_factors(m: int) -> tuple[int, ...]:
    """Distinct prime factors by trial division (fine below 2**31)."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out.append(m)
    return tuple(out)


def is_qr_generator(x: int, q) -> bool:
    """Whether x generates the group of quadratic residues mod prime q.

    A residue generates iff its order is exactly (q-1)/2, checked at the
    prime divisors of that order.
    """
    m = _require_prime(as_modulus(q))
    x %= m.n
    if legendre_class(x, m) is not ResidueClass.QR:
        return False
    h = m.half
    return all(pow(x, h // p, m.n) != 1 for p in _prime_factors(h))


def smallest_qr_generator(q) -> int:
    """Least generator of the quadratic-residue group mod prime q."""
    m = _require_prime(as_modulus(q))
    for x in range(1, m.n):
        if is_qr_generator(x, m):
            return x
    raise ArithmeticError(f"no generator found for QR({m.n})")


@dataclass(frozen=True)
class QrTable:
    """Full residuosity classification of Z_q* for an odd prime q.

    qr_set and nqr_set partition {1, ..., q-1} into two classes of size
    (q-1)/2; smallest_qr_generator is the least element whose powers run
    through all of qr_set. Immutable, safe to share between threads.
    """

    modulus: Modulus
    qr_set: frozenset[int]
    nqr_set: frozenset[int]
    smallest_qr_generator: int

    def class_of(self, x: int) -> ResidueClass:
        v = x % self.modulus.n
        if v == 0:
            return ResidueClass.ZERO
        return ResidueClass.QR if v in self.qr_set else ResidueClass.NQR


def _cycle_length(x: int, n: int) -> int:
    # Multiplicative order by plain repeated multiplication; used by the
    # table builder so it stays independent of the factorisation route in
    # is_qr_generator.
    y = x
    k = 1
    while y != 1:
        y = y * x % n
        k += 1
    return k


def build_qr_table(q) -> QrTable:
    """Classify Z_q* by brute-force squaring and locate the least generator.

    Deliberately avoids Euler's criterion and order factorisation, so the
    table and legendre_class/is_qr_generator are independent routes to the
    same answers.
    """
    m = _require_prime(as_modulus(q))
    n = m.n
    qr = frozenset(x * x % n for x in range(1, n))
    nqr = frozenset(range(1, n)) - qr
    gen = None
    for x in sorted(qr):
        if _cycle_length(x, n) == m.half:
            gen = x
            break
    if gen is None:
        raise ArithmeticError(f"no generator found for QR({n})")
    return QrTable(modulus=m, qr_set=qr, nqr_set=nqr, smallest_qr_generator=gen)


def qr_generators(q) -> list[int]:
    """All generators of the quadratic-residue group mod q, ascending."""
    m = _require_prime(as_modulus(q))
    return [x for x in range(1, m.n) if is_qr_generator(x, m)]

"""Exact arithmetic in Z_q for odd prime q: primality, quadratic residuosity,
generators of the residue group, modular inverses.

Everything is plain integer arithmetic; no floating point anywhere.  A
modulus is a plain int q, checked once per public call and capped at
2**31 - 1, so the product of two residues always fits in a 64-bit word.
The compiled search kernel does not depend on this cap: it never
sees such a modulus, and its own 64-bit masks cap the order it searches
at 63.
"""

from dataclasses import dataclass
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

    The shape check without the primality test; PairSet needs only this.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"modulus must be an int, got {n!r}")
    if n < 3:
        raise ValueError(f"modulus must be >= 3, got {n}")
    if n % 2 == 0:
        raise ValueError(f"modulus must be odd, got {n}")
    if n > MAX_MODULUS:
        raise ValueError(f"modulus {n} exceeds the supported cap 2**31 - 1")


def _require_prime(q) -> None:
    """The check each public function below runs once on its modulus q."""
    _check_modulus(q)
    if not is_prime(q):
        raise ValueError(f"modulus {q} is not prime")


class ResidueClass(Enum):
    """Quadratic residuosity of an element of Z_q."""

    QR = "qr"
    NQR = "nqr"
    ZERO = "zero"


def _euler(x: int, q: int) -> ResidueClass:
    # Euler's criterion for a checked prime q.
    v = x % q
    if v == 0:
        return ResidueClass.ZERO
    e = pow(v, (q - 1) // 2, q)
    if e == 1:
        return ResidueClass.QR
    if e == q - 1:
        return ResidueClass.NQR
    raise ArithmeticError(f"Euler criterion failed for {v} mod {q}")


def legendre_class(x: int, q: int) -> ResidueClass:
    """Residuosity of x mod an odd prime q, by Euler's criterion.

    x**((q-1)/2) is 1 mod q exactly for quadratic residues and q-1 for
    non-residues; 0 maps to ZERO.
    """
    _require_prime(q)
    return _euler(x, q)


def mod_inverse(x: int, q: int) -> int:
    """Multiplicative inverse of x mod an odd prime q; rejects x == 0 (mod q)."""
    _require_prime(q)
    if x % q == 0:
        raise ValueError(f"0 has no inverse mod {q}")
    return pow(x, -1, q)


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


def _generator_test(q: int):
    """The predicate "x generates QR(q)" for a checked prime q.

    A residue generates iff its order is exactly (q-1)/2, checked at the
    prime divisors of that order, which are factored once per q.
    """
    h = (q - 1) // 2
    exponents = [h // p for p in _prime_factors(h)]

    def generates(x: int) -> bool:
        x %= q
        if _euler(x, q) is not ResidueClass.QR:
            return False
        return all(pow(x, e, q) != 1 for e in exponents)

    return generates


def is_qr_generator(x: int, q: int) -> bool:
    """Whether x generates the group of quadratic residues mod prime q."""
    _require_prime(q)
    return _generator_test(q)(x)


def smallest_qr_generator(q: int) -> int:
    """Least generator of the quadratic-residue group mod prime q."""
    _require_prime(q)
    generates = _generator_test(q)
    for x in range(1, q):
        if generates(x):
            return x
    raise ArithmeticError(f"no generator found for QR({q})")


@dataclass(frozen=True)
class QrTable:
    """Full residuosity classification of Z_q* for an odd prime q.

    qr_set and nqr_set partition {1, ..., q-1} into two classes of size
    (q-1)/2; smallest_qr_generator is the least element whose powers run
    through all of qr_set. Immutable, safe to share between threads.
    """

    q: int
    qr_set: frozenset[int]
    nqr_set: frozenset[int]
    smallest_qr_generator: int

    def class_of(self, x: int) -> ResidueClass:
        v = x % self.q
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


def build_qr_table(q: int) -> QrTable:
    """Classify Z_q* by brute-force squaring and locate the least generator.

    Deliberately avoids Euler's criterion and order factorisation, so the
    table and legendre_class/is_qr_generator are independent routes to the
    same answers.
    """
    _require_prime(q)
    qr = frozenset(x * x % q for x in range(1, q))
    nqr = frozenset(range(1, q)) - qr
    gen = None
    for x in sorted(qr):
        if _cycle_length(x, q) == (q - 1) // 2:
            gen = x
            break
    if gen is None:
        raise ArithmeticError(f"no generator found for QR({q})")
    return QrTable(q=q, qr_set=qr, nqr_set=nqr, smallest_qr_generator=gen)


def qr_generators(q: int) -> list[int]:
    """All generators of the quadratic-residue group mod q, ascending."""
    _require_prime(q)
    return list(filter(_generator_test(q), range(1, q)))

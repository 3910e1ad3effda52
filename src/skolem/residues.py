"""Exact arithmetic in Z_q for odd prime q: primality and the quadratic
residues.

Everything is plain integer arithmetic; no floating point anywhere.  A
modulus is a plain int q, checked once per public call and capped at
2**31 - 1, so the product of two residues always fits in a 64-bit word.
The compiled module's construction functions take a modulus up to the
same cap; its search kernel does not depend on it, as its own 64-bit
masks cap the order it searches at 63.

It also holds the package's argument checks, as the other modules import
it: _require_int, and _quote, which cuts a bad value's repr to 80 characters
and names a longer int by its size.
"""

from dataclasses import dataclass

__all__ = [
    "MAX_MODULUS",
    "QrTable",
    "build_qr_table",
    "is_prime",
    "smallest_qr_generator",
]

MAX_MODULUS = 2**31 - 1

# Sorted bases making Miller-Rabin deterministic for every n < 2**64; the
# first four decide every n < 3,215,031,751 (Jaeschke, Math. Comp. 61,
# 1993), above the 2**31 - 1 cap on moduli.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_FOUR_BASES_BOUND = 3_215_031_751
_TRIAL_DIVISION_BOUND = 41 * 41  # see is_prime


def _cut(text: str, limit: int) -> str:
    """text, cut to limit characters and an ellipsis if longer."""
    return text if len(text) <= limit else f"{text[:limit]}…"


def _quote(value) -> str:
    """repr(value), cut to 80 characters and an ellipsis if longer.

    An int of more than 80 digits is named by its size and never made
    text: past 4,300 digits the conversion itself raises.
    """
    if isinstance(value, int) and abs(value) >= 10**80:
        sign = "negative " if value < 0 else ""
        return f"<{sign}int of {value.bit_length()} bits>"
    return _cut(repr(value), 80)


def _require_int(name: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {_quote(value)}")


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin, fixed base set).

    Exact for every n < 2**64, which covers every modulus the package
    accepts (at most 2**31 - 1).  Trial division by the bases 2..37 comes
    first, and alone decides every n < 41**2 = 1681: a composite below it
    has a prime factor of at most 37.  Raises TypeError for anything but
    an int (bool included) and ValueError from 2**64 up, where the fixed
    bases are no longer proven exact.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"is_prime needs an int, got {_quote(n)}")
    if n >= 2**64:
        raise ValueError(f"is_prime is exact only below 2**64, got {_quote(n)}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < _TRIAL_DIVISION_BOUND:
        return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES[:4] if n < _MR_FOUR_BASES_BOUND else _MR_BASES:
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
    """Reject anything but an odd int n with 3 <= n <= 2**31 - 1: the shape
    check without the primality test, all PairSet needs."""
    _require_int("modulus", n)
    if n < 3:
        raise ValueError(f"modulus must be >= 3, got {_quote(n)}")
    if n % 2 == 0:
        raise ValueError(f"modulus must be odd, got {_quote(n)}")
    if n > MAX_MODULUS:
        raise ValueError(f"modulus {_quote(n)} exceeds the supported cap 2**31 - 1")


def _require_prime(q) -> None:
    """The check each public function below runs once on its modulus q."""
    _check_modulus(q)
    if not is_prime(q):
        raise ValueError(f"modulus {q} is not prime")


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


def smallest_qr_generator(q: int) -> int:
    """Least generator of the quadratic-residue group mod prime q.

    x is a residue iff x**h == 1 for h = (q-1)/2 (Euler's criterion), and
    a residue generates iff its order is exactly h, checked at the prime
    divisors of h, which are factored once per q.
    """
    _require_prime(q)
    h = (q - 1) // 2
    exponents = [h // p for p in _prime_factors(h)]
    for x in range(1, q):
        if pow(x, h, q) == 1 and all(pow(x, e, q) != 1 for e in exponents):
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


def _cycle_length(x: int, n: int) -> int:
    # Multiplicative order by plain repeated multiplication; used by the
    # table builder so it stays independent of the factorisation route in
    # smallest_qr_generator.
    y = x
    k = 1
    while y != 1:
        y = y * x % n
        k += 1
    return k


def build_qr_table(q: int) -> QrTable:
    """Classify Z_q* by brute-force squaring and locate the least generator.

    Deliberately avoids order factorisation, so the table and
    smallest_qr_generator are independent routes to the same generator.
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

import random
from math import prod

import pytest

import skolem.construction
import skolem.residues
from skolem import (
    MAX_MODULUS,
    ConstructionError,
    build_qr_table,
    construction_primes,
    enumerate_strong_skolem,
    is_prime,
    smallest_qr_generator,
)

from _fixtures import NQR_SETS, QR_SETS, SMALLEST_QR_GENERATOR
from _naive import cycle_qr_generators, jacobi, primes_in

PRIMES_TO_200 = sorted(primes_in(3, 200))


def test_is_prime_matches_a_sieve_exhaustively():
    # across is_prime's trial-division cutoff 41**2 = 1681, below which no
    # Miller-Rabin round runs, and the composites 37 * 41 = 1517 below it
    # and 41 * 43 = 1763 above it
    primes = primes_in(0, 5000)
    for n in range(0, 5000):
        assert is_prime(n) == (n in primes), n


def test_is_prime_large_values():
    assert is_prime(2**31 - 1)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**31 - 3)
    # strong pseudoprime to several small bases, composite
    assert not is_prime(3215031751)
    assert not is_prime(2**32 + 1)
    # the largest prime below 2**64, the end of the proven range
    assert is_prime(2**64 - 59)
    assert not is_prime(2**64 - 1)


def test_is_prime_at_the_four_base_bound():
    # below 3,215,031,751 only the bases 2, 3, 5 and 7 run.  The least
    # strong pseudoprimes to the first one, two and three of them (OEIS
    # A014233) are composite, and 3,215,031,751, the least to all four,
    # is pinned above.
    for n in (2047, 1_373_653, 25_326_001):
        assert not is_prime(n), n
    rng = random.Random(31)
    below_cap = [2**31 - 1 - 2 * rng.randrange(10**6) for _ in range(2000)]
    bound = 3_215_031_751
    primes = primes_in(2**31 - 2 * 10**6, 2**31) | primes_in(bound - 10**4, bound + 10**4 + 1)
    for n in [*below_cap, *range(bound - 10**4, bound + 10**4 + 1, 2)]:
        assert is_prime(n) == (n in primes), n


@pytest.mark.parametrize(
    "n, exc, message",
    [
        (11.0, TypeError, "is_prime needs an int, got 11.0"),
        (True, TypeError, "is_prime needs an int, got True"),
        ("11", TypeError, "is_prime needs an int, got '11'"),
        (None, TypeError, "is_prime needs an int, got None"),
        (2.0**70 + 1, TypeError, "is_prime needs an int, got 1.1805916207174113e+21"),
        (2**64, ValueError, "is_prime is exact only below 2**64, got 18446744073709551616"),
        (2**70 + 1, ValueError, "is_prime is exact only below 2**64, got 1180591620717411303425"),
    ],
)
def test_is_prime_rejects_what_it_cannot_decide(n, exc, message):
    with pytest.raises(exc) as info:
        is_prime(n)
    assert type(info.value) is exc
    assert str(info.value) == message


def test_modulus_validation():
    for fn in (build_qr_table, smallest_qr_generator):
        with pytest.raises(ValueError, match="modulus must be odd, got 10"):
            fn(10)
        with pytest.raises(ValueError, match=">= 3"):
            fn(1)
        with pytest.raises(ValueError, match=">= 3"):
            fn(-7)
        with pytest.raises(ValueError, match="cap"):
            fn(2**31 + 1)
        with pytest.raises(ValueError, match="modulus 15 is not prime"):
            fn(15)
        with pytest.raises(TypeError):
            fn(True)
        with pytest.raises(TypeError):
            fn(11.0)
        with pytest.raises(TypeError):
            fn()


def test_modulus_attributes():
    table = build_qr_table(11)
    assert table.q == 11 and len(table.qr_set) == len(table.nqr_set) == 5
    with pytest.raises(ValueError, match="modulus 9 is not prime"):
        build_qr_table(9)
    # 2**31 - 1 is a Mersenne prime, so the cap itself is accepted; its
    # generator has order exactly h = 2**30 - 1 = 3**2 * 7 * 11 * 31 * 151
    # * 331, checked at each of those primes
    q = MAX_MODULUS
    h = (q - 1) // 2
    factors = (3, 7, 11, 31, 151, 331)
    assert 3 * prod(factors) == h and set(factors) <= primes_in(0, 332)
    g = smallest_qr_generator(q)
    assert pow(g, h, q) == 1
    assert all(pow(g, h // p, q) != 1 for p in factors)


def test_each_call_runs_miller_rabin_once(monkeypatch):
    calls = []

    def counting_is_prime(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(skolem.residues, "is_prime", counting_is_prime)
    for fn in (smallest_qr_generator, build_qr_table):
        calls.clear()
        fn(43)
        assert calls == [43], fn.__name__


def test_enumeration_runs_miller_rabin_once_per_candidate(monkeypatch):
    calls = []

    def counting_is_prime(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(skolem.construction, "is_prime", counting_is_prime)
    list(enumerate_strong_skolem(100))
    assert calls == list(range(3, 101, 8))


def test_q_max_past_the_cap_is_refused_before_any_primality_test(monkeypatch):
    calls = []
    monkeypatch.setattr(skolem.construction, "is_prime", calls.append)
    for q_max in (MAX_MODULUS + 1, 3_000_000_000, 10**20):
        message = f"q_max {q_max} exceeds the supported cap 2**31 - 1"
        with pytest.raises(ConstructionError) as info:
            construction_primes(q_max)
        assert str(info.value) == message
        with pytest.raises(ConstructionError, match="exceeds the supported cap"):
            next(enumerate_strong_skolem(q_max))
    for q_max in ("100", 100.0, True, None):
        with pytest.raises(TypeError, match="q_max must be an int"):
            construction_primes(q_max)
    assert calls == []
    monkeypatch.undo()
    assert construction_primes(2) == construction_primes(-5) == []
    assert construction_primes(43) == [3, 11, 19, 43]


def test_minus_one_rule():
    # -1 is a residue exactly for q == 1 (mod 4)
    for q in PRIMES_TO_200:
        assert (q - 1 in build_qr_table(q).qr_set) == (q % 4 == 1), q


def test_two_rule():
    # 2 is a residue exactly for q == 1 or 7 (mod 8)
    for q in PRIMES_TO_200:
        assert (2 in build_qr_table(q).qr_set) == (q % 8 in (1, 7)), q


def test_qr_table_fixtures():
    for q in (11, 19, 43):
        table = build_qr_table(q)
        assert table.qr_set == QR_SETS[q]
        assert table.nqr_set == NQR_SETS[q]
        assert table.smallest_qr_generator == SMALLEST_QR_GENERATOR[q]
        assert smallest_qr_generator(q) == SMALLEST_QR_GENERATOR[q]


def test_qr_table_agrees_with_legendre():
    for q in PRIMES_TO_200:
        table = build_qr_table(q)
        assert len(table.qr_set) == len(table.nqr_set) == (q - 1) // 2
        assert table.qr_set | table.nqr_set == set(range(1, q))
        for x in range(1, q):
            expected = jacobi(x, q) == 1
            assert (x in table.qr_set) == expected, (q, x)


def test_generator_powers_cover_qr_set():
    for q in (11, 19, 43):
        g = smallest_qr_generator(q)
        h = (q - 1) // 2
        powers = {pow(g, i, q) for i in range(1, h + 1)}
        assert powers == QR_SETS[q]


def test_qr_generators_against_cycle_enumeration():
    for q in PRIMES_TO_200:
        expected = cycle_qr_generators(q)
        assert smallest_qr_generator(q) == expected[0], q
        assert build_qr_table(q).smallest_qr_generator == expected[0], q


def test_qr_generators_fixture_q_11():
    # QR(11) is cyclic of prime order 5, so every residue except 1 generates
    # and the least generator is 3
    assert cycle_qr_generators(11) == [3, 4, 5, 9]
    assert sorted(build_qr_table(11).qr_set - {1}) == [3, 4, 5, 9]
    assert smallest_qr_generator(11) == 3

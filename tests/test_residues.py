import pytest
import sympy

import skolem.residues
from skolem import (
    MAX_MODULUS,
    ResidueClass,
    build_qr_table,
    is_prime,
    is_qr_generator,
    legendre_class,
    mod_inverse,
    qr_generators,
    smallest_qr_generator,
)

from _fixtures import HALF_BETA, NQR_SETS, QR_SETS, SMALLEST_QR_GENERATOR

PRIMES_TO_200 = [p for p in range(3, 200) if sympy.isprime(p)]


def test_is_prime_matches_sympy_exhaustively():
    for n in range(0, 2000):
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_large_values():
    assert is_prime(2**31 - 1)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**31 - 3)
    # strong pseudoprime to several small bases, composite
    assert not is_prime(3215031751)
    assert not is_prime(2**32 + 1)


def test_modulus_validation():
    with pytest.raises(ValueError, match="modulus must be odd, got 10"):
        legendre_class(1, 10)
    with pytest.raises(ValueError, match=">= 3"):
        legendre_class(1, 1)
    with pytest.raises(ValueError, match=">= 3"):
        legendre_class(1, -7)
    with pytest.raises(ValueError, match="cap"):
        legendre_class(1, 2**31 + 1)
    with pytest.raises(TypeError):
        legendre_class(1, True)
    with pytest.raises(TypeError):
        legendre_class(1, 11.0)


def test_modulus_attributes():
    table = build_qr_table(11)
    assert table.q == 11 and len(table.qr_set) == len(table.nqr_set) == 5
    with pytest.raises(ValueError, match="modulus 9 is not prime"):
        legendre_class(1, 9)
    # 2**31 - 1 is a Mersenne prime
    assert legendre_class(1, MAX_MODULUS) is ResidueClass.QR


def test_each_call_runs_miller_rabin_once(monkeypatch):
    calls = []

    def counting_is_prime(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(skolem.residues, "is_prime", counting_is_prime)
    for fn, args in (
        (legendre_class, (3, 43)),
        (mod_inverse, (3, 43)),
        (is_qr_generator, (3, 43)),
        (smallest_qr_generator, (43,)),
        (qr_generators, (43,)),
        (build_qr_table, (43,)),
    ):
        calls.clear()
        fn(*args)
        assert calls == [43], fn.__name__


def test_legendre_class_agrees_with_brute_squares():
    for q in PRIMES_TO_200:
        squares = {x * x % q for x in range(1, q)}
        assert legendre_class(0, q) is ResidueClass.ZERO
        for x in range(1, q):
            expected = ResidueClass.QR if x in squares else ResidueClass.NQR
            assert legendre_class(x, q) is expected, (q, x)


def test_legendre_class_requires_a_modulus():
    assert legendre_class(3, 11) is ResidueClass.QR
    assert legendre_class(2, 11) is ResidueClass.NQR
    assert mod_inverse(2, 11) == 6
    with pytest.raises(TypeError):
        legendre_class(3)


def test_legendre_class_requires_prime():
    with pytest.raises(ValueError, match="not prime"):
        legendre_class(2, 15)


def test_minus_one_rule():
    # -1 is a residue exactly for q == 1 (mod 4)
    for q in PRIMES_TO_200:
        expected = ResidueClass.QR if q % 4 == 1 else ResidueClass.NQR
        assert legendre_class(q - 1, q) is expected, q


def test_two_rule():
    # 2 is a residue exactly for q == 1 or 7 (mod 8)
    for q in PRIMES_TO_200:
        expected = ResidueClass.QR if q % 8 in (1, 7) else ResidueClass.NQR
        assert legendre_class(2, q) is expected, q


def test_qr_table_fixtures():
    for q in (11, 19, 43):
        table = build_qr_table(q)
        assert table.qr_set == QR_SETS[q]
        assert table.nqr_set == NQR_SETS[q]
        assert table.smallest_qr_generator == SMALLEST_QR_GENERATOR[q]
        assert table.class_of(0) is ResidueClass.ZERO
        assert table.class_of(q) is ResidueClass.ZERO
        for x in QR_SETS[q]:
            assert table.class_of(x) is ResidueClass.QR
        for x in NQR_SETS[q]:
            assert table.class_of(x) is ResidueClass.NQR


def test_qr_table_agrees_with_legendre():
    for q in PRIMES_TO_200:
        table = build_qr_table(q)
        assert len(table.qr_set) == len(table.nqr_set) == (q - 1) // 2
        assert table.qr_set | table.nqr_set == set(range(1, q))
        for x in range(1, q):
            assert table.class_of(x) is legendre_class(x, q), (q, x)


def test_generator_powers_cover_qr_set():
    for q in (11, 19, 43):
        g = smallest_qr_generator(q)
        h = (q - 1) // 2
        powers = {pow(g, i, q) for i in range(1, h + 1)}
        assert powers == QR_SETS[q]


def test_qr_generators_against_cycle_enumeration():
    for q in PRIMES_TO_200:
        h = (q - 1) // 2
        expected = []
        for x in sorted({y * y % q for y in range(1, q)}):
            z, k = x, 1
            while z != 1:
                z = z * x % q
                k += 1
            if k == h:
                expected.append(x)
        assert qr_generators(q) == expected, q
        assert smallest_qr_generator(q) == expected[0]
        assert build_qr_table(q).smallest_qr_generator == expected[0]
        for x in range(1, q):
            assert is_qr_generator(x, q) == (x in set(expected)), (q, x)


def test_qr_generators_fixture_q_11():
    # QR(11) is cyclic of prime order 5, so every residue except 1 generates
    assert qr_generators(11) == [3, 4, 5, 9]


def test_mod_inverse_fixtures():
    assert mod_inverse(2, 11) == 6
    assert mod_inverse(2, 19) == 10
    assert mod_inverse(2, 43) == 22
    for q, half in HALF_BETA.items():
        assert mod_inverse(2, q) == half


def test_mod_inverse_all_elements():
    for q in (11, 19, 43):
        for x in range(1, q):
            assert mod_inverse(x, q) * x % q == 1


def test_mod_inverse_rejections():
    with pytest.raises(ValueError, match="no inverse"):
        mod_inverse(0, 11)
    with pytest.raises(ValueError, match="no inverse"):
        mod_inverse(22, 11)
    with pytest.raises(ValueError, match="not prime"):
        mod_inverse(2, 9)

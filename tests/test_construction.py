import dataclasses
import enum
import gc
import re
import types

import pytest

import skolem.construction
from skolem import (
    BetaChoice,
    ConstructionError,
    HalfSetCertificate,
    PairSet,
    build_qr_table,
    build_strong_skolem,
    build_strong_starter,
    construction_primes,
    enumerate_strong_skolem,
    full_report,
    half_set_certificate,
    is_prime,
    smallest_qr_generator,
)

from _fixtures import HALF_BETA, S_HALF, S_TWO, SMALLEST_QR_GENERATOR
from _naive import cycle_qr_generators, generator_starter


def test_beta_choice_values():
    for q in (11, 19, 43):
        assert BetaChoice.TWO.beta(q) == 2
        assert BetaChoice.HALF.beta(q) == HALF_BETA[q]
        assert 2 * BetaChoice.HALF.beta(q) % q == 1


def test_fixture_starters_two():
    for q, pairs in S_TWO.items():
        assert build_strong_skolem(q, BetaChoice.TWO).pairs == pairs
        assert build_strong_skolem(q, "2").pairs == pairs


def test_fixture_starters_half():
    for q, pairs in S_HALF.items():
        assert build_strong_skolem(q, BetaChoice.HALF).pairs == pairs
        assert build_strong_skolem(q, "half").pairs == pairs


def test_generator_independence():
    # The paper's form {alpha**i, beta*alpha**i} gives the package's
    # {x, beta*x} over the residues for every generator alpha.
    for q in (11, 19, 43):
        gens = cycle_qr_generators(q)
        assert SMALLEST_QR_GENERATOR[q] == gens[0]
        for choice in BetaChoice:
            reference = build_strong_skolem(q, choice).pairs
            for alpha in gens:
                assert generator_starter(q, alpha, choice.beta(q)) == reference


def test_alpha_from_reference_tables():
    # The classical worked examples use alpha = 4, 4 and 9; same sets.
    assert generator_starter(11, 4, 6) == S_HALF[11]
    assert generator_starter(19, 4, 2) == S_TWO[19]
    assert generator_starter(43, 9, 22) == S_HALF[43]


def test_strong_starter_matches_generator_form():
    for q in range(3, 101, 4):
        if not is_prime(q):
            continue
        alpha = smallest_qr_generator(q)
        nqr = set(range(1, q)) - {x * x % q for x in range(1, q)}
        for beta in sorted(nqr):
            if beta == q - 1 and q > 3:
                continue
            assert build_strong_starter(q, beta).pairs == generator_starter(
                q, alpha, beta
            ), (q, beta)


def _matches_the_walk(ps):
    """Whether a pair set the package built itself equals the one the
    checked walk PairSet(n, pairs) makes of its pairs, hash and plain int
    elements included; _from_pairs trusts its callers to order each pair."""
    walked = PairSet(ps.n, ps.pairs)
    return (
        ps == walked
        and hash(ps) == hash(walked)
        and all(type(el) is int for pair in ps.pairs for el in pair)
    )


def test_construction_outputs_verify():
    for q, choice, ps in enumerate_strong_skolem(200):
        assert full_report(ps).verdicts == (True, True, True), (q, choice)
        assert len(ps) == (q - 1) // 2
        assert _matches_the_walk(ps), (q, choice)


def test_strong_starter_for_every_valid_beta():
    for q in (11, 19, 23):
        table = build_qr_table(q)
        for beta in sorted(table.nqr_set):
            if beta == q - 1:
                continue
            ps = build_strong_starter(q, beta)
            report = full_report(ps)
            assert report.is_starter and report.is_strong, (q, beta)
            assert _matches_the_walk(ps), (q, beta)


def test_strong_starter_not_always_skolem():
    # beta = 7 is a non-residue mod 11 but not 2 or (11+1)/2
    ps = build_strong_starter(11, 7)
    assert full_report(ps).verdicts == (True, True, False)


def test_q3_edge_case():
    ps = build_strong_skolem(3)
    assert ps.pairs == ((1, 2),)
    assert full_report(ps).verdicts == (True, True, True)
    # beta = 2 = q - 1 is allowed here: a single pair sum repeats nothing
    assert build_strong_starter(3, 2).pairs == ((1, 2),)


def test_paper_starters_are_skew_above_q3():
    # the sums of S_beta are (1 + beta) * QR and their negatives
    # (1 + beta) * NQR, as -1 is a non-residue: the nonzero residues
    # exactly, unless 1 + beta = 0, which both betas give only at q = 3
    skew = 0
    for q, choice, ps in enumerate_strong_skolem(1500):
        sums = {*ps.sums()}
        negated = {(q - s) % q for s in sums}
        assert ((sums | negated) == set(range(1, q))) == (q != 3), (q, choice)
        skew += q != 3
    assert skew == 118
    assert build_strong_skolem(3).sums() == (0,)


def test_strong_starter_validation():
    for q, beta, message in (
        (15, 2, "q = 15 is not prime"),
        (13, 2, "q % 4 == 1: the construction requires q % 4 == 3"),
        (11, 4, "beta = 4 is a quadratic residue mod 11; a non-residue is required"),
        (11, 0, "beta = 0 outside 1..10"),
        (11, 22, "beta = 0 outside 1..10"),
        (11, 10, "beta = q - 1 makes every pair sum to zero; "
                 "the starter cannot be strong"),
    ):
        with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
            build_strong_starter(q, beta)
    for beta in (6.0, "6", True):
        message = f"beta must be an int, got {beta!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            build_strong_starter(11, beta)


def test_build_rejections():
    with pytest.raises(ConstructionError, match="q % 8 == 7"):
        build_strong_skolem(7)
    with pytest.raises(ConstructionError, match="q % 8 == 5"):
        build_strong_skolem(13)
    with pytest.raises(ConstructionError, match="q % 8 == 3"):
        build_strong_skolem(17)
    with pytest.raises(ConstructionError, match="not prime"):
        build_strong_skolem(27)
    with pytest.raises(ConstructionError, match="odd"):
        build_strong_skolem(12)
    with pytest.raises(ConstructionError, match="beta choice"):
        build_strong_skolem(11, "three")
    with pytest.raises(ConstructionError, match="sum to zero"):
        build_strong_starter(11, 10)
    with pytest.raises(ConstructionError, match="quadratic residue"):
        build_strong_starter(19, 4)


def test_strong_starter_fixture():
    assert build_strong_starter(11, 6).pairs == S_HALF[11]
    assert build_strong_starter(11, -5).pairs == S_HALF[11]


def test_construction_primes():
    assert construction_primes(100) == [3, 11, 19, 43, 59, 67, 83]
    assert construction_primes(2) == []
    for q in construction_primes(1000):
        assert q % 8 == 3


def test_enumerate_strong_skolem():
    items = list(enumerate_strong_skolem(50))
    assert [(q, c.value) for q, c, _ in items] == [
        (3, "2"), (3, "half"), (11, "2"), (11, "half"),
        (19, "2"), (19, "half"), (43, "2"), (43, "half"),
    ]
    assert items[2][2].pairs == S_TWO[11]
    only_half = list(enumerate_strong_skolem(20, choices=("half",)))
    assert [(q, c.value) for q, c, _ in only_half] == [
        (3, "half"), (11, "half"), (19, "half"),
    ]


@pytest.mark.parametrize("choices", ["half", "2", BetaChoice.HALF])
def test_enumerate_strong_skolem_refuses_a_bare_choice(choices):
    # a lone str would be iterated character by character, so "2" would
    # pass as ("2",); the tuple form is the one accepted
    expected = r"choices must be a tuple such as \('2', 'half'\), got "
    with pytest.raises(ConstructionError, match=expected):
        list(enumerate_strong_skolem(20, choices))


def test_half_set_certificate_structure():
    for q in (11, 19, 43, 59):
        for choice in BetaChoice:
            cert = half_set_certificate(q, choice)
            t = (q - 1) // 2
            # the squaring table is the independent route to the class
            table = build_qr_table(q)
            members = table.qr_set if choice is BetaChoice.TWO else table.nqr_set
            assert cert.direct == tuple(d for d in range(1, t + 1) if d in members)
            assert cert.reflected == tuple(d for d in range(1, t + 1) if q - d in members)
            assert cert.t == t
            assert cert.beta == choice.beta(q)
            combined = sorted(cert.direct + cert.reflected)
            assert combined == list(range(1, t + 1))
            assert not set(cert.direct) & set(cert.reflected)
            mapping = cert.difference_pairs()
            assert sorted(mapping) == list(range(1, t + 1))
            for d, (x, y) in mapping.items():
                assert y - x == d


def test_half_set_certificate_rebuilds_starter():
    # The certificate alone reassembles the construction output; this route
    # never touches the generic builder.
    for q in (11, 19, 43, 59, 67, 83):
        for choice in BetaChoice:
            assert half_set_certificate(q, choice).pair_set() == build_strong_skolem(
                q, choice
            )
    # the pure route reads each run once, so a run may be any iterable: a
    # frozenset, or an iterator that a second read would find empty
    cert = half_set_certificate(11)
    for other in (
        dataclasses.replace(cert, reflected=frozenset(cert.reflected)),
        dataclasses.replace(cert, direct=iter(cert.direct)),
    ):
        assert other.pair_set() == build_strong_skolem(11)


def test_incomplete_certificate_raises():
    # every view of a certificate goes through the partition check, so a
    # certificate that misses a difference or holds one twice is refused
    cert = half_set_certificate(11)
    dropped = dataclasses.replace(cert, direct=cert.direct[:-1])
    doubled = dataclasses.replace(cert, reflected=cert.reflected + cert.direct[:1])
    for bad in (dropped, doubled):
        with pytest.raises(ValueError, match="does not partition 1..10"):
            bad.pair_set()
        with pytest.raises(ValueError, match="does not partition 1..10"):
            bad.difference_pairs()
    # an entry outside 1..t, or not an int, is named before any indexing:
    # 6 used to raise IndexError, 5.0 TypeError, and -1 wrapped round to
    # the slot of difference t
    for entry in (6, 5.0, -1):
        bad = dataclasses.replace(cert, direct=(1, 3, 4, entry))
        message = re.escape(f"certificate entry {entry!r} is not an int in 1..5")
        with pytest.raises(ValueError, match=message):
            bad.pair_set()
        with pytest.raises(ValueError, match=message):
            bad.difference_pairs()


def test_certificate_with_a_bad_modulus_raises():
    # q gets the shape check PairSet runs before any entry is read: these
    # used to fail on an empty min(), the partition check or int-to-text
    cert = half_set_certificate(11)
    for q, error, message in (
        (1, ValueError, "modulus must be >= 3, got 1"),
        (True, TypeError, "modulus must be an int, got True"),
        (11.0, TypeError, "modulus must be an int, got 11.0"),
        (10**5000, ValueError, "modulus must be odd, got <int of 16610 bits>"),
    ):
        bad = dataclasses.replace(cert, q=q)
        with pytest.raises(error, match=re.escape(message)):
            bad.pair_set()
        with pytest.raises(error, match=re.escape(message)):
            bad.difference_pairs()


def test_construction_output_is_a_checked_partition(monkeypatch):
    # with a residue missing, S_beta misses two elements of 1..q-1; the
    # construction refuses it instead of returning the shorter set: the
    # folding builders where _fold folds, the general loop where its pairs
    # are checked.  The pure route: the compiled fold never calls _squares
    monkeypatch.setattr(skolem.search, "_fastsearch", None)
    squares = skolem.construction._squares
    monkeypatch.setattr(
        skolem.construction, "_squares", lambda q: squares(q) - {max(squares(q))}
    )
    with pytest.raises(ArithmeticError, match=r"^the squares mod 11 do not fold into a partition of 1\.\.5$"):
        build_strong_skolem(11)
    with pytest.raises(ValueError, match=r"does not partition 1\.\.10"):
        build_strong_starter(11, 2)
    with pytest.raises(ArithmeticError, match=r"^the squares mod 3 do not fold into a partition of 1\.\.1$"):
        next(enumerate_strong_skolem(20))


def test_half_set_certificate_rejections():
    with pytest.raises(ConstructionError, match="q % 8 == 7"):
        half_set_certificate(7)
    with pytest.raises(ConstructionError, match="not prime"):
        half_set_certificate(27)


def test_pairs_are_doubling_pairs():
    # Every pair of S_beta is {y, 2y mod q} for y in one residuosity class.
    for q in (11, 19, 43):
        table = build_qr_table(q)
        for choice, members in (
            (BetaChoice.TWO, table.qr_set),
            (BetaChoice.HALF, table.nqr_set),
        ):
            for x, y in build_strong_skolem(q, choice):
                assert (x in members and 2 * x % q == y) or (
                    y in members and 2 * y % q == x
                ), (q, choice, x, y)


def test_every_route_to_the_paper_starters_agrees():
    # the folding (build, certificate, enumeration) against the general
    # {x, beta * x} loop of build_strong_starter, for every q <= 1500
    enumerated = {(q, c): ps for q, c, ps in enumerate_strong_skolem(1500)}
    assert len(enumerated) == 120
    for q in construction_primes(1500):
        for choice in BetaChoice:
            pairs = build_strong_starter(q, choice.beta(q)).pairs
            assert all(type(el) is int for pair in pairs for el in pair)
            for ps in (
                build_strong_skolem(q, choice),
                half_set_certificate(q, choice).pair_set(),
                enumerated[q, choice],
            ):
                assert ps.pairs == pairs, (q, choice)
                assert all(type(el) is int for pair in ps.pairs for el in pair)


def test_compiled_construction_output_is_a_checked_partition(fastsearch, monkeypatch):
    # the compiled fold with its largest residue missing: the compiled
    # layout refuses the shorter folding and the pure route names it
    def short_fold(q):
        low, high = fastsearch.fold(q)
        return (low, high[1:]) if high else (low[:-1], high)

    monkeypatch.setattr(skolem.search, "_fastsearch", types.SimpleNamespace(
        fold=short_fold, skolem_pairs=fastsearch.skolem_pairs))
    with pytest.raises(ValueError, match=r"does not partition 1\.\.10"):
        build_strong_skolem(11)
    with pytest.raises(ValueError, match=r"does not partition 1\.\.2"):
        next(enumerate_strong_skolem(20))


@pytest.mark.parametrize(
    "low, high",
    [
        ((1, 3, 4), (2,)),  # 5 missing
        ((1, 3, 4, 4), (2,)),  # 4 twice, 5 missing
        ((1, 3, 4, 5), (2, 2)),  # one entry too many
        ((0, 3, 4, 5), (2,)),
        ((1, 3, 4, 6), (2,)),  # t + 1
        ((1, 3, 4, 2**70), (2,)),
    ],
)
def test_both_routes_refuse_a_folding_that_is_no_partition(fastsearch, monkeypatch, low, high):
    # a prime q never folds so, and _fold refuses any q that does (see
    # test_compiled_and_pure_routes_agree); laid out as either choice
    # would, such runs are refused with the same ValueError on both routes
    for direct, reflected in ((low, high), (high, low)):
        compiled, pure = _routes(
            monkeypatch, fastsearch, lambda: skolem.construction._skolem_pairs(11, direct, reflected).pairs)
        assert compiled == pure and pure[0] is ValueError, (direct, reflected)


def test_residues_are_squared_once_per_call(monkeypatch):
    # the pure route: the compiled fold never calls _squares
    monkeypatch.setattr(skolem.search, "_fastsearch", None)
    calls = []
    squares = skolem.construction._squares

    def counting(q):
        calls.append(q)
        return squares(q)

    monkeypatch.setattr(skolem.construction, "_squares", counting)
    for q in (3, 11, 1499):
        for choice in BetaChoice:
            for build in (build_strong_skolem, half_set_certificate):
                calls.clear()
                build(q, choice)
                assert calls == [q], (build, q, choice)
        calls.clear()
        build_strong_starter(q, 2)
        assert calls == [q]
    cert = half_set_certificate(1499)
    calls.clear()
    cert.pair_set()
    assert calls == []
    # the enumeration folds once per q for both choices
    calls.clear()
    assert len(list(enumerate_strong_skolem(1500))) == 120
    assert calls == construction_primes(1500)


def test_compiled_fold_runs_once_per_call(fastsearch, monkeypatch):
    calls = []

    def counting(q):
        calls.append(q)
        return fastsearch.fold(q)

    monkeypatch.setattr(skolem.search, "_fastsearch", types.SimpleNamespace(
        fold=counting, skolem_pairs=fastsearch.skolem_pairs))
    for q in (3, 11, 1499):
        for choice in BetaChoice:
            for build in (build_strong_skolem, half_set_certificate):
                calls.clear()
                build(q, choice)
                assert calls == [q], (build, q, choice)
    cert = half_set_certificate(1499)
    calls.clear()
    cert.pair_set()
    assert calls == []
    calls.clear()
    assert len(list(enumerate_strong_skolem(1500))) == 120
    assert calls == construction_primes(1500)


def _routes(monkeypatch, fastsearch, build):
    """build() on the compiled and on the pure route: the tuples of ints it
    returns with their element types, or the exception's type and message."""
    out = []
    for kernel in (fastsearch, None):
        monkeypatch.setattr(skolem.search, "_fastsearch", kernel)
        try:
            pairs = build()
        except (ArithmeticError, TypeError, ValueError) as exc:
            out.append((type(exc), str(exc)))
        else:
            out.append((pairs, [type(el) for pair in pairs for el in pair]))
    return out


def test_compiled_and_pure_routes_agree(fastsearch, monkeypatch):
    construction = skolem.construction
    # the fold of every odd q, composites (whose squares may include 0) too:
    # the same runs, or the same refusal of a folding that is no partition
    refused = []
    for q in range(3, 400, 2):
        compiled, pure = _routes(monkeypatch, fastsearch, lambda: construction._fold(q))
        assert compiled == pure, q
        if pure[0] is ArithmeticError:
            assert pure[1] == f"the squares mod {q} do not fold into a partition of 1..{q // 2}"
            refused.append(q)
    # 3**2 == 0 mod 9, and -1 is a square mod 13, so 4 and 9 are both squares
    assert {9, 13} <= {*refused}
    # a prime q folds exactly when -1 is a non-residue
    assert all(q % 4 == 1 for q in refused if is_prime(q))
    assert all(q in refused for q in range(5, 400, 4) if is_prime(q))
    for q in construction_primes(1500):
        for choice in BetaChoice:
            folded = construction._folded(choice, *construction._fold(q))
            compiled, pure = _routes(
                monkeypatch, fastsearch, lambda: construction._skolem_pairs(q, *folded).pairs)
            assert compiled == pure and pure[1] == [int] * (q - 1), (q, choice)
    # one large q through each builder; the enumeration is cut to it
    q = 100_003
    primes = construction.construction_primes
    monkeypatch.setattr(construction, "construction_primes",
                        lambda q_max: [p for p in primes(q_max) if p == q])
    for choice in BetaChoice:
        for build in (
            lambda: build_strong_skolem(q, choice).pairs,
            lambda: half_set_certificate(q, choice).pair_set().pairs,
            lambda: next(ps.pairs for _, c, ps in enumerate_strong_skolem(q) if c is choice),
        ):
            compiled, pure = _routes(monkeypatch, fastsearch, build)
            assert compiled == pure and pure[1] == [int] * (q - 1), choice


def test_compiled_construction_tuples_stay_out_of_the_cyclic_gc(fastsearch, no_collection):
    q = 1499
    runs = fastsearch.fold(q)
    pairs = fastsearch.skolem_pairs(q, *runs)
    starter = build_strong_skolem(q).pairs
    for tuples in ((runs, *runs), (pairs, *pairs), (starter, *starter)):
        assert not any(map(gc.is_tracked, tuples))


@pytest.mark.parametrize("q", [1499, 65539])
def test_compiled_starters_share_one_int_per_value(fastsearch, q):
    # the compiled module hands out one int per value below 2**16, for
    # every starter it lays out; the values past it are fresh ints
    starters = (build_strong_skolem(q, "2"), build_strong_skolem(q, "half"),
                half_set_certificate(q).pair_set())
    first = {}
    for ps in starters:
        for el in (el for pair in ps.pairs for el in pair if el < 2**16):
            assert first.setdefault(el, el) is el, (q, el)
    assert len(first) == min(q - 1, 2**16 - 1)


def test_both_routes_agree_past_the_shared_ints(fastsearch, monkeypatch):
    # q = 65539 = 2**16 + 3 is prime and 3 mod 8: its elements 65536..65538
    # are past the compiled module's shared ints
    q = 65539
    assert is_prime(q) and q % 8 == 3
    for choice in BetaChoice:
        compiled, pure = _routes(
            monkeypatch, fastsearch, lambda: build_strong_skolem(q, choice).pairs)
        assert compiled == pure and pure[1] == [int] * (q - 1), choice
        for kernel in (fastsearch, None):
            monkeypatch.setattr(skolem.search, "_fastsearch", kernel)
            assert full_report(build_strong_skolem(q, choice)).verdicts == (True, True, True)


class _Three(enum.IntEnum):
    THREE = 3


@pytest.mark.parametrize(
    "direct, reflected",
    [
        ((4, 1, 3, 5), (2,)),  # unsorted: the same starter
        ([1, 3, 4, 5], [2]),  # lists
        ((1, 3, 4, 5), (2, 2)),  # a duplicated entry
        ((1, 3, 3, 4, 5), ()),
        ((0, 1, 3, 4, 5), ()),
        ((1, 3, 4, 6), (2,)),  # t + 1
        ((1, True, 4, 5), (3,)),
        ((1, 3, 4, 5.0), (2,)),
        ((1, _Three.THREE, 4, 5), (2,)),  # an int subclass passes, as before
    ],
)
def test_both_routes_refuse_a_certificate_alike(fastsearch, monkeypatch, direct, reflected):
    cert = dataclasses.replace(half_set_certificate(11), direct=direct, reflected=reflected)
    compiled, pure = _routes(monkeypatch, fastsearch, lambda: cert.pair_set().pairs)
    assert compiled == pure


@pytest.mark.parametrize("q, direct, reflected, d", [
    (13, (1, 3, 4), (4, 3, 1), 4),
    (5, (1,), (1,), 1),
])
def test_both_routes_refuse_a_certificate_that_repeats_a_difference(
        fastsearch, monkeypatch, q, direct, reflected, d):
    # the pairs partition 1..q-1, so only the repeated difference, and the
    # one it leaves out, tell that this is no Skolem starter
    cert = HalfSetCertificate(q=q, beta=2, direct=direct, reflected=reflected)
    refusal = (ValueError, f"certificate realises difference {d} more than once")
    for view in (lambda: cert.pair_set().pairs, lambda: tuple(cert.difference_pairs())):
        assert _routes(monkeypatch, fastsearch, view) == [refusal, refusal]


def test_half_set_certificate_is_the_folding_of_its_class(fastsearch, monkeypatch):
    # on both routes, for every q <= 1500, against the class read off a
    # squaring of all of 1..q-1
    for q in construction_primes(1500):
        t = (q - 1) // 2
        residues = {x * x % q for x in range(1, q)}
        for choice in BetaChoice:
            members = residues if choice is BetaChoice.TWO else {*range(1, q)} - residues
            expected = HalfSetCertificate(
                q=q,
                beta=choice.beta(q),
                direct=tuple(d for d in range(1, t + 1) if d in members),
                reflected=tuple(d for d in range(1, t + 1) if q - d in members),
            )
            for kernel in (fastsearch, None):
                monkeypatch.setattr(skolem.search, "_fastsearch", kernel)
                assert half_set_certificate(q, choice) == expected, (q, choice, kernel)


@pytest.mark.parametrize("q", [1, 2, -5, 2**31 + 1, 11.0])
def test_compiled_construction_refuses_a_bad_modulus(fastsearch, q):
    with pytest.raises((TypeError, ValueError)):
        fastsearch.fold(q)
    with pytest.raises((TypeError, ValueError)):
        fastsearch.skolem_pairs(q, (1,), ())

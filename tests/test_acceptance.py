"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; each
criterion prints PASS or FAIL plus its wall time, and the stated time
budgets are asserted, not just reported.
"""

import random
import time

from skolem import (
    BetaChoice,
    SearchConfig,
    build_qr_table,
    build_strong_skolem,
    build_strong_starter,
    construction_primes,
    enumerate_strong_skolem,
    full_report,
    is_prime,
    smallest_qr_generator,
    search_skolem_starters,
    skolem_admissible,
    PairSet,
)

from _fixtures import (
    FIRST_STRONG_WITNESS,
    NQR_SETS,
    QR_SETS,
    S_HALF,
    S_TWO,
    STARTER_COUNTS,
)
from _naive import (
    cycle_qr_generators,
    generator_starter,
    jacobi,
    naive_verdicts,
    perturb_partition,
    primes_in,
    random_pair_partition,
)


def _criterion(name, body, budget=None):
    start = time.perf_counter()
    ok = False
    try:
        body()
        elapsed = time.perf_counter() - start
        if budget is not None:
            assert elapsed < budget, f"{elapsed:.3f}s exceeds the {budget}s budget"
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        print(f"\n{'PASS' if ok else 'FAIL'}  {name} ({elapsed * 1000:.1f} ms)")


def _best_of(runs, fn):
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_fixed_starter_z11():
    def body():
        build_strong_skolem(11, BetaChoice.HALF)  # warm caches
        best = _best_of(
            5, lambda: build_strong_skolem(11, BetaChoice.HALF)
        )
        ps = build_strong_skolem(11, BetaChoice.HALF)
        assert ps.pairs == ((1, 6), (2, 4), (3, 7), (5, 8), (9, 10))
        assert best < 0.001, f"build took {best * 1000:.3f} ms, budget 1 ms"

    _criterion("criterion 1: fixed Z_11 starter, under 1 ms", body)


def test_criterion_2_reference_tables():
    def check():
        for q in (11, 19, 43):
            table = build_qr_table(q)
            assert table.qr_set == QR_SETS[q], q
            assert table.nqr_set == NQR_SETS[q], q
            assert build_strong_skolem(q, "2").pairs == S_TWO[q], q
            assert build_strong_skolem(q, "half").pairs == S_HALF[q], q

    def body():
        check()  # warm
        best = _best_of(3, check)
        assert best < 0.010, f"tables took {best * 1000:.2f} ms, budget 10 ms"

    _criterion("criterion 2: six reference tables, under 10 ms", body)


def test_criterion_3_sweep_to_1500():
    def body():
        count = 0
        for q, choice, ps in enumerate_strong_skolem(1500):
            assert all(full_report(ps).verdicts), (q, choice)
            count += 1
        # both beta choices for every prime q == 3 (mod 8) up to 1500
        assert count == 2 * len(construction_primes(1500))
        assert count >= 2 * 30

    _criterion("criterion 3: verified sweep q <= 1500, both betas", body, budget=10.0)


def test_criterion_4_every_generator():
    def body():
        for q in construction_primes(500):
            gens = cycle_qr_generators(q)
            assert smallest_qr_generator(q) == gens[0], q
            for choice in BetaChoice:
                reference = build_strong_skolem(q, choice)
                assert all(full_report(reference).verdicts), (q, choice)
                for alpha in gens:
                    assert (
                        generator_starter(q, alpha, choice.beta(q)) == reference.pairs
                    ), (q, choice, alpha)

    _criterion("criterion 4: generator independence, q <= 500", body, budget=60.0)


def test_criterion_5_every_valid_beta():
    def body():
        primes = [q for q in range(3, 501) if is_prime(q) and q % 4 == 3]
        assert len(primes) >= 40
        for q in primes:
            table = build_qr_table(q)
            for beta in sorted(table.nqr_set):
                if beta == q - 1:
                    continue
                ps = build_strong_starter(q, beta)
                report = full_report(ps)
                assert report.is_starter and report.is_strong, (q, beta)

    _criterion(
        "criterion 5: strong starter for every non-residue beta, q <= 500",
        body,
        budget=60.0,
    )


def test_criterion_6_number_theory_suite():
    def body():
        primes = primes_in(0, 1001)
        for n in range(0, 1001):
            assert is_prime(n) == (n in primes), n
        for q in range(3, 1001, 2):
            if not is_prime(q):
                continue
            table = build_qr_table(q)
            h = (q - 1) // 2
            assert len(table.qr_set) == len(table.nqr_set) == h, q
            assert table.qr_set | table.nqr_set == set(range(1, q)), q
            # the supplementary laws for -1 and 2
            assert (q - 1 in table.qr_set) == (q % 4 == 1), q
            assert (2 in table.qr_set) == (q % 8 in (1, 7)), q
            for x in range(1, q):
                expected = jacobi(x, q) == 1
                assert (x in table.qr_set) == expected, (q, x)
            g = table.smallest_qr_generator
            assert {pow(g, i, q) for i in range(1, h + 1)} == table.qr_set, q

    _criterion("criterion 6: number theory suite, primes <= 1000", body, budget=5.0)


def test_criterion_7_cross_validation():
    def body():
        for q in (11, 19):
            built = [build_strong_skolem(q, choice) for choice in BetaChoice]
            for ps in built:
                assert full_report(ps).verdicts == (True, True, True), q
            result = search_skolem_starters(SearchConfig(n=q, mode="enumerate"))
            enumerated = {ps.pairs for ps in result.witnesses}
            # Z_11 has no strong Skolem starter but the two constructed ones
            expected = {ps.pairs for ps in built}
            assert expected == enumerated if q == 11 else expected < enumerated, q
            assert result.count == STARTER_COUNTS[(q, True)], q
        seq = search_skolem_starters(SearchConfig(n=19, mode="enumerate"))
        par = search_skolem_starters(SearchConfig(n=19, mode="enumerate", workers=2))
        assert seq.count == par.count == STARTER_COUNTS[(19, True)]
        assert seq.nodes_explored == par.nodes_explored
        assert [p.pairs for p in seq.witnesses] == [p.pairs for p in par.witnesses]

    _criterion(
        "criterion 7: construction vs exhaustive search, n = 11 and 19",
        body,
        budget=180.0,
    )


def test_criterion_8_no_strong_starter_for_n9():
    def body():
        strong = search_skolem_starters(SearchConfig(n=9))
        assert strong.complete and strong.count == 0
        plain = search_skolem_starters(SearchConfig(n=9, require_strong=False))
        assert plain.complete and plain.count == 6

    _criterion("criterion 8: exact n = 9 counts (0 strong, 6 plain)", body, budget=180.0)


def test_criterion_9_verifier_equivalence():
    # Seed starters guarantee every n sees true verdicts; perturbations of
    # them sample the near-starter region where the checks actually bite,
    # uniform partitions cover everything else.
    seeds = {
        11: S_HALF[11],
        19: S_TWO[19],
        27: tuple(
            (x, x + d) for d, x in enumerate(FIRST_STRONG_WITNESS[27], start=1)
        ),
    }

    def body():
        rng = random.Random(20250819)
        for n in (11, 19, 27):
            seed = [tuple(p) for p in seeds[n]]
            starters_seen = 0
            for i in range(1000):
                if i % 100 == 0:
                    pairs = list(seed)
                elif i % 3 == 0:
                    pairs = perturb_partition(seed, rng, rng.randint(1, 4))
                else:
                    pairs = random_pair_partition(n, rng)
                report = full_report(PairSet(n, pairs))
                got = (
                    report.is_starter,
                    report.is_strong,
                    report.is_skolem,
                    report.has_zero_sum,
                )
                assert got == naive_verdicts(n, pairs), (n, pairs)
                starters_seen += report.is_starter
            assert starters_seen >= 10, n

    _criterion(
        "criterion 9: verifier equals naive reference, 1000 random sets each",
        body,
        budget=180.0,
    )


def test_criterion_10_strong_skolem_starters_from_11_to_57():
    # the abstract's range: Shalaby's strong Skolem starters of Z_n for
    # 11 <= n <= 57, each n == 1 or 3 (mod 8); the search finds one for
    # every such n, and none for n = 9, the only smaller admissible n > 3
    def body():
        orders = [n for n in range(9, 58) if skolem_admissible(n)]
        assert orders == [9, 11, 17, 19, 25, 27, 33, 35, 41, 43, 49, 51, 57]
        for n in orders:
            result = search_skolem_starters(SearchConfig(n=n, mode="first", force=True))
            if n == 9:
                assert result.complete and result.count == 0 and not result.witnesses
                continue
            (ps,) = result.witnesses
            assert full_report(ps).verdicts == (True, True, True), n

    _criterion(
        "criterion 10: a strong Skolem starter for every admissible 11 <= n <= 57",
        body,
        budget=10.0,
    )

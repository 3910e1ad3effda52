import json
import random
import subprocess
import sys
from enum import IntEnum
from itertools import product

import pytest

from skolem import (
    ConstructionError,
    HalfSetCertificate,
    PairSet,
    SearchConfig,
    build_strong_skolem,
    build_strong_starter,
    construction_primes,
    full_report,
    half_set_certificate,
    is_prime,
    iter_pair_sets_text,
    pair_set_from_obj,
    pair_set_to_obj,
    pair_set_to_text,
    parse_pair_set_text,
    search_skolem_starters,
    skolem_admissible,
)
import skolem.search
import skolem.starters
from skolem.cli import _construct
from skolem.residues import _quote

from _fixtures import (
    NON_STARTER_PARTITION_11,
    S_HALF,
    S_TWO,
    STARTER_NOT_SKOLEM_11,
)
from _naive import (
    element_driven_starters,
    naive_pair_set,
    naive_verdicts,
    perturb_partition,
    random_pair_partition,
)
from conftest import child_env


def test_skolem_admissible_rule():
    for n in range(0, 60):
        expected = n >= 3 and n % 2 == 1 and n % 8 in (1, 3)
        assert skolem_admissible(n) == expected, n


def test_pair_set_canonicalisation():
    a = PairSet(11, [(10, 9), (4, 2), (6, 1), (8, 5), (7, 3)])
    b = PairSet(11, S_HALF[11])
    assert a == b
    assert hash(a) == hash(b)
    assert a.pairs == S_HALF[11]
    assert len(a) == 5
    assert list(a) == list(S_HALF[11])
    assert (6, 1) in a and (1, 6) in a and (1, 7) not in a


def test_pair_set_holds_its_pairs_in_either_order_and_nothing_else():
    ps = PairSet(11, S_HALF[11])
    for x, y in S_HALF[11]:
        assert (x, y) in ps and (y, x) in ps and [x, y] in ps
    assert (1, 7) not in ps and (1, 1) not in ps
    # not a pair, or not a pair of comparable elements: False, as in a set
    for probe in (5, None, (1, 6, 2), (1,), (), "ab", (1, "a"), ("a", 1), iter((6,))):
        assert probe not in ps, probe


def test_pair_set_properties():
    ps = PairSet(11, S_HALF[11])
    assert ps.t == 5
    assert ps.elements == frozenset(range(1, 11))
    assert ps.sums() == (7, 6, 10, 2, 8)
    assert ps.difference_classes() == (5, 2, 4, 3, 1)
    assert ps.integer_differences() == (5, 2, 4, 3, 1)


def test_pair_set_rejects_bad_input():
    with pytest.raises(ValueError, match="odd"):
        PairSet(10, [(1, 2)])
    with pytest.raises(ValueError, match=">= 3"):
        PairSet(1, [])
    with pytest.raises(ValueError, match="outside 1..10"):
        PairSet(11, [(0, 3)])
    with pytest.raises(ValueError, match="outside 1..10"):
        PairSet(11, [(1, 11)])
    with pytest.raises(ValueError, match="repeats an element"):
        PairSet(11, [(4, 4)])
    with pytest.raises(ValueError, match="more than one pair"):
        PairSet(11, [(1, 2), (2, 3)])
    with pytest.raises(ValueError, match="exactly two"):
        PairSet(11, [(1, 2, 3)])
    with pytest.raises(TypeError, match="not an int"):
        PairSet(11, [(1, 2.0)])
    with pytest.raises(TypeError, match="not an int"):
        PairSet(11, [(1, True)])


# An int subclass: PairSet accepts its members like plain ints.
_Element = IntEnum("_Element", [(f"E{k}", k) for k in range(1, 42)])


def _raising_source(*pairs):
    yield from pairs
    raise RuntimeError("pair source failed")


@pytest.mark.parametrize(
    "pairs, exc, message",
    [
        # the first faulty pair in input order is the one reported
        ([(1, 1), 5], ValueError, "pair (1, 1) repeats an element"),
        ([5, (1, 1)], TypeError, "'int' object is not iterable"),
        ([(1, 2, 3), (0, 4)], ValueError, "pair (1, 2, 3) does not have exactly two elements"),
        ([(0, 4), [1, 2, 3]], ValueError, "element 0 outside 1..10"),
        ([(1, 2), (3, 1), (4, 4)], ValueError, "element 1 appears in more than one pair"),
        ([(2, 3), (4, 4), (3, 5)], ValueError, "pair (4, 4) repeats an element"),
        ([(2, 3), (True, 4)], TypeError, "pair element True is not an int"),
        ([(1, 2), "ab"], TypeError, "pair element 'a' is not an int"),
        ([(1, 2), None], TypeError, "'NoneType' object is not iterable"),
        (7, TypeError, "'int' object is not iterable"),
        # a source that fails after a faulty pair still names the pair
        (_raising_source((1, 2), (0, 3)), ValueError, "element 0 outside 1..10"),
        (_raising_source((1, 2)), RuntimeError, "pair source failed"),
        # outside input is quoted cut to its first 80 characters
        (
            [tuple(range(100_000))],
            ValueError,
            f"pair {repr(tuple(range(100_000)))[:80]}… does not have exactly two elements",
        ),
        ([("x" * 1000, 1)], TypeError, f"pair element '{'x' * 79}… is not an int"),
    ],
)
def test_pair_set_names_the_first_fault(pairs, exc, message):
    with pytest.raises(exc) as info:
        PairSet(11, pairs)
    assert type(info.value) is exc
    assert str(info.value) == message


def test_pair_set_accepts_int_subclasses():
    ps = PairSet(11, [(_Element(7), _Element(3)), [2, _Element(9)]])
    assert ps.pairs == ((2, 9), (3, 7))
    assert [type(el) for pair in ps.pairs for el in pair] == [
        int, _Element, _Element, _Element,
    ]
    assert ps == PairSet(11, [(3, 7), (2, 9)])
    assert hash(ps) == hash(PairSet(11, [(3, 7), (2, 9)]))


_FAULTS = (
    "zero", "n", "self", "cross", "short", "long", "float", "bool",
    "enum", "list", "str", "none", "int",
)


def _with_fault(kind, n, pair, other):
    # pair (x, y) replaced by a variant; "enum" and "list" stay well-formed
    x, y = pair
    return {
        "zero": (0, y),
        "n": (x, n),
        "self": (x, x),
        "cross": (x, other),
        "short": (x,),
        "long": (x, y, other),
        "float": (float(x), y),
        "bool": (True, y),
        "enum": (_Element(x), _Element(y)),
        "list": [y, x],
        "str": "ab",
        "none": None,
        "int": x,
    }[kind]


def _pair_lists():
    """Every (n, pairs) of the pair-list grid: for n in 3, 5, 11 and 41,
    the elements 1..n-1 ascending, descending and in one seeded shuffle,
    paired off in turn; of those pairs all, the first alone or all but the
    last; and in them no fault, each fault kind at each position, or each
    ordered pair of kinds at the first and last positions."""
    for n in (3, 5, 11, 41):
        elements = list(range(1, n))
        for order in (elements, elements[::-1], random.Random(n).sample(elements, n - 1)):
            pairs = [(order[i], order[i + 1]) for i in range(0, n - 1, 2)]
            for base in (pairs, pairs[:1], pairs[:-1]):

                def fault(kind, i):
                    return _with_fault(kind, n, base[i], base[(i + 1) % len(base)][0])

                yield n, base
                for i, kind in product(range(len(base)), _FAULTS):
                    yield n, [*base[:i], fault(kind, i), *base[i + 1 :]]
                if len(base) > 1:
                    for first, last in product(_FAULTS, repeat=2):
                        yield n, [fault(first, 0), *base[1:-1], fault(last, -1)]


def test_pair_set_matches_the_naive_walk():
    for n, pairs in _pair_lists():
        try:
            expected = naive_pair_set(n, pairs)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)) as info:
                PairSet(n, pairs)
            assert type(info.value) is type(exc), (n, pairs)
            assert str(info.value) == str(exc), (n, pairs)
        else:
            got = PairSet(n, pairs).pairs
            assert got == expected, (n, pairs)
            assert [type(el) for p in got for el in p] == [
                type(el) for p in expected for el in p
            ], (n, pairs)


@pytest.mark.parametrize(
    "n, exc, message",
    [
        (4, ValueError, "modulus must be odd, got 4"),
        (1, ValueError, "modulus must be >= 3, got 1"),
        (True, TypeError, "modulus must be an int, got True"),
        (2**31 + 1, ValueError, "modulus 2147483649 exceeds the supported cap 2**31 - 1"),
        ("11", TypeError, "modulus must be an int, got '11'"),
    ],
)
def test_pair_set_rejects_bad_modulus(n, exc, message):
    with pytest.raises(exc) as info:
        PairSet(n, [])
    assert type(info.value) is exc
    assert str(info.value) == message


def test_translation_moves_out_of_range():
    # Starters are anchored at 0: translating a starter by +1 sends one
    # element to 0 mod n, so the shifted copy is not even well-formed.
    original = PairSet(11, S_HALF[11])
    assert all(full_report(original).verdicts)
    shifted = [((x + 1) % 11, (y + 1) % 11) for x, y in original.pairs]
    with pytest.raises(ValueError, match="outside 1..10"):
        PairSet(11, shifted)


def test_verify_starter_fixtures():
    for table in (S_TWO, S_HALF):
        for n, pairs in table.items():
            assert full_report(PairSet(n, pairs)).is_starter, (n, pairs)
    report = full_report(PairSet(11, NON_STARTER_PARTITION_11))
    assert not report.is_starter
    assert "difference class" in report.starter_witness
    assert "(1, 7)" in report.starter_witness and "(3, 8)" in report.starter_witness


def test_verify_starter_uncovered():
    report = full_report(PairSet(11, [(1, 6), (2, 4)]))
    assert not report.is_starter
    assert "uncovered elements" in report.starter_witness
    assert "3" in report.starter_witness


def test_verify_strong():
    assert full_report(PairSet(11, S_TWO[11])).is_strong
    report = full_report(PairSet(11, STARTER_NOT_SKOLEM_11))
    assert not report.is_strong
    assert "share the sum 0" in report.strong_witness


def test_verify_skolem():
    assert full_report(PairSet(11, S_HALF[11])).is_skolem
    report = full_report(PairSet(11, STARTER_NOT_SKOLEM_11))
    assert not report.is_skolem
    assert "integer differences" in report.skolem_witness


# Inputs with two or more collisions; the walk in canonical pair order
# names the first pair whose class or sum repeats an earlier one.
_NON_STARTER_13 = ((1, 12), (2, 5), (3, 6), (4, 10), (7, 9), (8, 11))
_NON_STARTER_19 = (
    (1, 2), (3, 12), (4, 13), (5, 14), (6, 9), (7, 15), (8, 18), (10, 17),
    (11, 16),
)
_STARTER_19 = (
    (1, 2), (3, 6), (4, 18), (5, 12), (7, 17), (8, 16), (9, 15), (10, 14),
    (11, 13),
)


@pytest.mark.parametrize(
    "n, pairs, field, witness",
    [
        (13, _NON_STARTER_13, "starter_witness",
         "pairs (2, 5) and (3, 6) share the difference class +-3 (mod 13)"),
        (19, _NON_STARTER_19, "starter_witness",
         "pairs (3, 12) and (4, 13) share the difference class +-9 (mod 19)"),
        (27, ((1, 2), (3, 5), (4, 26)), "starter_witness",
         "uncovered elements: 6, 7, 8, 9, 10, 11, 12, 13, ... (20 total)"),
        (19, _STARTER_19, "strong_witness",
         "pairs (1, 2) and (4, 18) share the sum 3 (mod 19)"),
        (19, _STARTER_19, "skolem_witness",
         "integer differences {1, 2, 3, 4, 6, 7, 8, 10, ... (9 total)} "
         "differ from {1, ..., 9}"),
        (11, STARTER_NOT_SKOLEM_11, "starter_witness", None),
        (11, STARTER_NOT_SKOLEM_11, "strong_witness",
         "pairs (1, 10) and (2, 9) share the sum 0 (mod 11)"),
        (11, STARTER_NOT_SKOLEM_11, "skolem_witness",
         "integer differences {1, 3, 5, 7, 9} differ from {1, ..., 5}"),
        (11, NON_STARTER_PARTITION_11, "starter_witness",
         "pairs (1, 7) and (3, 8) share the difference class +-5 (mod 11)"),
        (11, NON_STARTER_PARTITION_11, "strong_witness", "not a starter"),
        (11, NON_STARTER_PARTITION_11, "skolem_witness", "not a starter"),
    ],
)
def test_witnesses_name_the_first_collision(fastsearch, monkeypatch, n, pairs, field, witness):
    # the pairs go in reversed, so only the canonical order can pick them
    ps = PairSet(n, [(y, x) for x, y in reversed(pairs)])
    for kernel in (fastsearch, None):
        monkeypatch.setattr(skolem.search, "_fastsearch", kernel)
        assert getattr(full_report(ps), field) == witness


def test_full_report_verdict_matrix():
    good = full_report(PairSet(11, S_HALF[11]))
    assert good.verdicts == (True, True, True)
    assert good.starter_witness is None
    assert not good.has_zero_sum

    patterned = full_report(PairSet(11, STARTER_NOT_SKOLEM_11))
    assert patterned.verdicts == (True, False, False)
    assert patterned.has_zero_sum
    assert PairSet(11, STARTER_NOT_SKOLEM_11).sums() == (0, 0, 0, 0, 0)

    broken = full_report(PairSet(11, NON_STARTER_PARTITION_11))
    assert broken.verdicts == (False, False, False)
    assert broken.strong_witness == "not a starter"
    assert broken.skolem_witness == "not a starter"


def test_strong_skolem_starter_without_zero_sum_need_not_be_skew():
    # Z_17: Skolem and strong, no sum is 0, yet 8 and 9 = -8 are both sums
    ps = PairSet(17, ((1, 9), (2, 6), (3, 10), (4, 7), (5, 11), (8, 13), (12, 14), (15, 16)))
    report = full_report(ps)
    assert report.verdicts == (True, True, True)
    assert not report.has_zero_sum
    assert ps.sums() == (10, 8, 13, 11, 16, 4, 9, 14)


def test_full_report_verifies_the_starter_once(fastsearch, monkeypatch):
    calls = []

    check = skolem.starters._starter_witness

    def counting(ps, skolem):
        calls.append(ps)
        return check(ps, skolem)

    monkeypatch.setattr(skolem.starters, "_starter_witness", counting)
    # the pure route verifies each set once; on the compiled route a strong
    # Skolem starter is decided by the compiled pass, with no witness
    for kernel, expected in ((None, (1, 1, 1)), (fastsearch, (0, 1, 1))):
        monkeypatch.setattr(skolem.search, "_fastsearch", kernel)
        for pairs, count in zip(
            (S_HALF[11], STARTER_NOT_SKOLEM_11, NON_STARTER_PARTITION_11), expected
        ):
            calls.clear()
            full_report(PairSet(11, pairs))
            assert len(calls) == count, (kernel, pairs)


def test_a_sparse_set_with_a_huge_n_names_its_uncovered_elements():
    # the first 8 uncovered elements come from a short scan and the total
    # from the pair count, so nothing of size n is built: a set of 1..n-1
    # (about 100 GB) would fail in the child's 2 GiB of address space
    code = (
        "import resource, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))\n"
        "from skolem import PairSet, full_report\n"
        "start = time.perf_counter()\n"
        "report = full_report(PairSet(2**31 - 1, [(2, 1)]))\n"
        "print(time.perf_counter() - start)\n"
        "print(report.starter_witness)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=30)
    assert proc.returncode == 0, proc.stderr
    elapsed, witness = proc.stdout.splitlines()
    assert witness == (
        "uncovered elements: 3, 4, 5, 6, 7, 8, 9, 10, ... (2147483644 total)"
    )
    assert float(elapsed) < 0.5


_S11 = S_HALF[11]  # ((1, 6), (2, 4), (3, 7), (5, 8), (9, 10))


@pytest.mark.parametrize(
    "n, pairs",
    [
        (11, _S11[:-1]),
        (11, list(_S11)),
        (11, ([1, 6], *_S11[1:])),
        (11, ((1, 6, 2), *_S11[1:])),
        (11, ((True, 6), *_S11[1:])),
        (11, ((1.0, 6), *_S11[1:])),
        (11, ((_Element(1), 6), *_S11[1:])),
        (11, ((6, 1), *_S11[1:])),
        (11, ((0, 6), *_S11[1:])),
        (11, ((1, 11), *_S11[1:])),
        (11, ((1, 2**70), *_S11[1:])),
        (11, ((1, 6), (2, 6), *_S11[2:])),
        (11, ((1, 1), *_S11[1:])),
        (2**31 - 1, ((1, 2),)),
    ],
    ids=[
        "short", "list", "pair-list", "triple", "bool", "float", "enum", "x>y",
        "zero", "n", "huge", "reused", "x=y", "sparse-huge-n",
    ],
)
def test_compiled_verdicts_refuse_what_they_do_not_read_exactly(fastsearch, n, pairs):
    # _naive_check covers what it does read
    assert fastsearch.skolem_verdicts(n, pairs) is None


@pytest.mark.parametrize("build, verdicts, answer", [
    # Skolem, but the sums of (1, 6) and (8, 10) are both 7
    (lambda: PairSet(11, ((1, 6), (2, 3), (4, 7), (5, 9), (8, 10))), (True, False, True), None),
    (lambda: build_strong_starter(11, 7), (True, True, False), None),
    (lambda: build_strong_skolem(3), (True, True, True), True),  # 1 + 2 == 0 mod 3
    (lambda: build_strong_skolem(11), (True, True, True), False),
], ids=["skolem-not-strong", "strong-not-skolem", "zero-sum", "no-zero-sum"])
def test_compiled_verdicts_answer_only_for_a_strong_skolem_starter(fastsearch, build, verdicts, answer):
    # has_zero_sum, which makes full_report's all-yes report, or None,
    # which leaves the set to the pure lines
    ps = build()
    assert fastsearch.skolem_verdicts(ps.n, ps.pairs) is answer
    report = full_report(ps)
    assert report.verdicts == verdicts
    if answer is not None:
        assert report.has_zero_sum is answer


def test_full_report_lines():
    lines = full_report(PairSet(11, S_HALF[11])).lines()
    assert lines == [
        "starter: yes",
        "strong: yes",
        "skolem: yes",
        "zero sum present: no",
    ]
    lines = full_report(PairSet(11, NON_STARTER_PARTITION_11)).lines()
    assert lines[0].startswith("starter: no (")
    assert lines[1] == "strong: no (not a starter)"


def test_text_round_trip():
    for n, pairs in list(S_TWO.items()) + list(S_HALF.items()):
        ps = PairSet(n, pairs)
        assert parse_pair_set_text(pair_set_to_text(ps)) == ps


def test_text_format_exact():
    assert pair_set_to_text(PairSet(11, S_HALF[11])) == (
        "n=11\n1 6\n2 4\n3 7\n5 8\n9 10\n"
    )


def test_text_parser_tolerates_comments_and_blanks():
    text = """
# leading comment
n=11

1 6   # trailing comment
2 4
3 7
5 8
9 10
"""
    assert parse_pair_set_text(text).pairs == S_HALF[11]


def test_text_parser_multiple_records():
    text = pair_set_to_text(PairSet(11, S_TWO[11])) + "\n" + pair_set_to_text(
        PairSet(19, S_TWO[19])
    )
    sets = list(iter_pair_sets_text(text))
    assert [ps.n for ps in sets] == [11, 19]
    assert sets[0].pairs == S_TWO[11]
    assert sets[1].pairs == S_TWO[19]


def test_text_parser_errors():
    with pytest.raises(ValueError, match="line 1.*before any n="):
        parse_pair_set_text("1 6\n")
    with pytest.raises(ValueError, match="bad header"):
        parse_pair_set_text("n=eleven\n")
    with pytest.raises(ValueError, match="expected 'x y'"):
        parse_pair_set_text("n=11\n1 6 7\n")
    with pytest.raises(ValueError, match="non-integer pair"):
        parse_pair_set_text("n=11\none six\n")
    with pytest.raises(ValueError, match="found 0"):
        parse_pair_set_text("# nothing here\n")
    with pytest.raises(ValueError, match="found 2"):
        parse_pair_set_text("n=11\n1 6\nn=11\n1 6\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("n=1_1\n", "line 1: bad header 'n=1_1'"),
        ("n=+11\n", "line 1: bad header 'n=+11'"),
        ("n=\u0661\u0661\n", "line 1: bad header 'n=\u0661\u0661'"),
        ("n=--11\n", "line 1: bad header 'n=--11'"),
        ("n=11\n1 \u0662\n", "line 2: non-integer pair '1 \u0662'"),
        ("n=11\n1_0 2\n", "line 2: non-integer pair '1_0 2'"),
        ("n=11\n+1 2\n", "line 2: non-integer pair '+1 2'"),
        ("n=11\n1 \uff12\n", "line 2: non-integer pair '1 \uff12'"),
        # one leading minus is a numeral, which PairSet then refuses
        ("n=11\n-1 2\n", "element -1 outside 1..10"),
    ],
)
def test_text_parser_reads_only_the_numerals_it_writes(text, message):
    # int() also takes underscores, a plus sign and non-ASCII digits, so
    # n=1_1 read as n = 11 and '1 \u0662' as the pair (1, 2)
    with pytest.raises(ValueError) as info:
        parse_pair_set_text(text)
    assert str(info.value) == message


def test_text_parser_allows_blanks_around_numerals():
    text = "n= 11 \n" + "".join(f" {x}\t{y} \n" for x, y in S_HALF[11])
    assert parse_pair_set_text(text).pairs == S_HALF[11]


def test_obj_round_trip():
    ps = PairSet(19, S_HALF[19])
    obj = pair_set_to_obj(ps)
    # the pair tuples themselves, which JSON encodes as lists
    assert obj == {"n": 19, "pairs": S_HALF[19]}
    assert obj["pairs"] is ps.pairs
    assert pair_set_from_obj(obj) == ps
    decoded = json.loads(json.dumps(obj))
    assert decoded == {"n": 19, "pairs": [list(p) for p in S_HALF[19]]}
    assert pair_set_from_obj(decoded) == ps


def test_obj_validation():
    with pytest.raises(ValueError, match="must be a dict"):
        pair_set_from_obj([1, 2])
    with pytest.raises(ValueError, match="missing the 'pairs' key"):
        pair_set_from_obj({"n": 11})
    with pytest.raises(ValueError, match="missing the 'n' key"):
        pair_set_from_obj({"pairs": []})
    with pytest.raises(ValueError, match="'n' must be an int"):
        pair_set_from_obj({"n": "11", "pairs": []})
    with pytest.raises(ValueError, match="'pairs' must be a list"):
        pair_set_from_obj({"n": 11, "pairs": "nope"})
    for pair in ([1.0, 2], [True, 2], [1, 2, 3], [1], 1, None, "12"):
        with pytest.raises(ValueError, match="is not a two-element list of ints"):
            pair_set_from_obj({"n": 11, "pairs": [[3, 4], pair]})


_LONG = "7" * 1000
# past 4,300 digits the interpreter refuses to make an int text at all
_HUGE = 10**5000


def _cut(value):
    return f"{repr(value)[:80]}…"


@pytest.mark.parametrize(
    "call, data, error, message",
    [
        (
            parse_pair_set_text,
            f"n={_LONG}x",
            ValueError,
            f"line 1: bad header {_cut(f'n={_LONG}x')}",
        ),
        (
            parse_pair_set_text,
            f"n=11\n1 6 {_LONG}",
            ValueError,
            f"line 2: expected 'x y', got {_cut(f'1 6 {_LONG}')}",
        ),
        (
            parse_pair_set_text,
            f"n=11\n1 {_LONG}x",
            ValueError,
            f"line 2: non-integer pair {_cut(f'1 {_LONG}x')}",
        ),
        (
            pair_set_from_obj,
            {"n": [1] * 1000, "pairs": []},
            ValueError,
            f"'n' must be an int, got {_cut([1] * 1000)}",
        ),
        (
            pair_set_from_obj,
            {"n": 11, "pairs": [[*range(200_000)]]},
            ValueError,
            f"pair {_cut([*range(200_000)])} is not a two-element list of ints",
        ),
        (lambda n: SearchConfig(n=n), _LONG, TypeError, f"n must be an int, got {_cut(_LONG)}"),
        (
            lambda mode: SearchConfig(n=11, mode=mode),
            _LONG,
            ValueError,
            f"{_cut(_LONG)} is not a valid SearchMode",
        ),
        (
            lambda flag: SearchConfig(n=11, require_strong=flag),
            _LONG,
            TypeError,
            f"require_strong must be a bool, got {_cut(_LONG)}",
        ),
        (is_prime, _LONG, TypeError, f"is_prime needs an int, got {_cut(_LONG)}"),
        (
            lambda n: PairSet(n, []),
            _LONG,
            TypeError,
            f"modulus must be an int, got {_cut(_LONG)}",
        ),
        (
            lambda beta: build_strong_starter(11, beta),
            _LONG,
            TypeError,
            f"beta must be an int, got {_cut(_LONG)}",
        ),
        (
            lambda choice: build_strong_skolem(11, choice),
            _LONG,
            ConstructionError,
            f"beta choice must be '2' or 'half', got {_cut(_LONG)}",
        ),
        (
            lambda choice: half_set_certificate(11, choice),
            _LONG,
            ConstructionError,
            f"beta choice must be '2' or 'half', got {_cut(_LONG)}",
        ),
        (
            lambda d: HalfSetCertificate(q=11, beta=2, direct=(d,), reflected=()).pair_set(),
            _LONG,
            ValueError,
            f"certificate entry {_cut(_LONG)} is not an int in 1..5",
        ),
        (
            build_strong_skolem,
            _LONG,
            ConstructionError,
            f"modulus must be an int, got {_cut(_LONG)}",
        ),
        (
            lambda raw: _construct(11, raw),
            f"{_LONG}x",
            ConstructionError,
            f"--beta must be '2', 'half' or an integer, got {_cut(f'{_LONG}x')}",
        ),
        # an int too long to show is named by its size
        (
            is_prime,
            _HUGE,
            ValueError,
            "is_prime is exact only below 2**64, got <int of 16610 bits>",
        ),
        (
            lambda n: PairSet(n, []),
            _HUGE,
            ValueError,
            "modulus must be odd, got <int of 16610 bits>",
        ),
        (
            lambda n: PairSet(n + 1, []),
            _HUGE,
            ValueError,
            "modulus <int of 16610 bits> exceeds the supported cap 2**31 - 1",
        ),
        (
            lambda n: PairSet(-n, []),
            _HUGE,
            ValueError,
            "modulus must be >= 3, got <negative int of 16610 bits>",
        ),
        (
            lambda el: PairSet(11, [(el, 1)]),
            _HUGE,
            ValueError,
            "element <int of 16610 bits> outside 1..10",
        ),
        (
            lambda q: build_strong_skolem(q + 3),
            _HUGE,
            ConstructionError,
            "modulus <int of 16610 bits> exceeds the supported cap 2**31 - 1",
        ),
        (
            lambda n: SearchConfig(n=n),
            _HUGE,
            ValueError,
            "n must be odd and >= 3, got <int of 16610 bits>",
        ),
        (
            lambda limit: SearchConfig(n=11, mode="enumerate", limit=-limit),
            _HUGE,
            ValueError,
            "limit must be a positive int or None, got <negative int of 16610 bits>",
        ),
        (
            lambda workers: SearchConfig(n=11, workers=-workers),
            _HUGE,
            ValueError,
            "workers must be >= 1, got <negative int of 16610 bits>",
        ),
        (
            construction_primes,
            _HUGE,
            ConstructionError,
            "q_max <int of 16610 bits> exceeds the supported cap 2**31 - 1",
        ),
    ],
    ids=[
        "header", "three-fields", "non-integer", "n", "pair",
        "search-n", "search-mode", "search-require-strong", "is-prime",
        "pair-set-n", "beta", "skolem-choice", "certificate-choice",
        "certificate-entry", "skolem-q", "cli-beta",
        "huge-is-prime", "huge-even-pair-set-n", "huge-odd-pair-set-n",
        "huge-negative-pair-set-n", "huge-pair-element", "huge-skolem-q",
        "huge-search-n", "huge-search-limit", "huge-search-workers", "huge-q-max",
    ],
)
def test_errors_quote_a_bounded_prefix_of_outside_input(call, data, error, message):
    with pytest.raises(error) as info:
        call(data)
    assert type(info.value) is error
    assert str(info.value) == message
    assert len(message) < 140


def test_quote_shows_an_int_of_up_to_limit_digits_and_sizes_a_longer_one():
    assert _quote(10**80 - 1) == "9" * 80
    assert _quote(-(10**80 - 1)) == "-" + "9" * 79 + "…"
    assert _quote(10**80) == "<int of 266 bits>"
    assert _quote(True) == "True"


def _all_partitions(elements):
    if not elements:
        yield []
        return
    first = elements[0]
    for i in range(1, len(elements)):
        partner = elements[i]
        rest = elements[1:i] + elements[i + 1 :]
        for tail in _all_partitions(rest):
            yield [(first, partner)] + tail


def _naive_check(n, pairs):
    """full_report on the compiled route, equal to the pure route's report,
    and the compiled pass itself, against the naive verdicts."""
    ps = PairSet(n, pairs)
    report = full_report(ps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(skolem.search, "_fastsearch", None)
        assert full_report(ps) == report, (n, pairs)
    got = (
        report.is_starter,
        report.is_strong,
        report.is_skolem,
        report.has_zero_sum,
    )
    expected = naive_verdicts(n, pairs)
    assert got == expected, (n, pairs)
    # has_zero_sum for a strong Skolem starter, and None for any other set
    assert skolem.search._fastsearch.skolem_verdicts(n, ps.pairs) == (
        got[3] if got[1] and got[2] else None
    ), (n, pairs)
    return got


def test_report_matches_naive_on_every_partition(fastsearch):
    # Exhaustive equivalence against the independent reference: all 945
    # pair partitions of 1..10, all 105 of 1..8 and all 15 of 1..6.
    for n, total in ((7, 15), (9, 105), (11, 945)):
        seen = 0
        for pairs in _all_partitions(list(range(1, n))):
            _naive_check(n, pairs)
            seen += 1
        assert seen == total


def test_report_matches_naive_on_perturbed_and_partial_sets(fastsearch):
    # Random, perturbed and partial pair sets for every odd n <= 41, around
    # the construction's strong starters and around unit multiples of the
    # plain Skolem starters of Z_17, where the verdicts actually vary.
    rng = random.Random(10)
    cases = []
    for n in range(3, 42, 2):
        for _ in range(5):
            cases.append((n, random_pair_partition(n, rng)))
    for q in (7, 11, 19, 23, 31):
        for beta in range(2, q - 1):
            try:
                cases.append((q, build_strong_starter(q, beta).pairs))
            except ConstructionError:
                pass
    plain = [sorted(s) for s in element_driven_starters(17, strong=False)]
    for pairs in rng.sample(plain, 40):
        m = rng.randrange(1, 17)
        cases.append((17, [(m * x % 17, m * y % 17) for x, y in pairs]))
    outcomes = set()
    for n, pairs in cases:
        outcomes.add(_naive_check(n, pairs)[:3])
        for swaps in (1, 2):
            _naive_check(n, perturb_partition(pairs, rng, swaps))
        _naive_check(n, pairs[: rng.randrange(len(pairs))])
    assert outcomes >= {
        (False, False, False),
        (True, False, False),
        (True, False, True),
        (True, True, False),
        (True, True, True),
    }


def test_one_difference_set_decides_as_the_naive_verdicts(fastsearch):
    # full_report decides "starter" and "Skolem" from one set test on the
    # integer differences; around every plain Skolem starter of Z_11 and
    # Z_19, each way that test can fail must still agree with the naive
    # quadratic scans
    rng = random.Random(20)
    kinds = {"skolem": 0, "distinct, one above t": 0, "repeated": 0, "short": 0}
    for n, total in ((11, 10), (19, 2656)):
        t = (n - 1) // 2
        result = search_skolem_starters(
            SearchConfig(n=n, mode="enumerate", require_strong=False)
        )
        assert len(result.witnesses) == total
        for ps in result.witnesses:
            for pairs in (
                ps.pairs,
                perturb_partition(ps.pairs, rng, 1),
                perturb_partition(ps.pairs, rng, 2),
                ps.pairs[: rng.randrange(t)],
            ):
                diffs = {y - x for x, y in pairs}
                if len(pairs) < t:
                    kinds["short"] += 1
                elif len(diffs) < t:
                    kinds["repeated"] += 1
                elif max(diffs) > t:
                    kinds["distinct, one above t"] += 1
                else:
                    kinds["skolem"] += 1
                _naive_check(n, pairs)
    assert min(kinds.values()) >= 100, kinds

import pytest

from skolem import (
    NotAStarterError,
    PairSet,
    full_report,
    iter_pair_sets_text,
    pair_set_from_obj,
    pair_set_to_obj,
    pair_set_to_text,
    parse_pair_set_text,
    skolem_admissible,
    verify_skolem,
    verify_starter,
    verify_strong,
)
import skolem.starters

from _fixtures import (
    NON_STARTER_PARTITION_11,
    S_HALF,
    S_TWO,
    STARTER_NOT_SKOLEM_11,
)
from _naive import naive_verdicts


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
            assert verify_starter(PairSet(n, pairs)).ok, (n, pairs)
    v = verify_starter(PairSet(11, NON_STARTER_PARTITION_11))
    assert not v
    assert "difference class" in v.witness
    assert "(1, 7)" in v.witness and "(3, 8)" in v.witness


def test_verify_starter_uncovered():
    v = verify_starter(PairSet(11, [(1, 6), (2, 4)]))
    assert not v.ok
    assert "uncovered elements" in v.witness
    assert "3" in v.witness


def test_verify_strong():
    assert verify_strong(PairSet(11, S_TWO[11])).ok
    v = verify_strong(PairSet(11, STARTER_NOT_SKOLEM_11))
    assert not v
    assert "share the sum 0" in v.witness
    with pytest.raises(NotAStarterError, match="strong property"):
        verify_strong(PairSet(11, NON_STARTER_PARTITION_11))


def test_verify_skolem():
    assert verify_skolem(PairSet(11, S_HALF[11])).ok
    v = verify_skolem(PairSet(11, STARTER_NOT_SKOLEM_11))
    assert not v
    assert "integer differences" in v.witness
    with pytest.raises(NotAStarterError, match="Skolem property"):
        verify_skolem(PairSet(11, NON_STARTER_PARTITION_11))


def test_full_report_verdict_matrix():
    good = full_report(PairSet(11, S_HALF[11]))
    assert good.verdicts == (True, True, True)
    assert good.starter_witness is None
    assert not good.has_zero_sum

    patterned = full_report(PairSet(11, STARTER_NOT_SKOLEM_11))
    assert patterned.verdicts == (True, False, False)
    assert patterned.has_zero_sum
    assert patterned.sums == (0, 0, 0, 0, 0)

    broken = full_report(PairSet(11, NON_STARTER_PARTITION_11))
    assert broken.verdicts == (False, False, False)
    assert broken.strong_witness == "not a starter"
    assert broken.skolem_witness == "not a starter"


def test_full_report_verifies_the_starter_once(monkeypatch):
    calls = []

    def counting(ps):
        calls.append(ps)
        return verify_starter(ps)

    monkeypatch.setattr(skolem.starters, "verify_starter", counting)
    for pairs in (S_HALF[11], STARTER_NOT_SKOLEM_11, NON_STARTER_PARTITION_11):
        calls.clear()
        full_report(PairSet(11, pairs))
        assert len(calls) == 1, pairs


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
        assert parse_pair_set_text(ps.to_text()) == ps


def test_text_format_exact():
    assert PairSet(11, S_HALF[11]).to_text() == (
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


def test_obj_round_trip():
    ps = PairSet(19, S_HALF[19])
    obj = pair_set_to_obj(ps)
    assert obj == {"n": 19, "pairs": [list(p) for p in S_HALF[19]]}
    assert pair_set_from_obj(obj) == ps
    assert ps.to_obj() == obj


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


def test_report_matches_naive_on_every_partition():
    # Exhaustive equivalence against the independent reference: all 105
    # pair partitions of 1..8 and all 15 of 1..6.
    for n in (7, 9):
        seen = 0
        for pairs in _all_partitions(list(range(1, n))):
            report = full_report(PairSet(n, pairs))
            expected = naive_verdicts(n, pairs)
            got = (
                report.is_starter,
                report.is_strong,
                report.is_skolem,
                report.has_zero_sum,
            )
            assert got == expected, (n, pairs)
            seen += 1
        assert seen == (15 if n == 7 else 105)

import errno
import io
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import skolem.cli
import skolem.search
from skolem import (
    PairSet,
    SearchConfig,
    SearchMode,
    __version__,
    build_strong_starter,
    full_report,
    iter_pair_sets_text,
    pair_set_from_obj,
    pair_set_to_text,
    search_skolem_starters,
)
from skolem.cli import main

from _fixtures import (
    NON_STARTER_PARTITION_11,
    S_HALF,
    S_TWO,
    STARTER_NOT_SKOLEM_11,
    STARTER_COUNTS,
)
from conftest import child_env


def _python_m_skolem(*argv, **kwargs):
    """Run `python -m skolem` in a child process on the package under test."""
    return subprocess.run(
        [sys.executable, "-m", "skolem", *argv],
        capture_output=True,
        text=True,
        env=child_env(),
        **kwargs,
    )


def _start_python(*argv, **kwargs):
    """Start `python *argv` in a child process on the package under test,
    its stdout and stderr piped as text."""
    return subprocess.Popen(
        [sys.executable, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
        **kwargs,
    )


def _reap(proc, timeout):
    """proc.communicate(timeout=timeout), killing and reaping proc if it
    runs past the timeout."""
    try:
        return proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_text(capsys):
    code, out, err = _run(capsys, "generate", "11", "--beta", "half")
    assert code == 0 and err == ""
    assert out.startswith("n=11\n1 6\n2 4\n3 7\n5 8\n9 10\n")
    assert "# q=11 beta=6\n" in out
    assert "# skolem: yes" in out
    # the annotated output parses straight back
    (ps,) = list(iter_pair_sets_text(out))
    assert ps.pairs == S_HALF[11]


# The keys of a report's JSON form: its verdicts and witnesses, and no
# copy of the pair set, which the document holds once as pair_set.
_REPORT_KEYS = {
    "is_starter",
    "is_strong",
    "is_skolem",
    "starter_witness",
    "strong_witness",
    "skolem_witness",
    "has_zero_sum",
}


def test_generate_json(capsys):
    code, out, err = _run(capsys, "generate", "19", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "3"
    assert doc["command"] == "generate"
    assert doc["parameters"] == {
        "q": 19,
        "beta": 2,
        "beta_choice": "2",
    }
    assert pair_set_from_obj(doc["results"]["pair_set"]).pairs == S_TWO[19]
    assert out.count('"pairs"') == 1
    report = doc["results"]["report"]
    assert set(report) == _REPORT_KEYS
    assert report["is_starter"] and report["is_strong"] and report["is_skolem"]
    assert report["has_zero_sum"] is False


def test_verify_json_holds_the_canonical_input_once(tmp_path, capsys):
    # each input is written in reverse order with each pair reversed; the
    # document holds it once, in canonical form, next to the verdicts
    path = tmp_path / "input.txt"
    for pairs, expected in ((S_TWO[19], 0), (NON_STARTER_PARTITION_11, 3)):
        n = 2 * len(pairs) + 1
        path.write_text(f"n={n}\n" + "".join(f"{y} {x}\n" for x, y in reversed(pairs)))
        code, out, _ = _run(capsys, "verify", str(path), "--json")
        assert code == expected, n
        assert out.count('"pairs"') == 1
        results = json.loads(out)["results"]
        assert results["pair_set"] == {"n": n, "pairs": [list(p) for p in pairs]}
        assert pair_set_from_obj(results["pair_set"]).pairs == pairs
        assert set(results["report"]) == _REPORT_KEYS
        assert results["report"]["is_starter"] is (expected == 0)


def test_generate_arbitrary_beta(capsys):
    code, out, _ = _run(capsys, "generate", "11", "--beta", "7")
    assert code == 0
    assert "# skolem: no" in out
    assert "# strong: yes" in out


def test_generate_errors(capsys):
    for argv, fragment in (
        (["generate", "7"], "q % 8 == 7"),
        (["generate", "13"], "q % 8 == 5"),
        (["generate", "12"], "odd"),
        (["generate", "15"], "not prime"),
        (["generate", "11", "--beta", "4"], "quadratic residue"),
        (["generate", "11", "--beta", "x"], "beta"),
        (["generate", "11", "--beta", "10"], "sum to zero"),
    ):
        code, out, err = _run(capsys, *argv)
        assert code == 2, argv
        assert fragment in err, (argv, err)
        assert out == ""
    # the pair set never depended on a generator, so there is no --alpha
    with pytest.raises(SystemExit) as exc_info:
        main(["generate", "11", "--alpha", "4"])
    assert exc_info.value.code == 2
    assert "--alpha" in capsys.readouterr().err


# Self-check fakes: a strong starter that is not Skolem, and a starter
# whose pair sums all vanish, so it is not strong.
_STRONG_NOT_SKOLEM = full_report(build_strong_starter(11, 7))
_NOT_STRONG = full_report(PairSet(11, STARTER_NOT_SKOLEM_11))


@pytest.mark.parametrize(
    "argv, codes",
    [
        (["generate", "11"], (1, 1)),
        (["generate", "11", "--beta", "7"], (0, 1)),
        (["tabulate", "--q-max", "20"], (1, 1)),
    ],
    ids=["generate-skolem", "generate-integer-beta", "tabulate"],
)
def test_self_check_holds_each_command_to_its_promise(capsys, monkeypatch, argv, codes):
    # generate promises a strong Skolem starter for a named beta choice and
    # a strong one for an integer beta; tabulate a strong Skolem starter
    assert _STRONG_NOT_SKOLEM.verdicts == (True, True, False)
    assert _NOT_STRONG.verdicts == (True, False, False)
    for report, want in zip((_STRONG_NOT_SKOLEM, _NOT_STRONG), codes):
        monkeypatch.setattr(skolem.cli, "full_report", lambda ps: report)
        code, out, err = _run(capsys, *argv)
        assert code == want, (argv, report.verdicts)
        if want:
            assert err.startswith("error: self-check failed for q=")
            assert err.endswith("this is a bug\n")
            assert out == ""
        else:
            assert err == "" and "# strong: yes" in out


def test_tabulate_keeps_what_it_printed_before_a_failed_self_check(capsys, monkeypatch):
    # text goes out one starter at a time: the two that passed stay printed
    # when the third fails; --json prints one document or nothing
    _, whole, _ = _run(capsys, "tabulate", "--q-max", "20")
    for json_flag, printed in (([], 2), (["--json"], 0)):
        reports = iter([full_report, full_report, lambda ps: _NOT_STRONG])
        monkeypatch.setattr(skolem.cli, "full_report", lambda ps: next(reports)(ps))
        code, out, err = _run(capsys, "tabulate", "--q-max", "20", *json_flag)
        assert code == 1
        assert err == "error: self-check failed for q=11 beta=2; this is a bug\n"
        assert len(list(iter_pair_sets_text(out))) == printed
        assert whole.startswith(out)


# Each verify input is also read after a UTF-8 byte-order mark, which
# some editors write at the start of a file.
_PREFIXES = ("", "\ufeff")


def test_verify_file(tmp_path, capsys):
    path = tmp_path / "starter.txt"
    for prefix in _PREFIXES:
        path.write_text(prefix + "n=11\n1 6\n2 4\n3 7\n5 8\n9 10\n", encoding="utf-8")
        code, out, _ = _run(capsys, "verify", str(path))
        assert code == 0, repr(prefix)
        assert "# required holds: yes" in out


def test_verify_stdin(capsys, monkeypatch):
    for prefix in _PREFIXES:
        text = prefix + "n=11\n1 6\n2 4\n3 7\n5 8\n9 10\n"
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = _run(capsys, "verify")
        assert code == 0, repr(prefix)
        assert "# required holds: yes" in out


def test_verify_json_input(tmp_path, capsys):
    path = tmp_path / "starter.json"
    obj = {"n": 11, "pairs": [list(p) for p in S_TWO[11]]}
    for prefix in _PREFIXES:
        path.write_text(prefix + json.dumps(obj), encoding="utf-8")
        code, out, _ = _run(capsys, "verify", str(path), "--json")
        assert code == 0, repr(prefix)
        doc = json.loads(out)
        assert doc["command"] == "verify"
        assert doc["results"]["required_holds"] is True
        code, out, _ = _run(capsys, "verify", str(path))
        assert code == 0, repr(prefix)
        assert "# required holds: yes" in out


def test_verify_property_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "patterned.txt"
    text = "n=11\n" + "".join(f"{x} {y}\n" for x, y in STARTER_NOT_SKOLEM_11)
    path.write_text(text)
    code, out, _ = _run(capsys, "verify", str(path))
    assert code == 3
    assert "# required holds: no" in out
    assert "# zero sum present: yes" in out
    # the same set is a perfectly good starter
    code, out, _ = _run(capsys, "verify", str(path), "--require", "starter")
    assert code == 0


def test_verify_require_levels(tmp_path, capsys):
    path = tmp_path / "nonstarter.txt"
    text = "n=11\n" + "".join(f"{x} {y}\n" for x, y in NON_STARTER_PARTITION_11)
    path.write_text(text)
    for level in ("starter", "strong", "skolem", "strong-skolem"):
        code, _, _ = _run(capsys, "verify", str(path), "--require", level)
        assert code == 3, level


def test_verify_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 6\n")
    code, _, err = _run(capsys, "verify", str(bad))
    assert code == 2 and "before any n=" in err

    code, _, err = _run(capsys, "verify", str(tmp_path / "missing.txt"))
    assert code == 2

    malformed = tmp_path / "malformed.json"
    malformed.write_text("{\"n\": 11")
    code, _, err = _run(capsys, "verify", str(malformed))
    assert code == 2

    big = [*range(200_000)]
    for pairs, shown in (
        ("[[1.0, 2]]", "[1.0, 2]"),
        ("[1, 2]", "1"),
        ("[null]", "None"),
        # a long pair is quoted by its first 80 characters
        (f"[{big}]", f"{str(big)[:80]}…"),
    ):
        malformed.write_text(f"{{\"n\": 11, \"pairs\": {pairs}}}")
        code, out, err = _run(capsys, "verify", str(malformed))
        assert code == 2 and out == "", pairs
        assert err == f"error: pair {shown} is not a two-element list of ints\n"

    # nesting past the JSON decoder's recursion limit is a usage error too
    malformed.write_text("{\"n\": 11, \"pairs\": " + "[" * 100_000 + "]" * 100_000 + "}")
    code, out, err = _run(capsys, "verify", str(malformed))
    assert (code, out) == (2, "")
    assert err == "error: JSON input is nested too deeply\n"

    # an OSError quotes the path whole; its message is cut to 200
    # characters and an ellipsis, as argparse's are
    code, out, err = _run(capsys, "verify", "x" * 100_000)
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno ") and err.endswith("x…\n")
    assert len(err) == len("error: ") + 200 + len("…\n")


def _cap_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))


def test_verify_names_the_uncovered_elements_of_a_sparse_set_with_a_huge_n():
    # nothing of size n is built, so 2 GiB of address space is plenty; a
    # set of 1..n-1 would need about 100 GB and end in a MemoryError
    start = time.perf_counter()
    proc = _python_m_skolem("verify", "-", input="n=2147483647\n1 2\n",
                            preexec_fn=_cap_address_space, timeout=30)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stderr) == (3, "")
    assert proc.stdout.splitlines()[:2] == [
        "# n=2147483647 pairs=1",
        "# starter: no (uncovered elements: 3, 4, 5, 6, 7, 8, 9, 10, ... (2147483644 total))",
    ]
    assert elapsed < 2


def test_generate_out_of_memory_is_one_error_line():
    # a valid prime q = 3 (mod 8) below the cap whose folding needs about
    # 17 GB: exit 2, as for any input too large to handle, not the exit 1
    # of a failed self-check, and no traceback
    proc = _python_m_skolem("generate", "2147483587", preexec_fn=_cap_address_space, timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: generate ran out of memory\n"


def test_search_count_json(capsys):
    code, out, _ = _run(capsys, "search", "9", "--no-strong", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["count"] == 6
    assert doc["results"]["complete"] is True
    assert doc["results"]["witnesses"] == []
    assert doc["parameters"]["require_strong"] is False


def test_search_mode_flags(capsys):
    modes = {}
    for flags in ([], ["--count"], ["--first"], ["--enumerate"]):
        code, out, _ = _run(capsys, "search", "11", *flags, "--json")
        assert code == 0
        modes[tuple(flags)] = json.loads(out)["parameters"]["mode"]
    assert modes == {
        (): "count",
        ("--count",): "count",
        ("--first",): "first",
        ("--enumerate",): "enumerate",
    }
    with pytest.raises(SystemExit) as exc_info:
        main(["search", "11", "--first", "--enumerate"])
    assert exc_info.value.code == 2
    assert "not allowed with argument --first" in capsys.readouterr().err


def test_search_enumerate_text_streams_records(capsys):
    code, out, _ = _run(capsys, "search", "11", "--enumerate")
    assert code == 0
    sets = list(iter_pair_sets_text(out))
    assert {ps.pairs for ps in sets} == {S_TWO[11], S_HALF[11]}
    assert "# count=2" in out
    assert "# complete=yes" in out


def test_search_enumerate_text_is_each_witness_in_canonical_text(capsys):
    # byte for byte but the wall time: each of the 2656 witnesses, in the
    # search's order, as pair_set_to_text writes it after a blank line
    code, out, _ = _run(capsys, "search", "19", "--enumerate", "--no-strong")
    assert code == 0
    result = search_skolem_starters(
        SearchConfig(n=19, mode=SearchMode.ENUMERATE_ALL, require_strong=False))
    assert len(result.witnesses) == STARTER_COUNTS[(19, False)]
    expected = (
        f"# search n=19 kind=skolem mode=enumerate backend={result.backend} "
        f"workers={result.workers}\n"
        + "".join("\n" + pair_set_to_text(ps) for ps in result.witnesses)
        + f"# count={result.count}\n# nodes={result.nodes_explored}\n# complete=yes\n"
    )
    text, wall_time = out.rsplit("# wall_time=", 1)
    # pytest's own diff of two 100 KB strings takes a minute: name the first
    # difference instead
    same, at = text == expected, len(os.path.commonprefix([text, expected]))
    assert same, f"at {at}: {text[at - 40:at + 40]!r} != {expected[at - 40:at + 40]!r}"
    assert wall_time.endswith("s\n") and "\n" not in wall_time[:-1]


def test_search_first_text(capsys):
    code, out, _ = _run(capsys, "search", "19", "--first")
    assert code == 0
    (ps,) = list(iter_pair_sets_text(out))
    assert full_report(ps).verdicts == (True, True, True)
    assert "# complete=no" in out


def test_search_enumerate_limit(capsys):
    code, out, _ = _run(capsys, "search", "17", "--enumerate", "--limit", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["count"] == STARTER_COUNTS[(17, True)]
    assert len(doc["results"]["witnesses"]) == 3


@pytest.mark.parametrize("workers", ["1", "2"])
def test_search_enumerate_limit_past_the_machine_word(capsys, workers):
    code, out, err = _run(capsys, "search", "11", "--enumerate", "--limit",
                          "100000000000000000000000", "--workers", workers, "--json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["results"]["count"] == 2
    assert len(doc["results"]["witnesses"]) == 2


def test_search_limit_requires_enumerate(capsys):
    code, _, err = _run(capsys, "search", "17", "--limit", "3")
    assert code == 2
    assert "--limit" in err


def test_search_ceiling(capsys, monkeypatch):
    code, _, err = _run(capsys, "search", "29")
    assert code == 4
    assert "ceiling" in err
    assert "--force" in err

    monkeypatch.setattr(skolem.search, "DEFAULT_CEILING", 9)
    code, _, err = _run(capsys, "search", "11")
    assert code == 4
    code, out, _ = _run(capsys, "search", "11", "--force", "--json")
    assert code == 0
    assert json.loads(out)["results"]["count"] == 2


def test_search_workers_json(capsys):
    code, out, _ = _run(capsys, "search", "13", "--no-strong", "--workers", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["count"] == 0
    assert doc["parameters"]["workers"] == 2


_PURE_SEARCH_31 = (
    "import skolem.search as s; s._fastsearch = None; from skolem.cli import main; "
    "raise SystemExit(main(['search', '31', '--force', '--workers', '2']))"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["-m", "skolem", "search", "31", "--force", "--workers", "1"],
        ["-m", "skolem", "search", "31", "--force", "--workers", "2"],
        ["-c", _PURE_SEARCH_31],
    ],
    ids=["1", "2", "pure-2"],
)
def test_search_stops_on_ctrl_c(argv):
    # one worker stops at the kernel's next signal poll; on two the
    # caller's own partition stops there too, the one running on the other
    # thread finishes and the queued ones are cancelled.  Uninterrupted,
    # the two-worker walk takes several seconds.  The pure kernel runs on
    # one worker whatever --workers asks, so the main thread sees the
    # signal at once.
    proc = _start_python(*argv, start_new_session=True)
    time.sleep(1)
    proc.send_signal(signal.SIGINT)
    out, err = _reap(proc, timeout=5)
    assert proc.returncode == 130
    assert "error: search interrupted" in err
    assert "Traceback" not in err
    assert "# count=" not in out


def test_verify_stops_on_ctrl_c():
    # verify waits on a stdin its writer holds open; Ctrl-C ends it as it
    # ends a search
    proc = _start_python("-m", "skolem", "verify", "-", stdin=subprocess.PIPE, start_new_session=True)
    time.sleep(1)
    proc.send_signal(signal.SIGINT)
    out, err = _reap(proc, timeout=5)
    assert proc.returncode == 130
    assert "error: verify interrupted" in err
    assert "Traceback" not in err
    assert out == ""


def test_an_internal_fault_is_not_a_usage_error(monkeypatch):
    # only the ceiling's RuntimeError is an exit code; any other one is a
    # bug, and its traceback reaches the user
    def boom(config):
        raise RuntimeError("boom")

    monkeypatch.setattr(skolem.cli, "search_skolem_starters", boom)
    with pytest.raises(RuntimeError, match="boom"):
        main(["search", "11"])


class _FullStdout(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize(
    "argv",
    [["generate", "11"], ["verify"], ["search", "11"], ["tabulate", "--q-max", "20"]],
    ids=["generate", "verify", "search", "tabulate"],
)
def test_unwritable_stdout_is_one_error_line(capsys, monkeypatch, argv):
    # as `skolem tabulate > /dev/full`: a write error other than a closed
    # pipe exits 2 with one line, not a traceback
    monkeypatch.setattr(sys, "stdin", io.StringIO("n=11\n1 6\n2 4\n3 7\n5 8\n9 10\n"))
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize(
    "argv, first",
    [
        (["search", "19", "--enumerate", "--no-strong"],
         "# search n=19 kind=skolem mode=enumerate"),
        (["tabulate", "--q-max", "1500"],
         "# strong skolem starters from the quadratic-residue construction"),
        # the JSON document is streamed, so the pipe closes mid-document
        (["tabulate", "--q-max", "1500", "--json"], "{"),
    ],
    ids=["search", "tabulate", "tabulate-json"],
)
def test_closed_stdout_exits_141_without_a_traceback(argv, first):
    # as `skolem ... | head -1`: the reader takes one line and closes the
    # pipe while the command still has far more than a pipe buffer to write
    proc = _start_python("-m", "skolem", *argv)
    line = proc.stdout.readline()
    proc.stdout.close()
    _, err = _reap(proc, timeout=60)
    assert line.startswith(first)
    assert (proc.returncode, err) == (141, "")


@pytest.mark.parametrize(
    "argv, usage, error",
    [
        (["search", "x" * 100_000], "usage: skolem search ",
         "skolem search: error: argument n: invalid int value: 'xxx"),
        (["verify", "--require", "x" * 100_000], "usage: skolem verify ",
         "skolem verify: error: argument --require: invalid choice: 'xxx"),
    ],
    ids=["search-n", "verify-require"],
)
def test_argparse_errors_are_cut(capsys, argv, usage, error):
    # argparse quotes a bad argument whole; its message is cut to 200
    # characters and an ellipsis, after the usage lines
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(usage)
    last = captured.err.splitlines()[-1]
    assert last.startswith(error)
    message = last.split(": error: ", 1)[1]
    assert len(message) == 201 and message.endswith("…")
    assert len(captured.err) < 600


def test_search_rejects_even_n(capsys):
    code, _, err = _run(capsys, "search", "10")
    assert code == 2
    assert "odd" in err


def test_tabulate_text(capsys):
    code, out, _ = _run(capsys, "tabulate", "--q-max", "50")
    assert code == 0
    sets = list(iter_pair_sets_text(out))
    # q = 3, 11, 19, 43, two beta choices each
    assert len(sets) == 8
    assert {ps.pairs for ps in sets} >= {S_TWO[11], S_HALF[11], S_TWO[19], S_HALF[19]}
    for ps in sets:
        assert full_report(ps).verdicts == (True, True, True)
    assert "# q=43 beta=22\n" in out
    assert "alpha" not in out


def test_tabulate_single_choice_json(capsys):
    code, out, _ = _run(capsys, "tabulate", "--q-max", "50", "--beta", "half", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "3"
    entries = doc["results"]["entries"]
    assert [e["q"] for e in entries] == [3, 11, 19, 43]
    assert all(e["beta_choice"] == "half" for e in entries)
    by_q = {e["q"]: e for e in entries}
    assert pair_set_from_obj(by_q[43]["pair_set"]).pairs == S_HALF[43]
    assert by_q[19]["beta"] == 10


def test_tabulate_json_is_streamed_as_one_indented_document(capsys):
    # written piece by piece from the pair tuples, it is the document that
    # one json.dumps of its own content, lists for tuples, would print
    code, out, err = _run(capsys, "tabulate", "--q-max", "100", "--beta", "both", "--json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert len(doc["results"]["entries"]) == 14  # q = 3, 11, 19, 43, 59, 67, 83
    assert out == json.dumps(doc, indent=2) + "\n"


def test_tabulate_past_the_modulus_cap_fails_at_once():
    # no primality test runs before the bound is refused
    proc = _python_m_skolem("tabulate", "--q-max", "3000000000", timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: q_max 3000000000 exceeds the supported cap 2**31 - 1\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["--version"])
    assert exc_info.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main([])
    assert exc_info.value.code == 2


def test_module_entry_point():
    proc = _python_m_skolem("generate", "11", "--beta", "2")
    assert proc.returncode == 0
    assert proc.stdout.startswith("n=11\n1 2\n")


def test_console_script_round_trip():
    gen = _python_m_skolem("generate", "43", "--beta", "half")
    assert gen.returncode == 0
    ver = _python_m_skolem("verify", "-", input=gen.stdout)
    assert ver.returncode == 0
    assert "# required holds: yes" in ver.stdout

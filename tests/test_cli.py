import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import skolem.search
from skolem import __version__, full_report, iter_pair_sets_text, pair_set_from_obj
from skolem.cli import main

from _fixtures import (
    NON_STARTER_PARTITION_11,
    S_HALF,
    S_TWO,
    STARTER_NOT_SKOLEM_11,
    STARTER_COUNTS,
)


SRC = str(Path(__file__).resolve().parent.parent / "src")


def _python_m_skolem(*argv, **kwargs):
    """Run `python -m skolem` in a child process on the package under test."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "skolem", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        **kwargs,
    )


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


def test_generate_json(capsys):
    code, out, err = _run(capsys, "generate", "19", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "2"
    assert doc["command"] == "generate"
    assert doc["parameters"] == {
        "q": 19,
        "beta": 2,
        "beta_choice": "2",
    }
    assert pair_set_from_obj(doc["results"]["pair_set"]).pairs == S_TWO[19]
    report = doc["results"]["report"]
    assert report["is_starter"] and report["is_strong"] and report["is_skolem"]
    assert report["has_zero_sum"] is False


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

    for pairs, shown in (
        ("[[1.0, 2]]", "[1.0, 2]"),
        ("[1, 2]", "1"),
        ("[null]", "None"),
    ):
        malformed.write_text(f"{{\"n\": 11, \"pairs\": {pairs}}}")
        code, out, err = _run(capsys, "verify", str(malformed))
        assert code == 2 and out == "", pairs
        assert err == f"error: pair {shown} is not a two-element list of ints\n"


def test_search_count_json(capsys):
    code, out, _ = _run(capsys, "search", "9", "--no-strong", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["count"] == 6
    assert doc["results"]["complete"] is True
    assert doc["results"]["witnesses"] == []
    assert doc["parameters"]["require_strong"] is False


def test_search_enumerate_text_streams_records(capsys):
    code, out, _ = _run(capsys, "search", "11", "--enumerate")
    assert code == 0
    sets = list(iter_pair_sets_text(out))
    assert {ps.pairs for ps in sets} == {S_TWO[11], S_HALF[11]}
    assert "# count=2" in out
    assert "# complete=yes" in out


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


@pytest.mark.parametrize("workers", ["1", "2"])
def test_search_stops_on_ctrl_c(workers):
    # one worker stops at the kernel's next signal poll; on two the running
    # partitions finish and the queued ones are cancelled.  Uninterrupted,
    # the two-worker walk takes several seconds.
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "skolem", "search", "31", "--force", "--workers", workers],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        start_new_session=True,
    )
    time.sleep(1)
    proc.send_signal(signal.SIGINT)
    try:
        out, err = proc.communicate(timeout=5)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    assert proc.returncode == 130
    assert "error: search interrupted" in err
    assert "Traceback" not in err
    assert "# count=" not in out


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
    assert doc["schema_version"] == "2"
    entries = doc["results"]["entries"]
    assert [e["q"] for e in entries] == [3, 11, 19, 43]
    assert all(e["beta_choice"] == "half" for e in entries)
    by_q = {e["q"]: e for e in entries}
    assert pair_set_from_obj(by_q[43]["pair_set"]).pairs == S_HALF[43]
    assert by_q[19]["beta"] == 10


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

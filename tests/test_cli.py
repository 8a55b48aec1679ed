"""Command line behavior, exercised in process through main()."""

import io
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ghderiv
from ghderiv import cli
from ghderiv.cli import _dumps, main
from ghderiv.algebra import algebra_from_doc, algebra_to_doc, from_spec, upper_triangular
from ghderiv.linmap import (
    LinMap,
    map_from_doc,
    map_to_doc,
    right_mul_map,
    tn_jordan_family,
    triple_from_doc,
    triple_to_doc,
)
from ghderiv.identities import IdentityKind, check
from ghderiv.ring import MAX_DIGITS, PRIME_TEST_BOUND, QQ, Zmod
from ghderiv.solver import solve


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_triangular_two_sided(capsys):
    doc = run_json(capsys, "solve", "--algebra", "tn", "--n", "2",
                   "--kind", "jordan-left-gh")
    assert doc["dim"] == 5
    assert doc["kind"] == "jordan-left-gh"
    assert doc["ring"] == {"kind": "Q"}
    assert doc["constraints"] == "none"
    assert len(doc["basis"]) == 5
    assert len(doc["canonical"]) == 5
    assert all(len(row) == 27 for row in doc["canonical"])


def test_solve_quaternions(capsys):
    doc = run_json(capsys, "solve", "--algebra", "quat",
                   "--kind", "jordan-left-gh")
    assert doc["dim"] == 4


def test_solve_full_matrix_one_sided_is_zero(capsys):
    doc = run_json(capsys, "solve", "--algebra", "mn", "--n", "2",
                   "--kind", "left-gh")
    assert doc["dim"] == 0
    assert doc["basis"] == []


def test_solve_with_constraints(capsys):
    doc = run_json(capsys, "solve", "--algebra", "mn", "--n", "3",
                   "--kind", "left-gh", "--g-eq-h")
    assert doc["dim"] == 0
    assert doc["constraints"] == "g = h"
    # The one-sided solutions on T2 already kill f off the e11 column, so
    # pinning f on e12 changes nothing but is recorded in the output.
    doc = run_json(capsys, "solve", "--algebra", "tn", "--n", "2",
                   "--kind", "left-gh", "--f-zero-on", "1")
    assert doc["dim"] == 4
    assert doc["constraints"] == "f zero on basis [1]"


def test_solve_emit_system(capsys):
    doc = run_json(capsys, "solve", "--algebra", "tn", "--n", "2",
                   "--kind", "left-gh", "--emit-system")
    assert doc["system"]["ncols"] == 27
    assert doc["system"]["kind"] == "left-gh"
    assert len(doc["system"]["rows"]) == 54


def test_solve_emit_system_size_limit(capsys):
    # tn6 left-gh: 18522 rows x 1323 columns, refused before solving.
    code, out, err = run(capsys, "solve", "--algebra", "tn", "--n", "6",
                         "--kind", "left-gh", "--emit-system")
    assert code == 1
    assert out == ""
    assert "18522 x 1323 = 24504606" in err and "5000000" in err


def test_solve_over_prime_modulus(capsys):
    doc = run_json(capsys, "solve", "--algebra", "tn", "--n", "3",
                   "--kind", "left-gh", "--ring", "z5")
    assert doc["dim"] == 6
    assert doc["ring"] == {"kind": "Zmod", "m": 5}


def test_solve_modulus_too_large_to_test_exits_1(capsys):
    code, out, err = run(capsys, "solve", "--algebra", "ring", "--kind", "left-gh",
                         "--ring", f"z{2 ** 89 - 1}")
    assert (code, out) == (1, "")
    assert "cannot decide" in err and "Traceback" not in err


def test_an_undecidable_modulus_is_named_briefly(capsys):
    # The whole modulus used to be printed: 1,993 bytes of stderr here.
    m = "7" * 1900
    code, out, err = run(capsys, "solve", "--algebra", "ring", "--kind", "left-gh",
                         "--ring", f"z{m}")
    assert (code, out) == (1, "")
    assert err == (f"error: cannot decide whether {m[:20]!r}... (1900 characters) is "
                   f"prime: moduli below {PRIME_TEST_BOUND} are supported\n")


def test_solve_composite_modulus_exits_2(capsys):
    code, out, err = run(capsys, "solve", "--algebra", "tn", "--n", "2",
                         "--kind", "left-gh", "--ring", "z4")
    assert code == 2
    assert "prime modulus" in err


@pytest.mark.parametrize("argv,fragment", [
    (("solve", "--algebra", "tn", "--kind", "left-gh"), "--n"),
    (("solve", "--algebra", "tn", "--n", "2", "--kind", "biderivation"),
     "identity kind"),
    (("solve", "--algebra", "widget", "--kind", "left-gh"), "widget"),
    (("solve", "--algebra", "tn", "--n", "2", "--kind", "left-gh",
      "--f-zero-on", "1,x"), "--f-zero-on"),
    (("solve", "--algebra", "tn", "--n", "2", "--kind", "left-gh",
      "--f-zero-on", "9"), "out of range"),
    (("solve", "--algebra", "tn", "--n", "2", "--kind", "left-gh",
      "--ring", "z0"), "modulus"),
    (("solve", "--algebra", "quat", "--kind", "left-gh", "--ring", "z5"),
     "over Q only"),
    (("solve", "--algebra", "tn2", "--n", "3", "--kind", "left-gh"), "--n"),
    (("export", "--algebra", "quat", "--n", "3"), "--n"),
])
def test_solve_input_errors(capsys, argv, fragment):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert fragment in err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_triple_document(capsys, tmp_path):
    t = tn_jordan_family(2, [1, 2, 3], [4, 5])
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(triple_to_doc(t)))
    doc = run_json(capsys, "check", "--kind", "jordan-left-gh",
                   "--triple", str(path))
    assert doc == {"holds": True}
    # The same triple fails the one-sided identity; exit stays 0 because the
    # check itself succeeded.
    doc = run_json(capsys, "check", "--kind", "left-gh", "--triple", str(path))
    assert doc["holds"] is False
    assert doc["counterexample"]["i"] == 0
    assert doc["counterexample"]["j"] == 1
    assert doc["counterexample"]["lhs"] == ["0", "6", "0"]
    assert doc["counterexample"]["rhs"] == ["0", "3", "0"]


def test_check_map_document(capsys, tmp_path):
    t2 = upper_triangular(2)
    m = right_mul_map(t2.element([2, 0, 2]))  # right mult by a central element
    path = tmp_path / "map.json"
    path.write_text(json.dumps(map_to_doc(m)))
    doc = run_json(capsys, "check", "--kind", "right-centralizer",
                   "--map", str(path))
    assert doc == {"holds": True}


def test_check_triple_by_spec_reference_and_stdin(capsys, monkeypatch):
    t = tn_jordan_family(2, [0, 1, 0], [0, 0])
    doc = triple_to_doc(t)
    doc["algebra"] = "tn2"
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    out = run_json(capsys, "check", "--kind", "jordan-left-gh", "--triple", "-")
    assert out == {"holds": True}


def test_check_argument_validation(capsys, tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(map_to_doc(right_mul_map(
        upper_triangular(2).one()))))
    code, _, err = run(capsys, "check", "--kind", "left-gh")
    assert code == 1 and "exactly one" in err
    code, _, err = run(capsys, "check", "--kind", "left-gh",
                       "--triple", str(path), "--map", str(path))
    assert code == 1 and "exactly one" in err
    # A map document is not a triple document.
    code, _, err = run(capsys, "check", "--kind", "left-gh",
                       "--triple", str(path))
    assert code == 1 and "bad triple document" in err


def test_check_unreadable_input(capsys, tmp_path):
    code, _, err = run(capsys, "check", "--kind", "left-gh",
                       "--map", str(tmp_path / "missing.json"))
    assert code == 1 and "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "check", "--kind", "left-gh", "--map", str(bad))
    assert code == 1 and "not valid JSON" in err


@pytest.mark.parametrize("flag", ["--triple", "--map"])
@pytest.mark.parametrize("text", ["[1, 2]", '"x"', "null"], ids=["list", "string", "null"])
def test_check_refuses_a_document_that_is_not_an_object(capsys, tmp_path, flag, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = run(capsys, "check", "--kind", "left-gh", flag, str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path} is not a JSON object\n"


@pytest.mark.parametrize("flag", ["--triple", "--map"])
def test_check_refuses_a_document_nested_too_deeply(capsys, tmp_path, flag):
    # 200 KB of brackets: deep, not oversized.  json.load raises
    # RecursionError on it, which used to escape main as a traceback.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "check", "--kind", "left-gh", flag, str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path} is nested too deeply to parse\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--triple", "--map"])
def test_check_refuses_a_file_over_the_document_budget_unread(capsys, tmp_path, flag):
    # A sparse file: its size is one byte over the budget, and none of it
    # is on disk or in memory.  Reading it would allocate the whole budget,
    # so a peak far below that shows the size was checked first.
    path = tmp_path / "huge.json"
    path.touch()
    os.truncate(path, cli.MAX_DOC_BYTES + 1)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "check", "--kind", "left-gh", flag, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == (f"error: {path} is larger than the document budget of "
                   f"{cli.MAX_DOC_BYTES} bytes (64 MiB)\n")
    assert peak < cli.MAX_DOC_BYTES // 64


def test_stdin_is_read_up_to_the_document_budget(capsys, monkeypatch):
    # A budget of the document's own length admits it; one byte less
    # refuses it, having read at most one character more than the budget.
    text = json.dumps({"matrix": [[0]], "algebra": "ring"})
    reads = []

    class Stdin(io.StringIO):
        def read(self, n=-1):
            reads.append(n)
            return super().read(n)

    for budget, code in ((len(text), 0), (len(text) - 1, 1)):
        monkeypatch.setattr(cli, "MAX_DOC_BYTES", budget)
        monkeypatch.setattr("sys.stdin", Stdin(text))
        got, out, err = run(capsys, "check", "--kind", "left-gh", "--map", "-")
        assert got == code and reads[-1] == budget + 1
    assert err == f"error: - is larger than the document budget of {budget} bytes (0 MiB)\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_pipe_is_read_up_to_the_document_budget(capsys, monkeypatch, tmp_path):
    # A pipe reports size 0, so only the bounded read can refuse it.
    text = json.dumps({"matrix": [[0]], "algebra": "ring"})
    path = tmp_path / "pipe"
    os.mkfifo(path)
    for budget, code in ((len(text), 0), (len(text) - 1, 1)):
        monkeypatch.setattr(cli, "MAX_DOC_BYTES", budget)
        writer = threading.Thread(target=path.write_text, args=(text,), daemon=True)
        writer.start()
        got, out, err = run(capsys, "check", "--kind", "left-gh", "--map", str(path))
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert got == code, err
    assert err == (f"error: {path} is larger than the document budget of "
                   f"{budget} bytes (0 MiB)\n")


@pytest.mark.parametrize("literal", ["1e999999999", "1e-999999999"])
def test_check_refuses_a_huge_exponent(capsys, tmp_path, literal):
    # Parsing it used to build 10**999999999 and run for minutes.
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"matrix": [[literal]], "algebra": "ring"}))
    code, out, err = run(capsys, "check", "--kind", "left-gh", "--map", str(path))
    assert (code, out) == (1, "")
    assert "bad rational literal" in err and "Traceback" not in err


def _number_documents():
    """(name, document text, what stderr names) for documents whose JSON
    integers break the digit budget: each used to exit 1 with Python's
    set_int_max_str_digits() message, naming neither document nor value,
    or to load, some of them failing later while formatting a product."""
    long = lambda digit, n: f"{digit * 20!r}... ({n} characters)"
    alg = {"ring": {"kind": "Q"}, "dim": 1, "labels": ["1"], "unity": [1], "sc": [[[1]]]}
    # A 2-dimensional algebra with x^2 = N x, N of 3,000 digits: its table
    # is associative and has a unity, so only the size of N is wrong.
    sc = '[[[1, 0], [0, 1]], [[0, 1], [0, %s]]]' % ("3" * 3000)
    inline = ('{"ring": {"kind": "Q"}, "dim": 2, "labels": ["1", "x"], '
              '"unity": [1, 0], "sc": %s}' % sc)
    return [
        ("5000-digit entry", '{"matrix": [[%s]], "algebra": "ring"}' % ("7" * 5000),
         f"holds an integer literal of more than {MAX_DIGITS} digits"),
        ("5000-digit dim", json.dumps({"matrix": [[1]], "algebra": {**alg, "dim": "1" * 5000}}),
         f"dim {long('1', 5000)} is not an integer from 1 to 128"),
        ("3000-digit entry", '{"matrix": [[%s]], "algebra": "ring"}' % ("7" * 3000),
         f"bad scalar {long('7', 3000)}: more than {MAX_DIGITS} digits"),
        ("3000-digit modulus", json.dumps({"matrix": [[1]], "algebra": {
            **alg, "ring": {"kind": "Zmod", "m": int("7" * 3000)}}}),
         f"the modulus {long('7', 3000)} has more than {MAX_DIGITS} digits"),
        ("3000-digit sc and entry",
         '{"matrix": [[0, 0], [0, %s]], "algebra": %s}' % ("2" * 3000, inline),
         f"bad scalar {long('3', 3000)}: more than {MAX_DIGITS} digits"),
    ]


@pytest.mark.parametrize("name, text, named", _number_documents(),
                         ids=[case[0] for case in _number_documents()])
def test_json_integers_obey_the_digit_budget(capsys, tmp_path, name, text, named):
    path = tmp_path / "map.json"
    path.write_text(text)
    code, out, err = run(capsys, "check", "--kind", "left-gh", "--map", str(path))
    assert (code, out) == (1, "")
    assert named in err and "set_int_max_str_digits" not in err, err
    assert len(err) < 300 and "Traceback" not in err
    if name == "5000-digit entry":
        assert err == f"error: {path} {named}\n"


def test_a_json_integer_at_the_digit_budget_loads(capsys, tmp_path):
    path = tmp_path / "map.json"
    path.write_text('{"matrix": [[%s]], "algebra": "ring"}' % ("7" * MAX_DIGITS))
    code, out, err = run(capsys, "check", "--kind", "left-gh", "--map", str(path))
    assert code == 0 and json.loads(out)["holds"] is False, err


def test_check_refuses_vectors_that_are_not_arrays_of_dim_values(capsys, tmp_path):
    # Strings used to be read as their characters, and longer arrays cut to
    # length: the first document checked the identity map, the second tn2.
    rows = ["100", "010", "001"]
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    alg = algebra_to_doc(upper_triangular(2))
    alg["sc"][0][0].append("0")
    for doc, message in (
        ({"algebra": "tn2", "f": rows, "g": ident, "h": ident},
         "bad triple document: matrix must be 3 x 3"),
        ({"algebra": alg, "f": ident, "g": ident, "h": ident},
         "bad triple document: structure constants must be a 3 x 3 x 3 array"),
    ):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", "--kind", "left-gh", "--triple", str(path))
        assert (code, out, err) == (1, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# catalog and verify-paper
# ---------------------------------------------------------------------------


def test_catalog_listing(capsys):
    code, out, err = run(capsys, "catalog")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 52
    assert lines == sorted(lines)
    assert any("case-z4-doubling" in ln for ln in lines)
    assert all("[" in ln and "]" in ln for ln in lines)


def test_catalog_json(capsys):
    doc = run_json(capsys, "catalog", "--json")
    assert len(doc["entries"]) == 52
    ids = [e["id"] for e in doc["entries"]]
    assert "dim-tri-jordan-4" in ids
    assert all(set(e) == {"id", "title", "claim", "origin"}
               for e in doc["entries"])


def test_verify_filtered_entry(capsys):
    code, out, err = run(capsys, "verify-paper", "--filter", "case-z4")
    assert code == 0
    assert "[PASS] case-z4-doubling" in out
    assert "passed 1, failed 0, notes 0" in out


def test_verify_note_entry_does_not_fail(capsys):
    code, out, err = run(capsys, "verify-paper", "--filter", "note-doubled")
    assert code == 0
    assert "[NOTE]" in out
    assert "passed 0, failed 0, notes 1" in out


def test_verify_unknown_filter(capsys):
    code, out, err = run(capsys, "verify-paper", "--filter", "no-such-id")
    assert code == 1
    assert "no catalog entry matches" in err


def test_verify_json_output(capsys):
    doc = run_json(capsys, "verify-paper", "--filter", "modfive", "--json")
    assert doc["ok"] is True
    assert doc["counts"] == {"pass": 3}


def test_verify_writes_report_files(capsys, tmp_path):
    out_dir = tmp_path / "rep"
    code, out, err = run(capsys, "verify-paper", "--filter", "decompose",
                         "--out", str(out_dir))
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["ok"] is True
    assert len(report["entries"]) == 3
    table = (out_dir / "traceability.md").read_text()
    assert table.startswith("| entry |")
    assert "decompose-zero" in table
    assert "wrote" in out


def test_verify_refuses_an_output_path_that_is_a_file_before_running(capsys, tmp_path):
    taken = tmp_path / "list.json"
    taken.write_text("{}")
    code, out, err = run(capsys, "verify-paper", "--filter", "dim-tri", "--out", str(taken))
    assert code == 1
    assert out == ""  # the catalog never ran
    assert err.startswith(f"error: cannot create directory {taken}: ")


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_export_algebra_round_trips(capsys, tmp_path):
    code, out, err = run(capsys, "export", "--algebra", "tn", "--n", "3",
                         "--out", str(tmp_path))
    assert code == 0
    path = tmp_path / "algebra-tn3-q.json"
    assert str(path) in out
    loaded = algebra_from_doc(json.loads(path.read_text()))
    assert loaded == upper_triangular(3)


def test_export_cases_round_trip(capsys, tmp_path):
    code, out, err = run(capsys, "export", "--cases", "--out", str(tmp_path))
    assert code == 0
    files = sorted(p.name for p in tmp_path.glob("*.json"))
    assert len(files) == 10
    assert "case-quat-doubling.json" in files
    # An exported case replays to the same verdicts it was recorded with.
    doc = json.loads((tmp_path / "case-quat-doubling.json").read_text())
    t = triple_from_doc(doc)
    assert check(IdentityKind.JORDAN_LEFT_GH, t).holds
    assert not check(IdentityKind.LEFT_GH, t).holds


def test_export_output_errors_exit_1_without_a_traceback(capsys, tmp_path):
    taken = tmp_path / "list.json"
    taken.write_text("{}")
    code, out, err = run(capsys, "export", "--cases", "--out", str(taken / "x"))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot create directory {taken / 'x'}: ")
    # A directory where a case file should go: the write itself fails.
    (tmp_path / "case-m2-jordan-not-centralizer.json").mkdir()
    code, out, err = run(capsys, "export", "--cases", "--out", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err.startswith(
        f"error: cannot write {tmp_path / 'case-m2-jordan-not-centralizer.json'}: ")


def test_export_requires_a_target(capsys):
    code, out, err = run(capsys, "export")
    assert code == 1
    assert "--algebra or --cases" in err


@pytest.mark.parametrize("argv", [
    ["solve", "--algebra", "tn3", "--kind", "left-gh"],
    ["export", "--cases", "--out", None],
], ids=["solve", "export"])
def test_a_closed_stdout_exits_1_quietly(tmp_path, argv):
    # The read end is closed before the child starts, so its first write
    # meets a closed pipe whatever the size of the output.  The child's
    # stdout stays block-buffered, as on any pipe, so export's few lines
    # reach the pipe only when flushed.
    argv = [str(tmp_path) if a is None else a for a in argv]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(ghderiv.__file__).parents[1])
    r, w = os.pipe()
    os.close(r)
    try:
        child = subprocess.run([sys.executable, "-m", "ghderiv.cli", *argv], stdout=w,
                               stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(w)
    assert (child.returncode, child.stderr) == (1, b"")


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------


def test_config_json_sets_ring_default(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ring": "z5"}))
    doc = run_json(capsys, "--config", str(cfg), "solve", "--algebra", "tn",
                   "--n", "2", "--kind", "jordan-left-gh")
    assert doc["ring"] == {"kind": "Zmod", "m": 5}
    # An explicit flag wins over the config default.
    doc = run_json(capsys, "--config", str(cfg), "solve", "--algebra", "tn",
                   "--n", "2", "--kind", "jordan-left-gh", "--ring", "q")
    assert doc["ring"] == {"kind": "Q"}


def test_config_toml(capsys, tmp_path):
    cfg = tmp_path / "cfg.toml"
    cfg.write_text('ring = "z7"\n')
    doc = run_json(capsys, "--config", str(cfg), "solve", "--algebra", "tn",
                   "--n", "2", "--kind", "jordan-left-gh")
    assert doc["ring"] == {"kind": "Zmod", "m": 7}
    assert doc["dim"] == 5


def test_config_out_dir_default(capsys, tmp_path):
    target = tmp_path / "exports"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out_dir": str(target)}))
    code, out, err = run(capsys, "--config", str(cfg), "export", "--cases")
    assert code == 0
    assert len(list(target.glob("case-*.json"))) == 10


def test_config_errors(capsys, tmp_path):
    code, _, err = run(capsys, "--config", str(tmp_path / "none.json"),
                       "catalog")
    assert code == 1 and "cannot read config" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{{{")
    code, _, err = run(capsys, "--config", str(bad), "catalog")
    assert code == 1 and "cannot parse config" in err


def test_config_refuses_a_list(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1]")
    code, out, err = run(capsys, "--config", str(cfg), "catalog")
    assert (code, out) == (1, "")
    assert err == f"error: config {cfg} is not a JSON object\n"


@pytest.mark.parametrize("key, value, argv", [
    ("ring", 5, ["solve", "--algebra", "tn2", "--kind", "left-gh"]),
    ("ring", ["q"], ["check", "--kind", "left-gh", "--map", "-"]),
    ("out_dir", 5, ["export", "--cases"]),
], ids=["ring-int", "ring-list", "out_dir-int"])
def test_config_refuses_a_value_that_is_not_a_string(capsys, tmp_path, key, value, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, out, err = run(capsys, "--config", str(cfg), *argv)
    assert (code, out) == (1, "")
    assert err == f"error: config {key} must be a string, not {value!r}\n"


# ---------------------------------------------------------------------------
# argparse plumbing
# ---------------------------------------------------------------------------


def test_no_subcommand_is_an_error(capsys):
    assert main([]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "solve" in out and "verify-paper" in out


# ---------------------------------------------------------------------------
# the JSON writer: exactly json.dumps(doc, indent=2)
# ---------------------------------------------------------------------------


_texts = st.text(st.one_of(
    st.characters(),
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\ud800\udfff\U0001F600\U0010FFFF'),
))
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**40), 10**40),
    st.floats(allow_nan=False, allow_infinity=False),
    _texts,
)
_documents = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(_texts, max_size=5),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_texts, inner, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_documents)
def test_writer_matches_json_dumps(doc):
    assert _dumps(doc) == json.dumps(doc, indent=2)


def test_writer_matches_json_dumps_on_edge_values():
    docs = [
        [], {}, [[]], {"": {}}, "", 0, -0.0, 1e300, 2**70, -(2**70), None, True,
        {"é": ["\U0001F600", "\x00", '"'], "k": [1, "a", None, [], {}, ["b"]]},
        [float("nan"), float("inf"), float("-inf")],
    ]
    for doc in docs:
        assert _dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("ring, name", [(QQ, "q"), (Zmod(5), "z5")], ids=["Q", "Z/5"])
def test_json_numbers_reach_the_coercer_as_they_are(capsys, tmp_path, ring, name):
    """JSON ints load as the text of the same integer does; JSON floats and
    bools, in a map, a triple or an inline algebra, exit 1 with the
    coercion's message, and so does a float or bool algebra dimension."""
    t2 = upper_triangular(2, ring)
    rows = [[1, 2, 0], [0, 12345678901234567890, 0], [0, 0, -1]]
    text = [[str(v) for v in row] for row in rows]
    loaded = [map_from_doc({"matrix": m, "algebra": "tn2"}, ring) for m in (rows, text)]
    assert loaded[0] == loaded[1] == LinMap.from_rows(t2, rows)
    alg_doc = algebra_to_doc(t2)
    int_doc = {**alg_doc, "unity": [int(v.split()[0]) for v in alg_doc["unity"]],
               "sc": [[[int(v.split()[0]) for v in cell] for cell in row]
                      for row in alg_doc["sc"]]}
    assert algebra_from_doc(int_doc) == t2

    def check_doc(doc, flag="--map"):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return run(capsys, "check", "--kind", "left-gh", "--ring", name, flag, str(path))

    code, out, err = check_doc({"matrix": rows, "algebra": "tn2"})
    assert code == 0 and json.loads(out)["holds"] is False, err
    not_exact = "is not an exact scalar: give an int, a Fraction or a string"
    for bad in (0.5, 2.0, 12345678901234567890.0, True, False):
        matrix = [[bad, 0, 0], [0, 1, 0], [0, 0, 1]]
        for doc, flag in (({"matrix": matrix, "algebra": "tn2"}, "--map"),
                          ({"f": matrix, "g": text, "h": text, "algebra": "tn2"}, "--triple")):
            code, out, err = check_doc(doc, flag)
            assert (code, out) == (1, ""), (bad, flag)
            assert f"{bad!r} {not_exact}" in err, (bad, flag)
        for key, at in (("sc", lambda d: d["sc"][0][0]), ("unity", lambda d: d["unity"])):
            doc = json.loads(json.dumps(alg_doc))
            at(doc)[0] = bad
            code, out, err = check_doc({"matrix": text, "algebra": doc})
            assert (code, out) == (1, "") and f"{bad!r} {not_exact}" in err, (bad, key)
    for bad in (3.0, 3.7, True):
        doc = {**alg_doc, "dim": bad}
        with pytest.raises(ValueError, match=f"dim {bad!r} is not an integer"):
            algebra_from_doc(doc)
        code, out, err = check_doc({"matrix": text, "algebra": doc})
        assert (code, out) == (1, "") and f"dim {bad!r} is not an integer" in err, bad


def test_writer_rejects_what_json_dumps_rejects():
    for doc in ({1, 2}, [object()], {"a": b"bytes"}, {"a": [{"b": frozenset()}]}):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            _dumps(doc)
    for key in (1, True, None, (1, 2)):
        with pytest.raises(TypeError):
            _dumps({"a": {key: 3}})


@pytest.mark.parametrize(
    "spec, ring",
    [(s, r) for s in ("tn3", "mn2", "poly:tn2:1") for r in (QQ, Zmod(5))]
    + [("quat", QQ), ("tensor:tn2:tn2", QQ)],
)
def test_writer_is_byte_equal_on_solution_spaces(spec, ring):
    for kind in (IdentityKind.LEFT_GH, IdentityKind.JORDAN_LEFT_GH):
        doc = solve(from_spec(spec, ring), kind).to_doc()
        assert _dumps(doc) == json.dumps(doc, indent=2)


def test_writer_is_byte_equal_on_reports_and_exports(catalog_report):
    t = tn_jordan_family(2, [1, 2, 3], [4, 5])
    docs = [
        check(IdentityKind.JORDAN_LEFT_GH, t).to_doc(),
        check(IdentityKind.LEFT_GH, t).to_doc(),
        catalog_report.to_doc(),
        algebra_to_doc(from_spec("tensor:tn2:tn2")),
        triple_to_doc(t),
    ]
    assert docs[0]["holds"] and not docs[1]["holds"]
    assert "\\u2297" in _dumps(docs[3])  # the tensor labels, escaped
    for doc in docs:
        assert _dumps(doc) == json.dumps(doc, indent=2)


def test_cli_output_is_json_dumps_text(capsys, tmp_path):
    code, out, _ = run(capsys, "solve", "--algebra", "tensor:tn2:tn2", "--kind", "left-gh")
    assert code == 0 and out == json.dumps(json.loads(out), indent=2) + "\n"
    code, _, _ = run(capsys, "export", "--algebra", "tensor:tn2:tn2", "--cases",
                     "--out", str(tmp_path))
    assert code == 0
    for path in tmp_path.glob("*.json"):
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

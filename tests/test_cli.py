import json

import pytest

from aftkit.cli import main

IDENT_PROG = "p : o -> o.\np(R) :- R.\n"


@pytest.fixture()
def example_program(tmp_path):
    path = tmp_path / "identity.hl"
    path.write_text(IDENT_PROG)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_model_example_json(capsys, example_program):
    code, out, _ = run(capsys, ["model", example_program,
                                "--system", "builtin:lu-bool",
                                "--mode", "kk", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["p"]["exact"] is True
    assert doc["p"]["projection"] == {"f": "f", "t": "t"}
    assert doc["p"]["value"] == {"(f,f)": "(f,f)", "(f,t)": "(f,t)",
                                 "(t,t)": "(t,t)"}


def test_model_text_output(capsys, example_program):
    code, out, _ = run(capsys, ["model", example_program,
                                "--system", "builtin:lu-bool", "--mode", "kk"])
    assert code == 0
    assert "two-valued: true" in out


def test_model_deterministic(capsys, example_program):
    argv = ["model", example_program, "--system", "builtin:lu-bool",
            "--mode", "kk", "--json"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_space_exact_listing(capsys):
    code, out, _ = run(capsys, ["space", "--system", "builtin:lu-bool",
                                "--type", "o->o", "--show", "exact"])
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("  ")]
    assert len(lines) == 6


def test_space_json_round_trips(capsys):
    code, out, _ = run(capsys, ["space", "--system", "builtin:lu-bool",
                                "--type", "o", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 3
    assert [e["exact"] for e in doc["elements"]].count(True) == 2


def test_project_round_trip(capsys, tmp_path, example_program):
    code, out, _ = run(capsys, ["model", example_program,
                                "--system", "builtin:lu-bool",
                                "--mode", "kk", "--json"])
    model_path = tmp_path / "model.json"
    model_path.write_text(out)
    code, out, _ = run(capsys, ["project", str(model_path),
                                "--system", "builtin:lu-bool", "--json"])
    assert code == 0
    assert json.loads(out) == {"p": {"f": "f", "t": "t"}}


def test_project_inexact_model_fails(capsys, tmp_path):
    prog = tmp_path / "loop.hl"
    prog.write_text("p : o.\np :- ~p.\n")
    code, out, _ = run(capsys, ["model", str(prog),
                                "--system", "builtin:bilat-bool",
                                "--mode", "wf", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["p"]["exact"] is False
    model_path = tmp_path / "model.json"
    model_path.write_text(out)
    code, _, err = run(capsys, ["project", str(model_path),
                                "--system", "builtin:bilat-bool"])
    assert code == 1
    assert "not exact" in err


def test_laws_small(capsys):
    code, out, _ = run(capsys, ["laws", "--max-size", "2", "--suite", "lu"])
    assert code == 0
    assert "FAIL" not in out
    assert "lu:" in out


def test_unreadable_file_exits_2(capsys):
    code, _, err = run(capsys, ["model", "/nonexistent.hl",
                                "--system", "builtin:lu-bool"])
    assert code == 2


def test_bad_program_exits_2(capsys, tmp_path):
    prog = tmp_path / "bad.hl"
    prog.write_text("p : o.\np :- q.\n")
    code, _, err = run(capsys, ["model", str(prog),
                                "--system", "builtin:lu-bool"])
    assert code == 2
    assert "q" in err


def test_wf_higher_order_without_flag_exits_2(capsys, example_program):
    code, _, err = run(capsys, ["model", example_program,
                                "--system", "builtin:lu-bool", "--mode", "wf"])
    assert code == 2
    assert "experimental" in err


def test_unknown_builtin_exits_2(capsys):
    code, _, _ = run(capsys, ["space", "--system", "builtin:nope",
                              "--type", "o"])
    assert code == 2


@pytest.mark.parametrize("bad", ["lots", "-5"])
def test_bad_size_cap_exits_2(capsys, monkeypatch, bad):
    monkeypatch.setenv("AFT_SIZE_CAP", bad)
    code, out, err = run(capsys, ["space", "--system", "builtin:lu-bool",
                                  "--type", "o->o"])
    assert code == 2
    assert out == ""
    assert "AFT_SIZE_CAP" in err


def test_symbol_space_over_cap_exits_2(capsys, tmp_path):
    # the cap bounds each symbol's space; this one is too large by itself
    prog = tmp_path / "second.hl"
    prog.write_text("p : (o -> o) -> o.\n")
    code, out, err = run(capsys, ["model", str(prog),
                                  "--system", "builtin:bilat-bool"])
    assert code == 2
    assert out == ""
    assert "cap" in err

"""Command line behavior: output, JSON emission, exit codes."""

import json
import subprocess
import sys

import pytest

from clusterbrick.cli import _jsonable, main, root_string
from clusterbrick.polytope import LatticePolytope
from clusterbrick.roots import cartan_of_type
from clusterbrick.verify import run_checks


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_facets_output(capsys):
    code, out, err = run(capsys, "facets", "--type", "A2")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "type A2, coxeter 1,2"
    assert lines[1] == "word 1 2 1 2 1"
    assert lines[2] == "5 facets"
    assert [l.split() for l in lines[3:]] == [
        ["1", "2"], ["1", "5"], ["2", "3"], ["3", "4"], ["4", "5"]]


def test_fpoly_output(capsys):
    code, out, err = run(capsys, "fpoly", "--type", "A2")
    assert code == 0
    assert "root (1, 1) = α1+α2" in out
    assert "F = y1*y2 + y1 + 1" in out
    assert "F = y1 + 1" in out
    assert "F = y2 + 1" in out


def test_seeds_output(capsys):
    code, out, err = run(capsys, "seeds", "--type", "A2")
    assert code == 0
    assert "5 seeds" in out
    assert "slot 1: x1" in out
    assert "(x1*y1*y2 + x2 + y1)/(x1*x2)" in out


def test_brick_output(capsys):
    code, out, err = run(capsys, "brick", "--type", "A2")
    assert code == 0
    assert "5 brick vectors, 5 vertices" in out
    assert "antigreedy b = (-1, 1)" in out
    assert "(2, 2) = 2α1+2α2" in out


def test_tpaths_output(capsys):
    code, out, err = run(capsys, "tpaths", "--type", "A4",
                         "--coxeter", "3,2,1,4", "--root", "2,4")
    assert code == 0
    assert "5 paths" in out
    assert "crossing (2, 3, 4)" in out
    assert "F = y2*y3*y4 + y2*y3 + y3*y4 + y3 + 1" in out


def test_verify_output(capsys):
    code, out, err = run(capsys, "verify", "--type", "A2",
                         "--checks", "c-vectors,newton")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("PASS c-vectors")
    assert lines[1].startswith("PASS newton")
    assert "A2 c=1,2" in lines[0]


def test_verify_all(capsys):
    code, out, err = run(capsys, "verify", "--type", "A2")
    assert code == 0
    assert out.count("PASS") == 8


def test_custom_cartan_file(tmp_path, capsys):
    path = tmp_path / "cartan.json"
    path.write_text("[[2, -1], [-1, 2]]")
    code, out, err = run(capsys, "facets", "--cartan", str(path))
    assert code == 0
    assert out.splitlines()[0] == "type A2, coxeter 1,2"


@pytest.mark.parametrize("text", [
    "[[2, -1.7], [-1, 2]]",      # a float that int() would truncate
    "[[2, -1.0], [-1, 2]]",      # a float with an integer value
    '[[2, "-1"], [-1, 2]]',      # a string
    "[[2, false], [false, 2]]",   # bools, which int() would read as A1xA1
    "[2, -1]",                   # rows that are not sequences
])
def test_cartan_file_entries_must_be_integers(tmp_path, capsys, text):
    path = tmp_path / "cartan.json"
    path.write_text(text)
    code, out, err = run(capsys, "facets", "--cartan", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_rank_is_rejected_with_a_cartan_file(tmp_path, capsys):
    path = tmp_path / "a1xa1.json"
    path.write_text("[[2, 0], [0, 2]]")
    code, out, err = run(capsys, "facets", "--cartan", str(path), "--rank", "7")
    assert code == 2 and out == ""
    assert err.startswith("error: --rank")


@pytest.mark.parametrize("argv", [
    ("facets", "--type", "A2"),
    ("seeds", "--type", "A2"),
    ("fpoly", "--type", "A2"),
    ("brick", "--type", "A2"),
    ("tpaths", "--type", "A3", "--root", "1,2"),
    ("verify", "--type", "A2"),
])
def test_jobs_is_an_unrecognized_argument(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


@pytest.mark.parametrize("checks", [",", ""])
def test_empty_check_list_is_rejected(capsys, checks):
    code, out, err = run(capsys, "verify", "--type", "A2", "--checks", checks)
    assert code == 2 and out == ""
    assert err.startswith("error: no check selected; choose from c-vectors")


def test_run_checks_rejects_an_empty_selection():
    with pytest.raises(ValueError, match="no check selected"):
        run_checks(cartan_of_type("A", 2), (1, 2), ())


def test_resource_limit_exits_3(monkeypatch, capsys):
    lattice_points = LatticePolytope.lattice_points
    monkeypatch.setattr(LatticePolytope, "lattice_points",
                        lambda self, cap=1: lattice_points(self, cap))
    code, out, err = run(capsys, "verify", "--type", "A2", "--checks", "lattice")
    assert code == 3
    assert err.startswith("error: resource limit: bounding box has")


def test_emit_json_round_trip(tmp_path, capsys):
    target = tmp_path / "facets.json"
    code, out, err = run(capsys, "facets", "--type", "A2",
                         "--emit-json", str(target))
    assert code == 0
    text = target.read_text()
    payload = json.loads(text)
    assert payload["type"] == "A2"
    assert payload["coxeter"] == [1, 2]
    assert payload["facets"] == [[1, 2], [1, 5], [2, 3], [3, 4], [4, 5]]
    # the file is canonical: re-dumping reproduces it byte for byte
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == text


def test_emit_json_fpoly(tmp_path, capsys):
    target = tmp_path / "fpoly.json"
    code, out, err = run(capsys, "fpoly", "--type", "B2",
                         "--emit-json", str(target))
    assert code == 0
    payload = json.loads(target.read_text())
    assert len(payload["variables"]) == 4
    for row in payload["variables"]:
        assert set(row) == {"root", "root_name", "F", "g", "c", "d"}


def test_exit_code_two_on_malformed_input(capsys):
    bad_invocations = [
        ("facets", "--type", "H3"),
        ("facets", "--type", "E5"),
        ("facets",),
        ("facets", "--type", "A"),
        ("facets", "--type", "A2", "--rank", "3"),
        ("facets", "--type", "A2", "--coxeter", "1,3"),
        ("facets", "--type", "A2", "--coxeter", "1"),
        ("facets", "--type", "A2", "--coxeter", "1,x"),
        ("facets", "--cartan", "/no/such/file.json"),
        ("verify", "--type", "A2", "--checks", "bogus"),
        ("verify", "--type", "B2", "--checks", "typea"),
        ("tpaths", "--type", "B2", "--root", "1,2"),
        ("tpaths", "--type", "A2", "--root", "2,1"),
        ("tpaths", "--type", "A2", "--root", "1;2"),
        # not ASCII digits, though int() reads the first three as 2, 2 and 3
        ("facets", "--type", "A", "--rank", "0_2"),
        ("facets", "--type", "A2", "--coxeter", "1,+2"),
        ("facets", "--type", "B\u0663"),      # Arabic-Indic digit three
        ("facets", "--type", "B\u00b3"),      # superscript three
    ]
    for argv in bad_invocations:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv
    # int() rejects the superscript too, but with a message naming no flag
    assert argv[-1] == "B\u00b3" and "--type" in err


def test_type_and_cartan_conflict(tmp_path, capsys):
    path = tmp_path / "cartan.json"
    path.write_text("[[2, -1], [-1, 2]]")
    code, out, err = run(capsys, "facets", "--type", "A2",
                         "--cartan", str(path))
    assert code == 2


def test_jsonable_conversions():
    assert _jsonable(True) is True
    assert _jsonable(7) == 7
    big = 1 << 80
    assert _jsonable(big) == str(big)
    assert _jsonable(-big) == str(-big)
    assert _jsonable({(1, 2): {3, 1}}) == {"(1, 2)": [1, 3]}
    assert _jsonable([(1, (2,))]) == [[1, [2]]]


def test_root_string():
    assert root_string((1, 2, 0)) == "α1+2α2"
    assert root_string((-1, -1)) == "-α1-α2"
    assert root_string((0, 0)) == "0"
    assert root_string((0, -3, 1)) == "-3α2+α3"


def test_cli_import_leaves_out_thread_pools():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, clusterbrick.cli; "
         "print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "clusterbrick.cli", "facets", "--type", "A2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "5 facets" in proc.stdout

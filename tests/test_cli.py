"""Command line behavior: output, JSON emission, exit codes."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from clusterbrick import cli, polytope, roots
from clusterbrick.cli import _jsonable, main, root_string
from clusterbrick.errors import ResourceLimit
from clusterbrick.roots import cartan_of_type, cartan_rows, w_catalan
from clusterbrick.verify import Report, run_checks


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


@pytest.mark.parametrize("argv", [
    ("facets", "--type", "A2", "--rank", "3"),
    ("facets", "--type", "A", "--rank", "0_2"),
])
def test_rank_is_an_unrecognized_argument(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments: --rank" in capsys.readouterr().err


@pytest.mark.parametrize("checks", [",", ""])
def test_empty_check_list_is_rejected(capsys, checks):
    code, out, err = run(capsys, "verify", "--type", "A2", "--checks", checks)
    assert code == 2 and out == ""
    assert err.startswith("error: no check selected; choose from c-vectors")


def test_run_checks_rejects_an_empty_selection():
    with pytest.raises(ValueError, match="no check selected"):
        run_checks(cartan_of_type("A", 2), (1, 2), ())


def test_resource_limit_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(polytope, "BOX_CAP", 1)
    code, out, err = run(capsys, "verify", "--type", "A2", "--checks", "lattice")
    assert code == 3
    assert err.startswith("error: resource limit: bounding box has")


@pytest.mark.parametrize("label, facets", [
    ("A12", "at least 742,900"), ("B11", "705,432"), ("D11", "520,676"),
    ("A30", "at least 742,900"), ("A99999", "at least 742,900"),
    ("D" + "9" * 40, "at least 742,900")])
def test_types_over_the_facet_cap_are_refused_before_any_matrix(
        monkeypatch, capsys, label, facets):
    def unreachable(*args):
        raise AssertionError("a Cartan matrix was built")

    monkeypatch.setattr(cli, "cartan_of_type", unreachable)
    for command in ("facets", "seeds", "fpoly", "brick", "verify"):
        code, out, err = run(capsys, command, "--type", label)
        assert code == 3 and out == ""
        assert err == (f"error: resource limit: type {label} has {facets} facets, "
                       "over the cap of 250,000\n")
    assert cli.MAX_FACETS == 250_000
    # rank 12 is refused unread: A12 has the fewest facets there
    assert min(w_catalan(f, 12) for f in "ABCD") == w_catalan("A", 12) == 742_900


def test_tpaths_walks_no_facets_and_takes_a12(capsys):
    code, out, err = run(capsys, "tpaths", "--type", "A12", "--root", "11,12")
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "F = y11*y12 + y11 + 1"


def test_tpaths_builds_no_cartan_matrix(monkeypatch, capsys):
    def unreachable(rows):
        raise AssertionError("a Cartan matrix was validated")

    monkeypatch.setattr(roots, "_validate_cartan", unreachable)
    code, out, err = run(capsys, "tpaths", "--type", "A400", "--root", "3,5")
    assert code == 0 and err == ""
    assert out.splitlines()[0].startswith("type A400, coxeter 1,2,3,")
    assert out.splitlines()[-1] == "F = y3*y4*y5 + y3*y4 + y3 + 1"


def test_tpaths_takes_no_cartan_file(tmp_path, capsys):
    path = tmp_path / "a2.json"
    path.write_text("[[2, -1], [-1, 2]]")
    with pytest.raises(SystemExit) as exc:
        main(["tpaths", "--cartan", str(path), "--type", "A2", "--root", "1,2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cartan" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["tpaths", "--root", "1,2"])
    assert "required: --type" in capsys.readouterr().err


@pytest.mark.parametrize("label, facets", [
    ("A12", "at least 742,900"), ("B11", "705,432")])
def test_a_recognised_cartan_file_meets_the_facet_cap(tmp_path, capsys, label, facets):
    """A --cartan matrix that `type_label` names is capped like its --type."""
    path = tmp_path / "cartan.json"
    path.write_text(json.dumps(cartan_rows(label[0], int(label[1:]))))
    code, out, err = run(capsys, "facets", "--cartan", str(path))
    assert code == 3 and out == ""
    assert err == (f"error: resource limit: type {label} has {facets} facets, "
                   "over the cap of 250,000\n")


@pytest.mark.parametrize("label", ["B10", "C10", "D10", "A11", "E8"])
def test_types_under_the_facet_cap_are_built(monkeypatch, label):
    built = []
    monkeypatch.setattr(cli, "cartan_of_type", lambda *args: built.append(args))
    args = cli.build_parser().parse_args(["facets", "--type", label])
    cli._parse_cartan(args)
    assert built == [(label[0], int(label[1:]))]


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
        ("facets", "--type", "E99"),
        ("facets", "--type", "G" + "9" * 40),
        ("facets",),
        ("facets", "--type", "A"),
        ("facets", "--type", "A2", "--coxeter", "1,3"),
        ("facets", "--type", "A2", "--coxeter", "1"),
        ("facets", "--type", "A2", "--coxeter", "1,x"),
        ("facets", "--cartan", "/no/such/file.json"),
        ("verify", "--type", "A2", "--checks", "bogus"),
        ("verify", "--type", "B2", "--checks", "typea"),
        ("tpaths", "--type", "B2", "--root", "1,2"),
        ("tpaths", "--type", "A2", "--root", "2,1"),
        ("tpaths", "--type", "A2", "--root", "1;2"),
        ("tpaths", "--type", "A3", "--coxeter", "1,2", "--root", "1,2"),
        # not ASCII digits, though int() reads the first two as 2 and 3
        ("facets", "--type", "A2", "--coxeter", "1,+2"),
        ("facets", "--type", "B\u0663"),      # Arabic-Indic digit three
        ("facets", "--type", "B\u00b3"),      # superscript three
    ]
    for argv in bad_invocations:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv
        assert out == "", argv
    # int() rejects the superscript too, but with a message naming no flag
    assert argv[-1] == "B\u00b3" and "--type" in err


def test_a_deeply_nested_cartan_file_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 5000 + "]" * 5000)
    code, out, err = run(capsys, "facets", "--cartan", str(path))
    assert code == 2 and out == ""
    assert err == f"error: --cartan file {path} is nested too deeply\n"


def test_a_cartan_file_of_nested_brackets_gets_a_short_error_line(tmp_path, capsys):
    """The error line quotes the offending entry through a bounded repr,
    not the whole nested list."""
    path = tmp_path / "nested.json"
    path.write_text("[" * 900 + "]" * 900)
    code, out, err = run(capsys, "facets", "--cartan", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: entry ") and err.count("\n") == 1
    assert len(err.encode()) < 200


@pytest.mark.parametrize("where", [
    pytest.param("full", marks=pytest.mark.skipif(
        not Path("/dev/full").exists(), reason="needs /dev/full")),
    "missing directory",
])
def test_an_unwritable_emit_json_target_prints_nothing(tmp_path, capsys, where):
    """--emit-json is written before any line is printed: /dev/full fails
    only on write, a path in a missing directory on open."""
    target = "/dev/full" if where == "full" else str(tmp_path / "missing" / "out.json")
    code, out, err = run(capsys, "facets", "--type", "A3", "--emit-json", target)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv, name", [
    (("seeds", "--type", "A2"), "build_correspondence"),
    (("fpoly", "--type", "A2"), "build_correspondence"),
    (("brick", "--type", "A2"), "weight_diff_to_root_coords"),
    (("tpaths", "--type", "A3", "--root", "1,2"), "f_poly_via_tpaths"),
    (("verify", "--type", "A2"), "run_checks"),
])
def test_a_body_that_raises_prints_nothing(monkeypatch, capsys, argv, name):
    """Output is printed only once the command's body has returned, so a
    resource limit reached mid-run leaves no header line behind."""
    def exhausted(*args, **kwargs):
        raise ResourceLimit("exhausted")

    monkeypatch.setattr(cli, name, exhausted)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (3, "", "error: resource limit: exhausted\n")


def test_a_failed_report_exits_1(monkeypatch, tmp_path, capsys):
    def failing(cartan, c, names=None):
        return [Report("newton", "A2", c, False, {"root": [1, 0]})]

    monkeypatch.setattr(cli, "run_checks", failing)
    target = tmp_path / "verify.json"
    code, out, err = run(capsys, "verify", "--type", "A2", "--emit-json", str(target))
    assert code == 1 and err == ""
    assert out.splitlines() == ["FAIL newton     A2 c=1,2 (0.00s)",
                                "  counterexample: {'root': [1, 0]}"]
    assert json.loads(target.read_text())["reports"][0]["passed"] is False


@pytest.mark.parametrize("argv", [
    ("facets", "--type", "A3", "--coxeter", "1,3,2"),
    ("seeds", "--type", "B2"),
    ("fpoly", "--type", "B2"),
    ("brick", "--type", "A2"),
    ("tpaths", "--type", "A4", "--coxeter", "3,2,1,4", "--root", "2,4"),
    ("verify", "--type", "A2", "--checks", "c-vectors"),
])
def test_every_emitted_json_names_type_and_coxeter(tmp_path, capsys, argv):
    target = tmp_path / "out.json"
    code, out, err = run(capsys, *argv, "--emit-json", str(target))
    assert code == 0
    payload = json.loads(target.read_text())
    coxeter = argv[argv.index("--coxeter") + 1] if "--coxeter" in argv else "1,2"
    assert payload["type"] == argv[2]
    assert payload["coxeter"] == [int(x) for x in coxeter.split(",")]
    if argv[0] != "verify":
        assert out.splitlines()[0] == f"type {argv[2]}, coxeter {coxeter}"


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


def test_declared_console_script_resolves():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts == {"clusterbrick": "clusterbrick.cli:main"}
    module, _, attr = scripts["clusterbrick"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "clusterbrick.cli", "facets", "--type", "A2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "5 facets" in proc.stdout

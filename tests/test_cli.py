"""Command line behaviour: exit codes, determinism, golden reports; and the
package's exported names."""

import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import infrasolv
from infrasolv.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
# subprocesses find the package of this checkout, installed or not
SRC_ENV = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).parents[1] / "src")}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bundles_listing(capsys):
    code, out, _ = run(capsys, "bundles")
    assert code == 0
    names = [row["name"] for row in json.loads(out)["bundles"]]
    assert "torus3" in names and "sol3" in names


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", "half_turn")
    assert code == 0
    obj = json.loads(out)
    assert obj["valid"] and len(obj["input_sha256"]) == 64


def test_validate_unknown_name(capsys):
    code, out, err = run(capsys, "validate", "nope")
    assert code == 2 and out == "" and "builtin" in err


def test_validate_schema_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"name": "x"}))
    code, out, err = run(capsys, "validate", str(p))
    assert code == 2 and out == ""
    assert "invalid bundle" in err and "missing key" in err


def test_validate_broken_json(tmp_path, capsys):
    p = tmp_path / "garbled.json"
    p.write_text("{not json")
    code, _, err = run(capsys, "validate", str(p))
    assert code == 2 and "error" in err


def test_jordan_invertible(capsys):
    path = (pathlib.Path(__file__).parents[1] / "src" / "infrasolv" / "data"
            / "matrices" / "mixed2x2.json")
    code, out, _ = run(capsys, "jordan", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["decomposition"] == "multiplicative"
    assert obj["semisimple"] == [["2", "0"], ["0", "2"]]
    assert obj["unipotent"] == [["1", "1/2"], ["0", "1"]]


def test_jordan_singular(tmp_path, capsys):
    p = tmp_path / "n.json"
    p.write_text(json.dumps([[0, 1], [0, 0]]))
    code, out, _ = run(capsys, "jordan", str(p))
    assert code == 0
    obj = json.loads(out)
    assert obj["decomposition"] == "additive"
    assert obj["semisimple"] == [["0", "0"], ["0", "0"]]


@pytest.mark.parametrize("text, path", [
    ("5", "$"), ("[1, 2]", "$"), ("[[1.5]]", "$[0][0]"), ("[[null]]", "$[0][0]"),
    ('{"a": 1}', "$"), ('[["1/0"]]', "$[0][0]"), ("[[1, 2], [3]]", "$[1]"),
    ("[[true, false], [false, true]]", "$[0][0]"), ('[["1", false]]', "$[0][1]"),
    ("[[]]", "$")])
def test_jordan_rejects_malformed_matrix_files(text, path, tmp_path, capsys):
    p = tmp_path / "m.json"
    p.write_text(text)
    code, out, err = run(capsys, "jordan", str(p))
    assert code == 2 and out == ""
    assert f"invalid matrix: {path}:" in err
    assert "bundle" not in err and "Traceback" not in err


@pytest.mark.parametrize("argv, target", [
    (["validate"], "dir"), (["report"], "dir"), (["jordan"], "dir"),
    (["jordan"], "below a file")])
def test_unreadable_paths_are_bad_input(argv, target, tmp_path, capsys):
    path = tmp_path
    if target == "below a file":
        (tmp_path / "m.json").write_text("[[1]]")
        path = tmp_path / "m.json" / "x.json"  # opening it fails: not a directory
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize("where, path", [
    (("hull", "lie_algebra", "dim"), "$.hull.lie_algebra.dim"),
    (("hull", "lie_algebra", "brackets", 0, 2, 2),
     "$.hull.lie_algebra.brackets[0][2][2]"),
    (("gamma", "generators", 0, "hol_matrix", 0, 0),
     "$.gamma.generators[0].hol_matrix[0][0]"),
    (("gamma", "hirsch_rank"), "$.gamma.hirsch_rank")],
    ids=["dim", "bracket-coefficient", "matrix-entry", "hirsch-rank"])
def test_json_booleans_are_bad_input(where, path, tmp_path, capsys):
    obj = json.loads((pathlib.Path(__file__).parents[1] / "src" / "infrasolv" / "data"
                      / "bundles" / "heisenberg.json").read_text())
    node = obj
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = True
    p = tmp_path / "b.json"
    p.write_text(json.dumps(obj))
    for command in ("validate", "hull-check"):
        code, out, err = run(capsys, command, str(p))
        assert code == 2 and out == ""
        assert err.startswith(f"invalid bundle: {path}: "), err


def test_hull_check_pass_and_fail(capsys):
    code, out, _ = run(capsys, "hull-check", "heisenberg")
    assert code == 0 and json.loads(out)["passed"]
    code, out, _ = run(capsys, "hull-check", "corrupt_central_torus")
    assert code == 3
    obj = json.loads(out)
    assert not obj["passed"] and not obj["strong_radical_ok"]
    assert "strong_radical_witness" in obj


def test_free_check_witness(capsys):
    code, out, _ = run(capsys, "free-check", "nonfree_point_reflection",
                       "--radius", "2")
    assert code == 3
    obj = json.loads(out)
    assert obj["free"] is False
    assert obj["witness_word"] and obj["witness_point"] is not None


@pytest.mark.parametrize("command, bundle", [
    ("free-check", "nonfree_point_reflection"), ("orbit", "torus2")])
def test_negative_radius_is_rejected(command, bundle, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, bundle, "--radius", "-1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == "" and "nonnegative" in captured.err


@pytest.mark.parametrize("argv", [["betti", "torus3"],
                                  ["report", "torus3", "--radius", "1"]])
def test_max_dim_is_nonnegative_and_named_in_the_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--max-dim", "-1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == "" and "nonnegative" in captured.err
    code, out, err = run(capsys, *argv, "--max-dim", "2")
    assert code == 2 and out == ""
    assert "above the limit of dimension 2" in err


def test_orbit_sorted_and_bounded(capsys):
    code, out, _ = run(capsys, "orbit", "torus2", "--radius", "2")
    assert code == 0
    pts = [[Fraction(x) for x in p] for p in json.loads(out)["points"]]
    assert pts == sorted(pts)
    assert [0, 0] in pts and len(pts) == 13


def test_torus_rank(capsys):
    code, out, _ = run(capsys, "torus-rank", "torus3")
    assert code == 0 and json.loads(out)["torus_rank"] == 3


def test_betti_flags(capsys):
    code, out, _ = run(capsys, "betti", "hantzsche_wendt")
    assert code == 0
    obj = json.loads(out)
    assert obj["betti"] == [1, 3, 3, 1]
    assert obj["invariant_betti"] == [1, 0, 0, 1]
    assert obj["orientable"] and obj["duality_ok"]


def test_emit_action_degrees(capsys):
    code, out, _ = run(capsys, "emit-action", "heisenberg")
    assert code == 0
    obj = json.loads(out)
    assert obj["degree_bound"] == 2
    assert set(obj["maps"]) == {"x", "x^-1", "y", "y^-1", "z", "z^-1"}


def test_report_deterministic_and_parallel(capsys):
    runs = [run(capsys, "report", "sol3", "--radius", "3")[1],
            run(capsys, "report", "sol3", "--radius", "3")[1]]
    assert runs[0] == runs[1]
    assert "expect_mismatches" not in json.loads(runs[0])


def test_report_exit_on_failing_bundle(capsys):
    code, out, _ = run(capsys, "report", "corrupt_central_torus",
                       "--radius", "2")
    assert code == 3
    assert not json.loads(out)["hull"]["passed"]


@pytest.mark.parametrize("name", ["torus2", "klein_bottle", "heisenberg_infra"])
def test_golden_reports(name, capsys):
    code, out, _ = run(capsys, "report", name, "--radius", "4")
    assert code == 0
    assert out == (GOLDEN / f"{name}_report.json").read_text()


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "infrasolv.cli", "bundles"],
                          capture_output=True, text=True, timeout=60, env=SRC_ENV)
    assert proc.returncode == 0
    assert "klein_bottle" in proc.stdout


def test_closed_stdout_exits_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before anything is written
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "infrasolv.cli", "orbit", "torus2", "--radius", "2"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            env=SRC_ENV)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_every_export_resolves():
    missing = [name for name in infrasolv.__all__ if not hasattr(infrasolv, name)]
    assert missing == []
    assert len(set(infrasolv.__all__)) == len(infrasolv.__all__)

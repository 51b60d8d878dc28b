"""Bundle registry and schema validation."""

import copy
import json
import sys

import pytest

from infrasolv import bundles, hull, jordan, schema
from infrasolv.cli import main
from infrasolv.linalg import RationalMatrix
from infrasolv.schema import SchemaError, load_bundle

EXPECT_KEYS = {"free", "axioms", "betti", "invariant_betti", "torus_rank",
               "orientable"}


def test_builtin_names_stable():
    names = bundles.builtin_names()
    assert names[0] == "torus2"
    assert "corrupt_central_torus" in names
    assert len(names) == len(set(names)) == 10


def test_all_builtins_load():
    for name in bundles.builtin_names():
        b = bundles.load(name)
        assert b.name == name
        assert b.description
        assert EXPECT_KEYS <= set(b.expect)
        assert b.hull.algebra.dim == len(b.expect["betti"]) - 1


def test_descriptions_cover_all():
    desc = bundles.descriptions()
    assert set(desc) == set(bundles.builtin_names())
    assert all(desc.values())


def test_load_by_path(tmp_path):
    raw = bundles.bundle_bytes("klein_bottle")
    p = tmp_path / "kb.json"
    p.write_bytes(raw)
    b = bundles.load(str(p))
    assert b.name == "klein_bottle"
    assert bundles.bundle_bytes(str(p)) == raw


def test_unknown_name_lists_builtins():
    with pytest.raises(FileNotFoundError) as exc:
        bundles.bundle_bytes("no_such_bundle")
    assert "torus2" in str(exc.value)


@pytest.fixture
def good():
    return json.loads(bundles.bundle_bytes("heisenberg"))


def _expect_error(obj, path_fragment):
    with pytest.raises(SchemaError) as exc:
        load_bundle(obj)
    assert path_fragment in exc.value.path, exc.value


def test_schema_missing_hull(good):
    del good["hull"]
    _expect_error(good, "$")


def test_schema_ragged_matrix(good):
    bad = copy.deepcopy(good)
    bad["hull"]["lie_algebra"]["ambient"][0][0].pop()
    _expect_error(bad, "hull.lie_algebra.ambient[0]")


def test_schema_zero_width_matrix_is_ragged_or_empty(good, tmp_path, capsys):
    good["hull"]["lie_algebra"]["ambient"][0] = [[]]
    p = tmp_path / "b.json"
    p.write_text(json.dumps(good))
    assert main(["validate", str(p)]) == 2
    assert capsys.readouterr().err == \
        "invalid bundle: $.hull.lie_algebra.ambient[0]: ragged or empty rows\n"


def test_schema_bad_fraction_string(good):
    bad = copy.deepcopy(good)
    bad["gamma"]["generators"][0]["translation_matrix"][0][1] = "1/2/3"
    _expect_error(bad, "translation_matrix")


def test_schema_duplicate_generator_names(good):
    bad = copy.deepcopy(good)
    bad["gamma"]["generators"][1]["name"] = bad["gamma"]["generators"][0]["name"]
    _expect_error(bad, "gamma.generators")


def test_schema_unknown_fitting_label(good):
    bad = copy.deepcopy(good)
    bad["gamma"]["fitting_labels"] = ["nobody"]
    _expect_error(bad, "gamma.fitting_labels")


def test_schema_relator_not_string(good):
    bad = copy.deepcopy(good)
    bad["gamma"]["relators"] = [17]
    _expect_error(bad, "gamma.relators[0]")


def test_schema_wrong_type_reports_key(good):
    bad = copy.deepcopy(good)
    bad["gamma"]["hirsch_rank"] = "four"
    _expect_error(bad, "gamma.hirsch_rank")


def test_schema_non_object():
    _expect_error([1, 2, 3], "$")


def test_schema_rejects_broken_relator(good):
    bad = copy.deepcopy(good)
    bad["gamma"]["relators"].append("x y")
    with pytest.raises(SchemaError):
        load_bundle(bad)


@pytest.mark.parametrize("where, value, path", [
    (("gamma", "generators", 0, "translation_matrix", 0, 1), True,
     "$.gamma.generators[0].translation_matrix[0][1]"),
    (("hull", "u_generators", 1, 2, 2), True, "$.hull.u_generators[1][2][2]"),
    (("hull", "lie_algebra", "brackets", 0, 2, 2), True,
     "$.hull.lie_algebra.brackets[0][2][2]"),
    (("hull", "lie_algebra", "brackets", 0, 0), False,
     "$.hull.lie_algebra.brackets[0][0]"),
    (("hull", "lie_algebra", "brackets", 0, 1), True,
     "$.hull.lie_algebra.brackets[0][1]"),
    (("hull", "lie_algebra", "dim"), True, "$.hull.lie_algebra.dim"),
    (("gamma", "hirsch_rank"), True, "$.gamma.hirsch_rank")],
    ids=["matrix-entry", "u-generator-entry", "bracket-coefficient", "bracket-i",
         "bracket-j", "dim", "hirsch-rank"])
def test_schema_rejects_booleans_as_integers(good, where, value, path):
    node = good
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    with pytest.raises(SchemaError) as exc:
        load_bundle(good)
    assert exc.value.path == path, exc.value


@pytest.mark.parametrize("labels, path", [
    ("xyz", "$.hull.lie_algebra.labels"),
    ({"a": 1, "b": 2, "c": 3}, "$.hull.lie_algebra.labels"),
    ([True, 1, None], "$.hull.lie_algebra.labels[0]"),
    (["x", "y", 3], "$.hull.lie_algebra.labels[2]")],
    ids=["string", "object", "non-strings", "one-non-string"])
def test_schema_rejects_labels_that_are_not_strings(good, labels, path, tmp_path, capsys):
    good["hull"]["lie_algebra"]["labels"] = labels
    with pytest.raises(SchemaError) as exc:
        load_bundle(good)
    assert exc.value.path == path, exc.value
    p = tmp_path / "b.json"
    p.write_text(json.dumps(good))
    assert main(["validate", str(p)]) == 2
    assert capsys.readouterr().err.startswith(f"invalid bundle: {path}: ")


def test_schema_label_list_loads_and_its_count_is_checked(good):
    good["hull"]["lie_algebra"]["labels"] = ["x", "y", "z"]
    assert load_bundle(good).hull.algebra.labels == ("x", "y", "z")
    good["hull"]["lie_algebra"]["labels"] = ["x", "y"]
    with pytest.raises(SchemaError, match="label count does not match dimension") as exc:
        load_bundle(good)
    assert exc.value.path == "$.hull.lie_algebra"


def test_schema_empty_label_list_is_a_wrong_count(good, tmp_path, capsys):
    good["hull"]["lie_algebra"]["labels"] = []
    p = tmp_path / "b.json"
    p.write_text(json.dumps(good))
    assert main(["validate", str(p)]) == 2
    assert capsys.readouterr().err == ("invalid bundle: $.hull.lie_algebra: algebra "
                                       "rejected: label count does not match dimension\n")
    del good["hull"]["lie_algebra"]["labels"]
    assert load_bundle(good).hull.algebra.labels == ("e1", "e2", "e3")


def _count_calls(monkeypatch, function):
    """Counts calls of `function` through every binding in the package."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return function(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "infrasolv" and \
                getattr(module, function.__name__, None) is function:
            monkeypatch.setattr(module, function.__name__, counted)
    return calls


@pytest.mark.parametrize("name", bundles.builtin_names())
def test_loading_checks_each_fact_once(name, monkeypatch):
    obj = json.loads(bundles.bundle_bytes(name))
    h, gens = obj["hull"], obj["gamma"]["generators"]
    unipotent = _count_calls(monkeypatch, jordan.is_unipotent)
    conjugations = _count_calls(monkeypatch, hull.hol_from_ambient)
    matrices = _count_calls(monkeypatch, schema.matrix)
    reparsed = []
    monkeypatch.setattr(RationalMatrix, "from_json",
                        lambda rows: reparsed.append(1) or RationalMatrix(rows))
    load_bundle(obj)
    # unip_log's series is its own unipotence check
    assert len(unipotent) == len(h["u_generators"])
    assert len(conjugations) == len(h["t_generators"])
    assert len(matrices) == (len(h["lie_algebra"]["ambient"]) + len(h["u_generators"])
                             + len(h["t_generators"]) + len(h["hol_matrices"])
                             + 2 * len(gens))
    assert reparsed == []

"""Seeded fuzzing of the command line: one field of a built-in input is
replaced by a hostile value, and every command on the result must end in
exit code 0, 2 or 3 with no exception escaping."""

import copy
import json
import pathlib
import random

import pytest

from infrasolv import bundles
from infrasolv.cli import main

SEED = 5
VALUES = (0, -1, "1/2", "x", 1.5, None, [], {}, [[1]], "1/0", 10 ** 6)
# each command runs as [name, input path, *options]
BUNDLE_COMMANDS = (("validate",), ("hull-check",), ("free-check", "--radius", "2"),
                   ("betti",), ("emit-action",), ("torus-rank",), ("lie-closure",))
MATRIX_COMMANDS = (("jordan",),)
MATRICES = sorted((pathlib.Path(__file__).parents[1] / "src" / "infrasolv" / "data"
                   / "matrices").glob("*.json"))


def _positions(obj, path=()):
    """Paths to every node of a JSON tree, the root first."""
    yield path
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _positions(val, path + (key,))
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            yield from _positions(val, path + (i,))


def _mutated(obj, rng):
    """A copy of obj with one node (not the root) replaced, and its path."""
    path = rng.choice(list(_positions(obj))[1:])
    out = copy.deepcopy(obj)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = rng.choice(VALUES)
    return out, path


def _cases(seed, bundle_count, matrix_count):
    rng = random.Random(seed)
    cases = []
    for _ in range(bundle_count):
        name = rng.choice(bundles.builtin_names())
        obj, path = _mutated(json.loads(bundles.bundle_bytes(name)), rng)
        cases.append((f"{name}{list(path)}", obj, BUNDLE_COMMANDS))
    for _ in range(matrix_count):
        src = rng.choice(MATRICES)
        obj, path = _mutated(json.loads(src.read_text()), rng)
        cases.append((f"{src.stem}{list(path)}", obj, MATRIX_COMMANDS))
    return cases


CASES = _cases(SEED, 60, 12)


@pytest.mark.parametrize("label, obj, commands", CASES,
                         ids=[f"case{i}" for i in range(len(CASES))])
def test_mutated_input_exits_with_a_known_code(label, obj, commands, tmp_path, capsys):
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(obj))
    for name, *options in commands:
        argv = [name, str(path), *options]
        code = main(argv)
        capsys.readouterr()
        assert code in (0, 2, 3), (label, argv, code)

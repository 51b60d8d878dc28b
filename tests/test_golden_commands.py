"""Byte-level guard of the command line.

tests/golden/commands.json holds the SHA-256 of stdout and of stderr, and
the exit code, of every bundle command on every built-in bundle, of
`free-check` and `orbit` at radius 4 on every built-in, and of `validate`
on malformed copies of the `heisenberg` bundle. Each case runs in-process
and must reproduce its three values exactly.

Regenerate the file, only when an output change is intended, with

    PYTHONPATH=src python tests/test_golden_commands.py
"""

import contextlib
import copy
import hashlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from infrasolv import bundles
from infrasolv.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "commands.json"
COMMANDS = ("validate", "lie-closure", "hull-check", "emit-action", "free-check",
            "orbit", "torus-rank", "betti", "report")
RADIUS_COMMANDS = ("free-check", "orbit", "report")
WIDE_RADIUS_COMMANDS = ("free-check", "orbit")

_I3 = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
_SWAP13 = [["0", "0", "1"], ["0", "1", "0"], ["1", "0", "0"]]


def _hull(obj):
    return obj["hull"]


def _algebra(obj):
    return obj["hull"]["lie_algebra"]


def _gen(obj, k=0):
    return obj["gamma"]["generators"][k]


def _with_t(t, hol=_I3):
    """Adds one T generator, with hol_matrices [hol] or, for None, none."""
    def mutate(obj):
        _hull(obj)["t_generators"] = [t]
        if hol is None:
            del _hull(obj)["hol_matrices"]
        else:
            _hull(obj)["hol_matrices"] = [hol]
    return mutate


# name -> in-place mutation of a copy of the heisenberg bundle
MUTATIONS = {
    "ragged-ambient": lambda o: _algebra(o)["ambient"][0][0].pop(),
    "bad-fraction": lambda o: _gen(o)["translation_matrix"][0].__setitem__(1, "1/2/3"),
    "zero-denominator": lambda o: _hull(o)["u_generators"][0][0].__setitem__(1, "1/0"),
    "missing-u-generators": lambda o: _hull(o).pop("u_generators"),
    "missing-ambient": lambda o: _algebra(o).pop("ambient"),
    "short-bracket-triple": lambda o: _algebra(o)["brackets"].__setitem__(0, [0, 1]),
    "short-bracket-vector": lambda o: _algebra(o)["brackets"][0].__setitem__(2, ["1"]),
    "unordered-bracket-key": lambda o: _algebra(o)["brackets"][0].__setitem__(0, 1),
    "jacobi": lambda o: _algebra(o)["brackets"].append([0, 2, ["1", "0", "0"]]),
    "dim-mismatch": lambda o: _algebra(o).__setitem__("dim", 4),
    "dependent-ambient": lambda o: _algebra(o)["ambient"].__setitem__(
        2, _algebra(o)["ambient"][0]),
    "non-unipotent-u-generator": lambda o: _hull(o)["u_generators"][0][0].__setitem__(0, "2"),
    "u-generator-outside": lambda o: _hull(o)["u_generators"].__setitem__(
        0, [["1", "0", "0"], ["1", "1", "0"], ["0", "0", "1"]]),
    "wrong-size-t": _with_t([["1", "0"], ["0", "1"]]),
    "wrong-size-t-no-hol": _with_t([["1", "0"], ["0", "1"]], None),
    "non-normalizing-t": _with_t(_SWAP13),
    "non-normalizing-t-no-hol": _with_t(_SWAP13, None),
    "non-semisimple-t": _with_t([["1", "1", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
    "hol-disagrees": _with_t([["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1"]]),
    "hol-count": lambda o: _hull(o).__setitem__("hol_matrices", [_I3]),
    "non-unipotent-translation": lambda o: _gen(o)["translation_matrix"][0].__setitem__(0, "2"),
    "translation-outside": lambda o: _gen(o).__setitem__(
        "translation_matrix", [["1", "0", "0"], ["1", "1", "0"], ["0", "0", "1"]]),
    "non-automorphism-hol": lambda o: _gen(o)["hol_matrix"][2].__setitem__(2, "2"),
    "wrong-size-hol": lambda o: _gen(o).__setitem__("hol_matrix", [["1", "0"], ["0", "1"]]),
    "generator-not-object": lambda o: o["gamma"]["generators"].__setitem__(0, 3),
    "broken-relator": lambda o: o["gamma"]["relators"].append("x y"),
    "unknown-letter": lambda o: o["gamma"]["relators"].append("q"),
}


def cases():
    """Case name -> (argv with the bundle as a placeholder, mutation or None)."""
    out = {}
    for name in bundles.builtin_names():
        for command in COMMANDS:
            opts = ["--radius", "2"] if command in RADIUS_COMMANDS else []
            out[" ".join([command, name, *opts])] = ([command, name, *opts], None)
        for command in WIDE_RADIUS_COMMANDS:
            argv = [command, name, "--radius", "4"]
            out[" ".join(argv)] = (argv, None)
    for label, mutate in MUTATIONS.items():
        out[f"validate heisenberg[{label}]"] = (["validate", "heisenberg"], mutate)
    return out


def outcome(argv, mutate, workdir):
    """Exit code and the SHA-256 of stdout and stderr of one in-process run."""
    if mutate is not None:
        obj = copy.deepcopy(json.loads(bundles.bundle_bytes(argv[1])))
        mutate(obj)
        path = pathlib.Path(workdir) / "mutated.json"
        path.write_text(json.dumps(obj))
        argv = [argv[0], str(path), *argv[2:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest()}


CASES = cases()


@pytest.mark.parametrize("case", sorted(CASES))
def test_command_output_matches_golden(case, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    argv, mutate = CASES[case]
    assert outcome(argv, mutate, tmp_path) == golden[case]


def test_golden_covers_exactly_the_cases():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {case: outcome(*CASES[case], tmp) for case in sorted(CASES)}
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(table)} cases to {GOLDEN}\n")

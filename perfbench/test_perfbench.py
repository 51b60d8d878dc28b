"""Fast tests of the benchmark itself: its checks, its tracer, its inputs.

Run with ``python3 -m pytest perfbench`` from the root of a checkout.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import algebras  # noqa: E402
from layers import METRICS, Tracer  # noqa: E402
from workloads import Ball, Commands, Forms  # noqa: E402

# A few jobs of each workload, and the per-layer metrics they must move.
BALL_JOBS = ("free nonfree_point_reflection 2", "orbit torus3 2",
             "free heisenberg 2", "orbit heisenberg 2")
FORMS_JOBS = ("abelian4-diag", "heisenberg5-perm", "filiform5-none")
COMMAND_JOBS = ("validate torus2", "lie-closure torus2", "hull-check torus2",
                "hull-check corrupt_central_torus", "emit-action torus2",
                "free-check nonfree_point_reflection 3", "orbit torus2 3",
                "torus-rank torus2", "betti klein_bottle",
                "report nonfree_point_reflection 3", "jordan")
NONZERO_ON = {
    "ball": ("schema.load", "actions.evaluate_word", "actions.compose",
             "actions.ball", "actions.fixed_point", "actions.pmap",
             "actions.apply", "lie.exp_log", "jordan.unipotent",
             "linalg.matmul", "polynomial.substitute"),
    "forms": ("cohomology.complex", "cohomology.action", "cohomology.invariant",
              "linalg.rank", "linalg.det"),
    "commands": ("schema.load", "actions.evaluate_word", "actions.pmap",
                 "lie.closure", "hull.axiom_check", "hull.strong_radical",
                 "linalg.solve", "linalg.kernel"),
}


@pytest.fixture(scope="module")
def ball():
    wl = Ball(1)
    inputs = wl.load()
    return wl, inputs, dict(wl.jobs(inputs))


@pytest.fixture(scope="module")
def forms():
    wl = Forms(1)
    inputs = wl.load()
    return wl, inputs, dict(wl.jobs(inputs))


@pytest.fixture(scope="module")
def commands():
    wl = Commands(1)
    inputs = wl.load()
    return wl, inputs, dict(wl.jobs(inputs))


def _run(workload, names):
    wl, inputs, jobs = workload
    return {name: jobs[name]() for name in names}


def _traced(workload, names):
    """Per-layer metrics of the set-up and the named jobs, and their outputs."""
    wl, inputs, jobs = workload
    tracer = Tracer()
    tracer.install()
    try:
        tracer.recording = True
        wl.load()
        outputs = {name: jobs[name]() for name in names}
    finally:
        tracer.recording = False
        tracer.uninstall()
    return tracer.metrics(), outputs


def test_checks_pass_on_a_tiny_job_list(ball, forms, commands):
    for workload, names in ((ball, BALL_JOBS), (forms, FORMS_JOBS),
                            (commands, COMMAND_JOBS)):
        wl, inputs, _ = workload
        for name, result in _run(workload, names).items():
            assert wl.check(name, result, inputs) == [], name


def test_job_lists_are_fixed_and_seed_ordered():
    a, b = Commands(1), Commands(2)
    assert sorted(a.argvs()) == sorted(b.argvs()) and a.argvs() != b.argvs()
    assert len(a.argvs()) == 91
    assert [i["name"] for i in Forms(1).inputs] == [i["name"] for i in Forms(5).inputs]
    assert Forms(3).inputs == Forms(3).inputs


def test_ball_checks_reject_tampered_answers(ball):
    wl, inputs, _ = ball
    out = _run(ball, ("free nonfree_point_reflection 2", "orbit torus3 2",
                      "orbit heisenberg 2"))
    res = out["free nonfree_point_reflection 2"]
    moved = tuple(x + 1 for x in res.witness_point)
    assert wl.check("free nonfree_point_reflection 2",
                    dataclasses.replace(res, witness_point=moved), inputs)
    assert wl.check("free nonfree_point_reflection 2",
                    dataclasses.replace(res, free=True), inputs)
    pts = list(out["orbit torus3 2"])
    pts[-1] = tuple(x + Fraction(1, 2) for x in pts[-1])
    assert wl.check("orbit torus3 2", sorted(pts), inputs)
    assert wl.check("orbit torus3 2", pts[:-1], inputs)
    heis = list(out["orbit heisenberg 2"])
    assert wl.check("orbit heisenberg 2", heis[1:] + heis[:1], inputs)


def test_forms_checks_reject_tampered_answers(forms):
    wl, inputs, _ = forms
    for name in FORMS_JOBS:
        betti, rep = _run(forms, (name,))[name]
        wrong = list(betti)
        wrong[2] += 1
        assert wl.check(name, (tuple(wrong), rep), inputs)
        ranks = list(rep.ranks)
        ranks[1] += 1
        assert wl.check(name, (betti, dataclasses.replace(rep, ranks=tuple(ranks))),
                        inputs)
        assert wl.check(name, (betti, dataclasses.replace(rep, orientable=not rep.orientable)),
                        inputs)


def test_commands_checks_reject_tampered_answers(commands):
    wl, inputs, _ = commands
    out = _run(commands, ("betti klein_bottle", "free-check nonfree_point_reflection 3",
                          "orbit torus2 3"))
    code, stdout, err = out["betti klein_bottle"]
    obj = json.loads(stdout)
    obj["invariant_betti"] = [1, 1, 1]
    assert wl.check("betti klein_bottle", (code, json.dumps(obj), err), inputs)
    code, stdout, err = out["free-check nonfree_point_reflection 3"]
    assert wl.check("free-check nonfree_point_reflection 3", (0, stdout, err), inputs)
    code, stdout, err = out["orbit torus2 3"]
    obj = json.loads(stdout)
    obj["points"][0] = ["7", "7"]
    assert wl.check("orbit torus2 3", (code, json.dumps(obj), err), inputs)


def test_every_layer_metric_moves_on_its_workload(ball, forms, commands):
    names = {"ball": BALL_JOBS, "forms": FORMS_JOBS, "commands": COMMAND_JOBS}
    workloads = {"ball": ball, "forms": forms, "commands": commands}
    counters = {"ball": ("ball_elements", "ball_new_per_compose"),
                "forms": ("complex_forms",), "commands": ()}
    covered = set()
    for w, layers in NONZERO_ON.items():
        metrics, _ = _traced(workloads[w], names[w])
        for metric, (source, _unit) in METRICS.items():
            if source in counters[w] or (isinstance(source, tuple) and source[0] in layers):
                assert metrics[metric]["value"] > 0, (w, metric)
                covered.add(metric)
    assert covered == set(METRICS)


def test_tracing_changes_no_output_and_counts_repeat(commands, ball):
    plain = _run(commands, COMMAND_JOBS)
    first, traced = _traced(commands, COMMAND_JOBS)
    assert {k: v[:2] for k, v in traced.items()} == {k: v[:2] for k, v in plain.items()}
    second, _ = _traced(commands, COMMAND_JOBS)
    counts = [{k: v["value"] for k, v in m.items() if v["unit"] != "s"}
              for m in (first, second)]
    assert counts[0] == counts[1]
    assert _traced(ball, BALL_JOBS[:1])[1] == _run(ball, BALL_JOBS[:1])


def test_uninstall_restores_every_binding():
    import infrasolv.cli  # noqa: F401
    from layers import TARGETS
    modules = {n: dict(vars(m)) for n, m in sys.modules.items()
               if n == "infrasolv" or n.startswith("infrasolv.")}
    classes = {getattr(sys.modules[mod], owner) for mod, owner, _ in TARGETS.values()
               if owner is not None}
    before = {cls: dict(vars(cls)) for cls in classes}
    tracer = Tracer()
    tracer.install()
    assert sys.modules["infrasolv.cli"].hull_axiom_check is not \
        modules["infrasolv.cli"]["hull_axiom_check"]
    tracer.uninstall()
    for name, attrs in modules.items():
        after = vars(sys.modules[name])
        assert all(after[k] is v for k, v in attrs.items()), name
    for cls, attrs in before.items():
        assert all(vars(cls)[k] is v for k, v in attrs.items()), cls


def test_character_averages_match_fixed_form_counts():
    for inp in algebras.generate(7):
        n, gens = inp["dim"], inp["gens"]
        dims = algebras.invariant_form_dims(gens, n)
        assert dims[0] == 1
        assert dims == [algebras.fixed_form_count(gens, n, k) for k in range(n + 1)]

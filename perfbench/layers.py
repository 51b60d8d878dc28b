"""Per-layer tracing of infrasolv from outside the package.

A Tracer wraps public functions and methods of the loaded ``infrasolv``
modules and counts calls and time for each layer. Methods are wrapped on
their class; a function that other modules import by name is replaced at
every binding, so calls through any module's globals are seen. Nothing in
``src/`` changes, and ``uninstall`` restores every original object.

Each wrapped call pushes a frame on a stack. Its inclusive time goes to its
layer (outermost calls only, so a layer that recurses is not counted
twice), and its duration is charged to the enclosing frame as child time,
so a layer's self time is its duration minus the wrapped calls nested in
it. Totals are also kept per job, and calls of the coarse layers are kept
as spans carrying the job they ran in.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# layer name -> (module, owner attribute or None, attribute names).
# owner None: module-level functions, replaced at every binding.
TARGETS = {
    "schema.load": ("infrasolv.schema", None, ("load_bundle",)),
    "actions.evaluate_word": ("infrasolv.actions", "GammaActionData", ("evaluate_word",)),
    "actions.compose": ("infrasolv.actions", "AffineElement", ("compose",)),
    "actions.ball": ("infrasolv.actions", "GammaActionData", ("enumerate_ball",)),
    "actions.fixed_point": ("infrasolv.actions", None, ("fixed_point_solve",)),
    "actions.pmap": ("infrasolv.actions", "AffineElement", ("as_polynomial_map",)),
    "actions.apply": ("infrasolv.actions", "AffineElement", ("apply",)),
    "lie.exp_log": ("infrasolv.lie", None, ("nilp_exp", "unip_log")),
    "jordan.unipotent": ("infrasolv.jordan", None, ("is_unipotent",)),
    "lie.closure": ("infrasolv.lie", None, ("lie_closure",)),
    "hull.axiom_check": ("infrasolv.hull", None, ("hull_axiom_check",)),
    "hull.strong_radical": ("infrasolv.hull", None, ("strong_radical_check",)),
    "cohomology.complex": ("infrasolv.cohomology", "CEComplex", ("__init__",)),
    "cohomology.action": ("infrasolv.cohomology", "CEComplex", ("action_matrices",)),
    "cohomology.invariant": ("infrasolv.cohomology", None, ("invariant_cohomology_ranks",)),
    "linalg.rank": ("infrasolv.linalg", None, ("rank",)),
    "linalg.det": ("infrasolv.linalg", "RationalMatrix", ("det",)),
    "linalg.solve": ("infrasolv.linalg", None, ("solve",)),
    "linalg.kernel": ("infrasolv.linalg", None, ("kernel",)),
    "linalg.matmul": ("infrasolv.linalg", "RationalMatrix", ("__mul__",)),
    "polynomial.substitute": ("infrasolv.polynomial", "MPoly", ("substitute",)),
}

# Layers called so often that only their totals are kept, not their spans.
FINE = {"actions.compose", "actions.ball", "actions.pmap", "actions.apply",
        "lie.exp_log", "jordan.unipotent", "linalg.rank", "linalg.det",
        "linalg.solve", "linalg.kernel", "linalg.matmul",
        "polynomial.substitute"}

# Per-layer metric -> (layer statistic, unit). The statistic is a layer's
# "calls", "s" (inclusive) or "self_s", or a named counter.
METRICS = {
    "schema.load_calls": (("schema.load", "calls"), "count"),
    "schema.load_s": (("schema.load", "s"), "s"),
    "actions.evaluate_word_calls": (("actions.evaluate_word", "calls"), "count"),
    "actions.evaluate_word_s": (("actions.evaluate_word", "s"), "s"),
    "actions.compose_calls": (("actions.compose", "calls"), "count"),
    "actions.compose_s": (("actions.compose", "s"), "s"),
    "actions.compose_self_s": (("actions.compose", "self_s"), "s"),
    "actions.ball_elements": ("ball_elements", "count"),
    "actions.ball_new_per_compose": ("ball_new_per_compose", "ratio"),
    "actions.fixed_point_calls": (("actions.fixed_point", "calls"), "count"),
    "actions.fixed_point_s": (("actions.fixed_point", "s"), "s"),
    "actions.fixed_point_self_s": (("actions.fixed_point", "self_s"), "s"),
    "actions.pmap_calls": (("actions.pmap", "calls"), "count"),
    "actions.pmap_s": (("actions.pmap", "s"), "s"),
    "actions.apply_calls": (("actions.apply", "calls"), "count"),
    "actions.apply_s": (("actions.apply", "s"), "s"),
    "lie.exp_log_calls": (("lie.exp_log", "calls"), "count"),
    "lie.exp_log_s": (("lie.exp_log", "s"), "s"),
    "jordan.unipotent_checks": (("jordan.unipotent", "calls"), "count"),
    "lie.closure_calls": (("lie.closure", "calls"), "count"),
    "lie.closure_s": (("lie.closure", "s"), "s"),
    "hull.axiom_check_s": (("hull.axiom_check", "s"), "s"),
    "hull.strong_radical_s": (("hull.strong_radical", "s"), "s"),
    "cohomology.complex_calls": (("cohomology.complex", "calls"), "count"),
    "cohomology.complex_forms": ("complex_forms", "count"),
    "cohomology.complex_s": (("cohomology.complex", "s"), "s"),
    "cohomology.action_calls": (("cohomology.action", "calls"), "count"),
    "cohomology.action_s": (("cohomology.action", "s"), "s"),
    "cohomology.invariant_s": (("cohomology.invariant", "s"), "s"),
    "linalg.rank_calls": (("linalg.rank", "calls"), "count"),
    "linalg.rank_s": (("linalg.rank", "s"), "s"),
    "linalg.det_calls": (("linalg.det", "calls"), "count"),
    "linalg.det_s": (("linalg.det", "s"), "s"),
    "linalg.solve_calls": (("linalg.solve", "calls"), "count"),
    "linalg.solve_s": (("linalg.solve", "s"), "s"),
    "linalg.kernel_calls": (("linalg.kernel", "calls"), "count"),
    "linalg.kernel_s": (("linalg.kernel", "s"), "s"),
    "linalg.matmul_calls": (("linalg.matmul", "calls"), "count"),
    "linalg.matmul_s": (("linalg.matmul", "s"), "s"),
    "polynomial.substitute_calls": (("polynomial.substitute", "calls"), "count"),
    "polynomial.substitute_s": (("polynomial.substitute", "s"), "s"),
}


class Tracer:
    """Counts and times calls into infrasolv's layers while recording."""

    def __init__(self):
        self.recording = False
        self.job = None
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, incl_s, self_s
        self.per_job = defaultdict(lambda: [0, 0.0])  # (job, layer) -> calls, self_s
        self.counters = defaultdict(int)
        self.spans = []
        self._stack = []  # frames: [child_s, layer]
        self._depth = defaultdict(int)
        self._restore = []

    # -------------------------------------------------------------- install

    def install(self):
        """Wrap every target; the ``infrasolv`` modules must be imported."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "infrasolv"
                                         or name.startswith("infrasolv."))]
        for layer, (modname, owner, attrs) in TARGETS.items():
            module = sys.modules[modname]
            for attr in attrs:
                if owner is not None:
                    cls = getattr(module, owner)
                    orig = cls.__dict__[attr]
                    setattr(cls, attr, self._wrap(layer, orig))
                    self._restore.append((cls, attr, orig))
                    continue
                orig = getattr(module, attr)
                wrapper = self._wrap(layer, orig)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, name, wrapper)
                            self._restore.append((mod, name, orig))

    def uninstall(self):
        for target, name, orig in reversed(self._restore):
            setattr(target, name, orig)
        self._restore = []

    def _wrap(self, layer, fn):
        if layer == "actions.ball":
            return self._wrap_ball(fn)
        stack, depth, stats = self._stack, self._depth, self.stats
        coarse = layer not in FINE
        is_compose = layer == "actions.compose"
        is_complex = layer == "cohomology.complex"

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            if is_compose and stack and stack[-1][1] == "actions.ball":
                self.counters["ball_composes"] += 1
            if is_complex:
                self.counters["complex_forms"] += 2 ** args[1].dim
            frame = [0.0, layer]
            stack.append(frame)
            depth[layer] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(layer, frame, t0, perf_counter() - t0, coarse)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_ball(self, fn):
        """enumerate_ball is a generator: time each step, count the yields."""

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                if not self.recording:
                    yield from gen
                    return
                frame = [0.0, "actions.ball"]
                self._stack.append(frame)
                self._depth["actions.ball"] += 1
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close("actions.ball", frame, t0,
                                perf_counter() - t0, False)
                self.counters["ball_elements"] += 1
                if item[0]:
                    self.counters["ball_new"] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, layer, frame, t0, dt, coarse):
        stack = self._stack
        stack.pop()
        self._depth[layer] -= 1
        if stack:
            stack[-1][0] += dt
        st = self.stats[layer]
        st[0] += 1
        st[2] += dt - frame[0]
        if self._depth[layer] == 0:
            st[1] += dt
        pj = self.per_job[(self.job, layer)]
        pj[0] += 1
        pj[1] += dt - frame[0]
        if coarse:
            self.spans.append((self.job, layer, len(stack), t0, dt))

    # -------------------------------------------------------------- report

    def metrics(self):
        """Every per-layer metric, as {name: {"value", "unit"}}."""
        composes = self.counters["ball_composes"]
        derived = {
            "ball_elements": self.counters["ball_elements"],
            "complex_forms": self.counters["complex_forms"],
            "ball_new_per_compose": (self.counters["ball_new"] / composes
                                     if composes else 0.0),
        }
        out = {}
        for name, (source, unit) in METRICS.items():
            if isinstance(source, tuple):
                layer, stat = source
                calls, incl, self_s = self.stats.get(layer, (0, 0.0, 0.0))
                value = {"calls": calls, "s": incl, "self_s": self_s}[stat]
            else:
                value = derived[source]
            out[name] = {"value": value, "unit": unit}
        return out

    def dump(self):
        """The trace as JSON-ready data: layer totals, per-job totals, spans."""
        return {
            "layers": {layer: {"calls": c, "s": i, "self_s": s}
                       for layer, (c, i, s) in sorted(self.stats.items())},
            "per_job": [{"job": job, "layer": layer, "calls": c, "self_s": s}
                        for (job, layer), (c, s) in self.per_job.items()],
            "counters": dict(self.counters),
            "spans": [{"job": j, "layer": layer, "depth": d, "start": t, "s": dt}
                      for j, layer, d, t, dt in self.spans],
        }

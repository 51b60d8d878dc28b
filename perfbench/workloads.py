"""The three workloads: their inputs, their fixed job lists and their checks.

A workload is built from a seed. ``load`` makes its inputs through the
public constructors, which is also what one set-up pass times. ``jobs``
returns one round: a list of (name, callable) pairs in a seeded order; the
seed never changes which jobs a round holds, except that ``forms`` draws
its algebras' holonomies from it. ``check`` returns the problems found in
one job's output, compared with something computed apart from infrasolv
or with a property the method must have; an empty list means the output
is right.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import algebras

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "infrasolv" / "data"

BALL_BUNDLES = ("torus3", "half_turn", "hantzsche_wendt", "heisenberg",
                "heisenberg_infra", "sol3", "nonfree_point_reflection")
# Radius 2 everywhere, and radius 3 where a call stays under about 1.5 s.
# nonfree_point_reflection stops at its witness at any radius.
BALL_RADII = {"torus3": (2, 3), "half_turn": (2,), "hantzsche_wendt": (2,),
              "heisenberg": (2, 3), "heisenberg_infra": (2, 3), "sol3": (2, 3),
              "nonfree_point_reflection": (2,)}
NONABELIAN = {"heisenberg", "heisenberg_infra"}

COMMANDS = ("validate", "lie-closure", "hull-check", "emit-action",
            "free-check", "orbit", "torus-rank", "betti", "report")
RADIUS_COMMANDS = {"free-check", "orbit", "report"}
# The 2-dimensional bundles are cheap enough for radius 3.
SMALL_BUNDLES = {"torus2", "klein_bottle", "nonfree_point_reflection",
                 "corrupt_central_torus"}
JORDAN_MATRIX = DATA / "matrices" / "mixed2x2.json"


def bundle_json(name):
    path = DATA / "bundles" / f"{name}.json"
    raw = path.read_bytes()
    return json.loads(raw), raw


def octahedral(r):
    """Lattice points of Z^3 with |x| + |y| + |z| <= r."""
    return (2 * r + 1) * (2 * r * r + 2 * r + 3) // 3


def centred_square(r):
    """Lattice points of Z^2 with |x| + |y| <= r."""
    return 2 * r * r + 2 * r + 1


# ------------------------------------------------------------ plain matrices

def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def _mat_inv(a):
    n = len(a)
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(a)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        p = aug[c][c]
        aug[c] = [x / p for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [r[n:] for r in aug]


def _fr(rows):
    return [[Fraction(x) for x in r] for r in rows]


def _solve_unique(columns, target):
    """Coefficients c with sum c_i columns_i = target, by elimination."""
    n = len(columns)
    rows = [[col[t] for col in columns] + [target[t]] for t in range(len(target))]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            raise AssertionError("ambient basis is degenerate")
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        rows[r] = [x / p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if any(row[n] for row in rows[r:]):
        raise AssertionError("translation log is outside the algebra")
    return tuple(rows[k][n] for k in range(n))


def affine_generators(obj):
    """(A, t) for each generator of a bundle whose u is abelian.

    On an abelian u the action p -> log(g exp(A p)) is p -> A p + t, with t
    the coordinates of log(g); log is the finite Mercator series.
    """
    ambient = [_fr(m) for m in obj["hull"]["lie_algebra"]["ambient"]]
    flat_basis = [[x for row in b for x in row] for b in ambient]
    out = []
    for g in obj["gamma"]["generators"]:
        tm = _fr(g["translation_matrix"])
        d = len(tm)
        nil = [[tm[i][j] - (i == j) for j in range(d)] for i in range(d)]
        log = [[Fraction(0)] * d for _ in range(d)]
        power, k = nil, 1
        while any(x for row in power for x in row):
            log = [[a + Fraction((-1) ** (k + 1), k) * b for a, b in zip(ra, rb)]
                   for ra, rb in zip(log, power)]
            power = _mat_mul(power, nil)
            k += 1
        t = _solve_unique(flat_basis, [x for row in log for x in row])
        out.append((_fr(g["hol_matrix"]), t))
    return out


def affine_orbit(obj, radius):
    """Orbit of the origin under group words of length <= radius, as a set."""
    letters = []
    for a, t in affine_generators(obj):
        ainv = _mat_inv(a)
        letters.append((a, t))
        letters.append((ainv, tuple(-x for x in _mat_vec(ainv, t))))
    n = len(letters[0][1])
    ident = (tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)),
             (Fraction(0),) * n)
    seen = {ident}
    frontier = [ident]
    for _ in range(radius):
        nxt = []
        for a, t in frontier:
            for b, u in letters:
                elem = (tuple(map(tuple, _mat_mul(a, b))),
                        tuple(x + y for x, y in zip(_mat_vec(a, u), t)))
                if elem not in seen:
                    seen.add(elem)
                    nxt.append(elem)
        frontier = nxt
    return {t for _, t in seen}


# ------------------------------------------------------------------ workloads

class Ball:
    """freeness_check and orbit_sample over word balls of the group bundles."""

    name = "ball"
    fingerprint = staticmethod(lambda result: result)

    def __init__(self, seed):
        self.seed = seed
        self.json = {b: bundle_json(b)[0] for b in BALL_BUNDLES}
        self._orbits = {}

    def load(self):
        from infrasolv import bundles
        return {b: bundles.load(b) for b in BALL_BUNDLES}

    def jobs(self, inputs):
        from infrasolv import freeness_check, orbit_sample
        out = []
        for b in BALL_BUNDLES:
            gamma = inputs[b].gamma
            for r in BALL_RADII[b]:
                out.append((f"free {b} {r}",
                            lambda g=gamma, r=r: freeness_check(g, radius=r)))
                out.append((f"orbit {b} {r}",
                            lambda g=gamma, r=r: orbit_sample(g, radius=r)))
        random.Random(self.seed).shuffle(out)
        return out

    def check(self, job, result, inputs):
        kind, b, r = job.split()
        r = int(r)
        if kind == "free":
            return self._check_free(b, result, inputs[b].gamma)
        return self._check_orbit(b, r, result)

    def _check_free(self, b, res, gamma):
        want = self.json[b]["expect"]["free"]
        if res.free != want:
            return [f"free = {res.free}, expect says {want}"]
        if res.free:
            return []
        elem = gamma.evaluate_word(res.witness_word)
        if elem.is_identity():
            return [f"witness word {res.witness_word!r} is the identity"]
        p = tuple(res.witness_point)
        if tuple(elem.apply(p)) != p:
            return [f"witness word {res.witness_word!r} moves {p}"]
        return []

    def _check_orbit(self, b, r, pts):
        pts = [tuple(p) for p in pts]
        bad = []
        if pts != sorted(set(pts)):
            bad.append("orbit points are not distinct and sorted")
        n = len(pts[0]) if pts else 0
        if (Fraction(0),) * n not in set(pts):
            bad.append("orbit misses the origin")
        if b not in NONABELIAN:
            key = (b, r)
            if key not in self._orbits:
                self._orbits[key] = affine_orbit(self.json[b], r)
            if set(pts) != self._orbits[key]:
                bad.append("orbit differs from the one of the affine maps x -> Ax + t")
        if b == "torus3" and len(pts) != octahedral(r):
            bad.append(f"torus3 orbit has {len(pts)} points, not {octahedral(r)}")
        return bad


class Forms:
    """cohomology_ranks and duality_report over generated algebras."""

    name = "forms"
    fingerprint = staticmethod(lambda result: result)

    def __init__(self, seed):
        self.seed = seed
        self.inputs = algebras.generate(seed)

    def load(self):
        return {inp["name"]: algebras.build(inp) for inp in self.inputs}

    def jobs(self, inputs):
        from infrasolv import cohomology_ranks, duality_report
        out = []
        for inp in self.inputs:
            alg, hols = inputs[inp["name"]]
            out.append((inp["name"], lambda a=alg, h=hols: (cohomology_ranks(a),
                                                           duality_report(a, h))))
        random.Random(self.seed).shuffle(out)
        return out

    def check(self, job, result, inputs):
        inp = next(i for i in self.inputs if i["name"] == job)
        betti, rep = result
        return algebras.check(inp, betti, rep.ranks, rep.orientable, rep.duality_ok)


class Commands:
    """Every CLI command on every built-in bundle, through cli.main in-process."""

    name = "commands"

    def __init__(self, seed):
        self.seed = seed
        self.bundles = sorted(p.stem for p in (DATA / "bundles").glob("*.json"))
        self.json = {}
        self.sha = {}
        for b in self.bundles:
            obj, raw = bundle_json(b)
            self.json[b] = obj
            self.sha[b] = hashlib.sha256(raw).hexdigest()

    def load(self):
        from infrasolv import RationalMatrix, bundles
        import infrasolv.cli  # noqa: F401  (the jobs' entry point)
        out = {b: bundles.load(b) for b in self.bundles}
        with open(JORDAN_MATRIX, "rb") as fh:
            out["jordan"] = RationalMatrix.from_json(json.load(fh))
        return out

    def argvs(self):
        """(job name, argv) for every job of a round, in seeded order."""
        out = [("jordan", ["jordan", str(JORDAN_MATRIX)])]
        for b in self.bundles:
            for cmd in COMMANDS:
                if cmd in RADIUS_COMMANDS:
                    r = "3" if b in SMALL_BUNDLES else "2"
                    out.append((f"{cmd} {b} {r}", [cmd, b, "--radius", r]))
                else:
                    out.append((f"{cmd} {b}", [cmd, b]))
        random.Random(self.seed).shuffle(out)
        return out

    def jobs(self, inputs):
        from infrasolv.cli import main
        return [(name, lambda a=argv: run_cli(main, a)) for name, argv in self.argvs()]

    @staticmethod
    def fingerprint(result):
        code, out, _ = result
        return code, out

    def check(self, job, result, inputs):
        code, out, err = result
        parts = job.split()
        cmd = parts[0]
        if cmd == "jordan":
            return _check_jordan(code, out)
        b = parts[1]
        expect = self.json[b]["expect"]
        want_code = 0
        if cmd == "hull-check" and not expect["axioms"]:
            want_code = 3
        if cmd == "free-check" and not expect["free"]:
            want_code = 3
        if cmd == "report" and not (expect["axioms"] and expect["free"]):
            want_code = 3
        if code != want_code:
            return [f"exit code {code}, expect implies {want_code}: {err.strip()}"]
        try:
            obj = json.loads(out)
        except ValueError:
            return ["stdout is not one JSON document"]
        return _COMMAND_CHECKS[cmd](self, b, expect, obj, parts)


def run_cli(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_jordan(code, out):
    if code != 0:
        return [f"jordan exited {code}"]
    obj = json.loads(out)
    m = _fr(obj["matrix"])
    s = _fr(obj["semisimple"])
    n = len(m)
    if obj["decomposition"] == "multiplicative":
        u = _fr(obj["unipotent"])
        nil = [[u[i][j] - (i == j) for j in range(n)] for i in range(n)]
        if _mat_mul(s, u) != m:
            return ["semisimple times unipotent is not the matrix"]
    else:
        nil = _fr(obj["nilpotent"])
        if [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(s, nil)] != m:
            return ["semisimple plus nilpotent is not the matrix"]
    power = nil
    for _ in range(n - 1):
        power = _mat_mul(power, nil)
    bad = []
    if any(x for row in power for x in row):
        bad.append("the unipotent or nilpotent part is not")
    if _mat_mul(s, nil) != _mat_mul(nil, s):
        bad.append("the Jordan parts do not commute")
    return bad


def _same(label, got, want):
    return [] if got == want else [f"{label} = {got}, expected {want}"]


def _c_validate(self, b, expect, obj, parts):
    return (_same("bundle", obj.get("bundle"), self.json[b]["name"])
            + _same("input_sha256", obj.get("input_sha256"), self.sha[b])
            + _same("valid", obj.get("valid"), True))


def _c_closure(self, b, expect, obj, parts):
    dim = self.json[b]["hull"]["lie_algebra"]["dim"]
    dims = obj.get("series_dims", [])
    return (_same("closure dim", obj.get("dim"), dim)
            + _same("series ends", (dims[:1], dims[-1:]), ([dim], [0])))


def _c_hull(self, b, expect, obj, parts):
    return _same("axioms", obj["passed"] and obj["fitting_ok"], expect["axioms"])


def _c_emit(self, b, expect, obj, parts):
    names = [g["name"] for g in self.json[b]["gamma"]["generators"]]
    want = sorted(names + [n + "^-1" for n in names])
    bad = _same("emitted maps", sorted(obj["maps"]), want)
    for name, pm in obj["maps"].items():
        deg = max((sum(e) for comp in pm["components"] for e, _ in comp), default=0)
        if deg > obj["degree_bound"]:
            bad.append(f"map {name} has degree {deg} > {obj['degree_bound']}")
    return bad


def _c_free(self, b, expect, obj, parts):
    bad = _same("free", obj["free"], expect["free"])
    if not obj["free"] and ("witness_word" not in obj or "witness_point" not in obj):
        bad.append("non-free verdict without a witness")
    return bad


def _c_orbit(self, b, expect, obj, parts):
    r = int(parts[2])
    pts = [tuple(Fraction(x) for x in p) for p in obj["points"]]
    bad = _same("count", obj["count"], len(pts))
    if pts != sorted(set(pts)):
        bad.append("orbit points are not distinct and sorted")
    if pts and (Fraction(0),) * len(pts[0]) not in set(pts):
        bad.append("orbit misses the origin")
    if b == "torus3":
        bad += _same("torus3 count", len(pts), octahedral(r))
    if b == "torus2":
        bad += _same("torus2 count", len(pts), centred_square(r))
    return bad


def _c_torus(self, b, expect, obj, parts):
    return _same("torus_rank", obj["torus_rank"], expect["torus_rank"])


def _c_betti(self, b, expect, obj, parts):
    return (_same("betti", obj["betti"], expect["betti"])
            + _same("invariant_betti", obj["invariant_betti"], expect["invariant_betti"])
            + _same("orientable", obj["orientable"], expect["orientable"])
            + _same("duality_ok", obj["duality_ok"], True))


def _c_report(self, b, expect, obj, parts):
    bad = _same("expect_mismatches", obj.get("expect_mismatches"), None)
    return bad + _same("input_sha256", obj.get("input_sha256"), self.sha[b])


_COMMAND_CHECKS = {"validate": _c_validate, "lie-closure": _c_closure,
                   "hull-check": _c_hull, "emit-action": _c_emit,
                   "free-check": _c_free, "orbit": _c_orbit,
                   "torus-rank": _c_torus, "betti": _c_betti,
                   "report": _c_report}

WORKLOADS = {w.name: w for w in (Ball, Forms, Commands)}

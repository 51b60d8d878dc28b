import json
import random
import time
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from infrasolv import actions, bundles, linalg
from infrasolv.actions import (POWER_ENTRY_BITS, AffineElement,
                               FixedPointScopeError, GammaActionData,
                               _canonical, _hol_inverse, _hol_product,
                               action_degree_bound,
                               emit_polynomial_action, fixed_point_solve,
                               freeness_check, is_lie_automorphism,
                               orbit_sample, parse_word,
                               right_translation_map, torus_rank)
from infrasolv.cli import main
from infrasolv.hull import SplitHullData, hol_from_ambient
from infrasolv.lie import (NilpotentLieAlgebra, UnipotentGroupData,
                           _linear_polys, lie_closure, nilp_exp, unip_log)
from infrasolv.linalg import RationalMatrix, kernel, rref_basis, solve
from infrasolv.polynomial import MPoly, PolynomialMap
from infrasolv.schema import load_bundle
from test_linalg import seeded_holonomy_lists


def _elem(i, j, n):
    rows = [[0] * n for _ in range(n)]
    rows[i][j] = 1
    return RationalMatrix(rows)


def heisenberg():
    x = RationalMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    y = RationalMatrix([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    return lie_closure(UnipotentGroupData(generators=(x, y), dim_ambient=3))


def abelian2():
    g1 = nilp_exp(_elem(0, 2, 3))
    g2 = nilp_exp(_elem(1, 2, 3))
    return lie_closure(UnipotentGroupData(generators=(g1, g2), dim_ambient=3))


def exp_coords(alg, *coords):
    return nilp_exp(alg.matrix_from_coords(tuple(F(c) for c in coords)))


def translation(alg, *coords):
    ident = RationalMatrix.identity(alg.dim)
    return AffineElement(alg, exp_coords(alg, *coords), ident)


# ------------------------------------------------------------------
# affine elements

def test_apply_affine_heisenberg_oracle():
    alg = heisenberg()
    g = translation(alg, 1, 0, 0)
    assert g.apply((F(0), F(1), F(0))) == (F(1), F(1), F(1, 2))


def test_translation_map_components():
    alg = heisenberg()
    pm = translation(alg, 1, 0, 0).as_polynomial_map()
    x1 = MPoly.variable(3, 0)
    x2 = MPoly.variable(3, 1)
    x3 = MPoly.variable(3, 2)
    assert pm == PolynomialMap((x1 + 1, x2, x3 + x2 * F(1, 2)))


def test_action_degree_is_bounded_by_class():
    alg = heisenberg()
    elems = [translation(alg, 1, 0, 0), translation(alg, 0, 1, 0),
             translation(alg, F(1, 2), F(-1, 3), 2)]
    phi = RationalMatrix([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    elems.append(AffineElement(alg, exp_coords(alg, 0, 0, 1), phi))
    elems.append(elems[0].compose(elems[3]).inverse())
    assert action_degree_bound(alg) == 2
    for e in elems:
        assert e.as_polynomial_map().degree() <= 2


def test_inverse_gives_inverse_map():
    alg = heisenberg()
    phi = RationalMatrix([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    g = AffineElement(alg, exp_coords(alg, 1, F(1, 2), 0), phi)
    f = g.as_polynomial_map()
    finv = g.inverse().as_polynomial_map()
    assert f.after(finv).is_identity()
    assert finv.after(f).is_identity()


def test_apply_agrees_with_emitted_map():
    alg = heisenberg()
    phi = RationalMatrix([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    g = AffineElement(alg, exp_coords(alg, F(1, 3), 1, F(-1, 2)), phi)
    pm = g.as_polynomial_map()
    for pt in [(F(0), F(0), F(0)), (F(1), F(-2), F(5, 7)), (F(1, 2), F(1, 3), F(1, 5))]:
        assert pm.eval(pt) == g.apply(pt)


def test_affine_element_validation():
    alg = heisenberg()
    bad_hol = RationalMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 5]])
    assert not is_lie_automorphism(alg, bad_hol)
    with pytest.raises(ValueError):
        AffineElement(alg, RationalMatrix.identity(3), bad_hol)
    ab = abelian2()
    outside = nilp_exp(_elem(0, 1, 3))  # unipotent but its log is not in the algebra
    with pytest.raises(ValueError):
        AffineElement(ab, outside, RationalMatrix.identity(2))


@pytest.mark.parametrize("valid_holonomy", [True, False])
def test_non_unipotent_translation_is_rejected(valid_holonomy):
    # The translation is checked first, whatever the holonomy part is.
    alg = heisenberg()
    scaled = RationalMatrix([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    hol = (RationalMatrix.identity(3) if valid_holonomy
           else RationalMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 5]]))
    with pytest.raises(ValueError, match="translation part is not unipotent"):
        AffineElement(alg, scaled, hol)


def test_group_laws_on_random_elements():
    alg = heisenberg()
    rng = random.Random(3)
    phis = [RationalMatrix.identity(3),
            RationalMatrix([[1, 0, 0], [0, -1, 0], [0, 0, -1]]),
            RationalMatrix([[-1, 0, 0], [0, 1, 0], [0, 0, -1]])]
    def rand_elem():
        coords = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
        return AffineElement(alg, exp_coords(alg, *coords), rng.choice(phis))
    for _ in range(15):
        g, h = rand_elem(), rand_elem()
        assert g.compose(g.inverse()).is_identity()
        assert g.compose(h).inverse() == h.inverse().compose(g.inverse())
        acc = AffineElement.identity(alg)
        for k in range(7):  # repeated squaring against repeated composition
            assert g.power(k) == acc and g.power(-k) == acc.inverse()
            acc = acc.compose(g)
        pt = tuple(F(rng.randint(-2, 2)) for _ in range(3))
        assert g.compose(h).apply(pt) == g.apply(h.apply(pt))


# ------------------------------------------------------------------
# words and group data

def test_parse_word():
    assert parse_word("a b^-1 c^2") == [("a", 1), ("b", -1), ("c", 2)]
    assert parse_word("") == []
    with pytest.raises(ValueError):
        parse_word("a^")
    with pytest.raises(ValueError):
        parse_word("2a")


def _klein_data():
    ab = abelian2()
    glide = AffineElement(ab, exp_coords(ab, F(1, 2), 0),
                          RationalMatrix([[1, 0], [0, -1]]))
    b = translation(ab, 0, 1)
    return GammaActionData(ab, {"b": b, "g": glide},
                           relators=("g b g^-1 b",), hirsch_rank=2,
                           fitting_labels=("b",))


def _z2_data():
    ab = abelian2()
    return GammaActionData(ab, {"x": translation(ab, 1, 0),
                                "y": translation(ab, 0, 1)},
                           relators=("x y x^-1 y^-1",), hirsch_rank=2,
                           fitting_labels=("x", "y"))


def _heis_data():
    alg = heisenberg()
    return GammaActionData(alg,
                           {"x": translation(alg, 1, 0, 0),
                            "y": translation(alg, 0, 1, 0),
                            "z": translation(alg, 0, 0, 1)},
                           relators=("x y x^-1 y^-1 z^-1",
                                     "x z x^-1 z^-1", "y z y^-1 z^-1"),
                           hirsch_rank=3, fitting_labels=("x", "y", "z"))


def test_gamma_relators_hold():
    for data in (_klein_data(), _z2_data(), _heis_data()):
        for rel in data.relators:
            assert data.evaluate_word(rel).is_identity()


def test_gamma_relator_maps_are_identity():
    data = _heis_data()
    for rel in data.relators:
        assert data.evaluate_word(rel).as_polynomial_map().is_identity()


def test_gamma_validation_errors():
    ab = abelian2()
    t = translation(ab, 1, 0)
    with pytest.raises(ValueError):
        GammaActionData(ab, {"a b": t})
    with pytest.raises(ValueError):
        GammaActionData(ab, {"a^2": t})
    with pytest.raises(ValueError):
        GammaActionData(ab, {"x": t}, relators=("x x",))
    data = GammaActionData(ab, {"x": t})
    assert data.hirsch_rank == 2


def test_evaluate_word_matches_manual_composition():
    data = _heis_data()
    g = data.evaluate_word("x y^-1 z^2")
    manual = (data.generators["x"]
              .compose(data.generators["y"].inverse())
              .compose(data.generators["z"].power(2)))
    assert g == manual


def test_loading_composes_with_no_identity_factor(monkeypatch):
    # words start from their first factor, powers from the element itself
    calls = []
    original = AffineElement.compose

    def counted(self, other):
        calls.append(self.is_identity() or other.is_identity())
        return original(self, other)
    monkeypatch.setattr(AffineElement, "compose", counted)
    for name in bundles.builtin_names():
        bundles.load(name)
    assert calls and not any(calls)


@pytest.mark.parametrize("name", ["torus2", "heisenberg", "hantzsche_wendt"])
def test_relator_with_a_huge_exponent_loads_quickly(name):
    obj = json.loads(bundles.bundle_bytes(name))
    x = obj["gamma"]["generators"][0]["name"]
    obj["gamma"]["relators"].append(f"{x}^1000000000 {x}^-1000000000")
    start = time.perf_counter()
    load_bundle(obj)
    assert time.perf_counter() - start < 1.0


def _sol3_with_relator(relator, tmp_path):
    obj = json.loads(bundles.bundle_bytes("sol3"))
    obj["gamma"]["relators"].append(relator)
    path = tmp_path / "sol3.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_word_power_under_infinite_order_holonomy_stops_at_the_budget(tmp_path, capsys):
    # s has holonomy [[2, 1], [1, 1]] on the first two coordinates: the
    # entries of s^k have about 1.39 k bits
    path = _sol3_with_relator("s^100000 s^-100000", tmp_path)
    start = time.perf_counter()
    assert main(["validate", path]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "group data rejected" in err and f"{POWER_ENTRY_BITS} bits" in err


def test_word_power_under_the_budget_still_loads(tmp_path, capsys):
    assert main(["validate", _sol3_with_relator("s^8 s^-8", tmp_path)]) == 0
    assert capsys.readouterr().err == ""


def test_enumerate_ball_counts_and_identity_first():
    data = _z2_data()
    ball1 = list(data.enumerate_ball(1))
    assert ball1[0][0] == "" and ball1[0][1].is_identity()
    assert len(ball1) == 5
    assert len(list(data.enumerate_ball(2))) == 13


def test_gamma_json_round_trip():
    data = _klein_data()
    t = RationalMatrix([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    u_data = UnipotentGroupData(
        generators=tuple(g.translation for g in data.generators.values()),
        dim_ambient=3)
    hull = SplitHullData(data.algebra, u_data, t_generators=(t,))
    back = load_bundle({"name": "klein", "hull": hull.to_json(),
                        "gamma": data.to_json()}).gamma
    assert set(back.generators) == {"b", "g"}
    assert back.generators["g"] == data.generators["g"]
    assert back.relators == data.relators
    assert back.hirsch_rank == 2
    assert back.fitting_labels == ("b",)


def test_emit_polynomial_action_includes_inverses():
    data = _klein_data()
    emitted = emit_polynomial_action(data)
    assert set(emitted) == {"b", "b^-1", "g", "g^-1"}
    assert emitted["g"].after(emitted["g^-1"]).is_identity()
    assert emitted["b"].degree() <= action_degree_bound(data.algebra) == 1


# ------------------------------------------------------------------
# fixed points

def test_klein_glide_has_no_fixed_point():
    data = _klein_data()
    assert fixed_point_solve(data.generators["g"]) is None


def test_pure_translation_has_no_fixed_point():
    alg = heisenberg()
    assert fixed_point_solve(translation(alg, 1, 0, 0)) is None


def test_pure_translation_takes_no_polynomial_map(monkeypatch):
    calls = []
    original = AffineElement.as_polynomial_map
    monkeypatch.setattr(AffineElement, "as_polynomial_map",
                        lambda self: calls.append(self) or original(self))
    alg, up = heisenberg(), _upper_algebra(4)
    for elem in (translation(alg, 1, 0, 0), translation(alg, 0, 0, 3),
                 AffineElement.from_coords(up, (0, 0, 0, 0, 0, F(1, 2)),
                                           RationalMatrix.identity(6))):
        assert fixed_point_solve(elem) is None
    assert calls == []
    # u = 0: every point is fixed and the descent runs as before
    assert fixed_point_solve(AffineElement.identity(alg)) == (F(0),) * 3
    assert len(calls) == 1


def test_identity_fixes_origin():
    alg = heisenberg()
    assert fixed_point_solve(AffineElement.identity(alg)) == (F(0),) * 3


def test_pure_holonomy_fixes_origin():
    alg = heisenberg()
    phi = RationalMatrix([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    g = AffineElement(alg, RationalMatrix.identity(3), phi)
    assert fixed_point_solve(g) == (F(0), F(0), F(0))


def test_central_translation_with_holonomy():
    alg = heisenberg()
    phi = RationalMatrix([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    g = AffineElement(alg, exp_coords(alg, 0, 0, 1), phi)
    p = fixed_point_solve(g)
    assert p == (F(0), F(0), F(1, 2))
    assert g.apply(p) == p


def _upper_algebra(n):
    gens = tuple(nilp_exp(_elem(i, i + 1, n)) for i in range(n - 1))
    return lie_closure(UnipotentGroupData(generators=gens, dim_ambient=n))


def test_class_three_fixed_point_is_found_exactly():
    alg = _upper_algebra(4)
    assert alg.nilpotency_class() == 3
    d = RationalMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
    cols = [alg.coords_of_matrix(d * b * d.inverse()) for b in alg.ambient]
    phi = RationalMatrix.from_columns(cols)
    g = AffineElement(alg, nilp_exp(_elem(1, 2, 4)), phi)
    p = fixed_point_solve(g)
    assert p is not None and g.apply(p) == p


def test_scope_error_on_nonlinear_consistency_row():
    # a depth-preserving linear part that does not preserve brackets makes
    # the quadratic consistency row reachable; the solver must refuse
    # rather than guess
    alg = _upper_algebra(4)
    lin = RationalMatrix([[1, 0, 0, 0, 0, 0], [0, -1, 0, 0, 0, 0],
                          [0, 0, 1, 0, 0, 0], [0, 0, 0, -1, 0, 0],
                          [0, 0, 0, 0, -1, 0], [0, 0, 0, 0, 0, 1]])
    assert not is_lie_automorphism(alg, lin)
    g = AffineElement.from_coords(alg, alg.coords_of_matrix(_elem(1, 2, 4)), lin)
    with pytest.raises(FixedPointScopeError):
        fixed_point_solve(g)


def _oracle_polynomial_map(a):
    """x -> mu(u, A x) by substituting the constants u and the rows of A x,
    each row a sum of scaled variables, into every component of the full
    law, its linear part included."""
    n = a.algebra.dim
    xs = [MPoly.variable(n, j) for j in range(n)]
    ax = [sum((xs[j] * c for j, c in enumerate(row) if c), MPoly.zero(n))
          for row in a.hol.data]
    args = [MPoly.constant(n, c) for c in a.u] + ax
    return PolynomialMap([c.substitute(args) for c in a.algebra.group_law()])


def _pad(poly: MPoly, nvars: int) -> MPoly:
    if poly.nvars == nvars:
        return poly
    return MPoly(nvars, {e + (0,) * (nvars - poly.nvars): c
                         for e, c in poly.terms.items()})


def _oracle_fixed_point(a):
    """The descent with its own Fraction Gauss-Jordan elimination per layer,
    as fixed_point_solve did it before it shared linalg's elimination, on
    the element's own map, built by _oracle_polynomial_map, with W y
    substituted, not on the element in the adapted basis."""
    alg = a.algebra
    n = alg.dim
    if n == 0:
        return ()
    w, winv, depth_of, _ = alg.adapted_frame()
    wy = _linear_polys(w)
    xs = [MPoly.variable(n, i) for i in range(n)]
    fwy = [c.substitute(wy) for c in _oracle_polynomial_map(a).components]
    g = []
    for i in range(n):
        acc = -xs[i]
        for j in range(n):
            if winv[i, j]:
                acc = acc + fwy[j] * winv[i, j]
        g.append(acc)
    templ = [None] * n
    nparams = 0
    for d in range(max(depth_of) + 1):
        idx = [i for i in range(n) if depth_of[i] == d]
        m = len(idx)
        total = nparams + m
        repl = []
        for j in range(n):
            if depth_of[j] < d:
                repl.append(_pad(templ[j], total))
            elif j in idx:
                repl.append(MPoly.variable(total, nparams + idx.index(j)))
            else:
                repl.append(MPoly.zero(total))
        rows, rhs = [], []
        for i in idx:
            coeff = [F(0)] * m
            param_part = {}
            for exps, c in g[i].substitute(repl).terms.items():
                upart = exps[nparams:]
                if any(upart):
                    coeff[upart.index(1)] += c
                else:
                    param_part[exps[:nparams]] = c
            rows.append(coeff)
            rhs.append(-MPoly(nparams, param_part))
        pivots = []
        r = 0
        for c in range(m):
            piv = next((i for i in range(r, m) if rows[i][c]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            rhs[r], rhs[piv] = rhs[piv], rhs[r]
            pv = rows[r][c]
            rows[r] = [x / pv for x in rows[r]]
            rhs[r] = rhs[r] * F(1, pv)
            for i in range(m):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
                    rhs[i] = rhs[i] - rhs[r] * f
            pivots.append(c)
            r += 1
        constraints = []
        for resid in rhs[r:]:
            if resid.is_zero():
                continue
            if resid.degree() == 0:
                return None
            if resid.degree() > 1:
                raise FixedPointScopeError("nonlinear consistency condition")
            constraints.append(resid)
        if constraints:
            decomposed = [con.linear_decomposition() for con in constraints]
            (sol,), ker = solve(RationalMatrix([lin for _, lin, _ in decomposed]),
                                [[-const for const, _, _ in decomposed]])
            if sol is None:
                return None
            newp = len(ker)
            subst = []
            for j in range(nparams):
                p = MPoly.constant(newp, sol[j])
                for t, kv in enumerate(ker):
                    if kv[j]:
                        p = p + MPoly.variable(newp, t) * kv[j]
                subst.append(p)
            for j in range(n):
                if templ[j] is not None:
                    templ[j] = templ[j].substitute(subst) if nparams else _pad(templ[j], newp)
            rhs = [(p.substitute(subst) if nparams else _pad(p, newp)) for p in rhs]
            nparams = newp
        free = [c for c in range(m) if c not in pivots]
        total = nparams + len(free)
        for t, c in enumerate(free):
            templ[idx[c]] = MPoly.variable(total, nparams + t)
        for rr, c in enumerate(pivots):
            expr = _pad(rhs[rr], total)
            for t, fc in enumerate(free):
                if rows[rr][fc]:
                    expr = expr - MPoly.variable(total, nparams + t) * rows[rr][fc]
            templ[idx[c]] = expr
        for j in range(n):
            if templ[j] is not None:
                templ[j] = _pad(templ[j], total)
        nparams = total
    zeros = (F(0),) * nparams
    return w.apply([templ[i].eval(zeros) for i in range(n)])


def _outcome(solver, elem):
    """The point, None, or the class of the exception the solver raises."""
    try:
        return solver(elem)
    except (FixedPointScopeError, ArithmeticError, ValueError) as exc:
        return type(exc)


@pytest.mark.parametrize("name", bundles.builtin_names())
def test_fixed_point_solve_matches_gauss_jordan_oracle_on_balls(name):
    gamma = bundles.load(name).gamma
    for _, elem in gamma.enumerate_ball(3):
        assert _outcome(fixed_point_solve, elem) == _outcome(_oracle_fixed_point, elem)


def test_fixed_point_solve_matches_gauss_jordan_oracle_at_class_three():
    alg = _upper_algebra(4)
    d = RationalMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
    flip = RationalMatrix.from_columns(
        [alg.coords_of_matrix(d * b * d.inverse()) for b in alg.ambient])
    lin = RationalMatrix([[1, 0, 0, 0, 0, 0], [0, -1, 0, 0, 0, 0],
                          [0, 0, 1, 0, 0, 0], [0, 0, 0, -1, 0, 0],
                          [0, 0, 0, 0, -1, 0], [0, 0, 0, 0, 0, 1]])
    rng = random.Random(5)
    elems = [AffineElement(alg, nilp_exp(_elem(1, 2, 4)), flip),
             AffineElement.from_coords(alg, alg.coords_of_matrix(_elem(1, 2, 4)), lin)]
    for hol in (RationalMatrix.identity(6), flip, lin):
        for _ in range(12):
            u = tuple(rng.choice((F(0), F(0), F(1), F(-1, 2))) for _ in range(6))
            elems.append(AffineElement.from_coords(alg, u, hol))
    outcomes = set()
    for elem in elems:
        got = _outcome(fixed_point_solve, elem)
        assert got == _outcome(_oracle_fixed_point, elem)
        outcomes.add(got if got in (None, FixedPointScopeError) else "point")
    assert outcomes == {None, FixedPointScopeError, "point"}


def test_fixed_point_solve_matches_oracle_in_a_non_adapted_basis():
    # centre first: the adapted frame W is a permutation, not the identity
    e13, e12, e23 = _elem(0, 2, 3), _elem(0, 1, 3), _elem(1, 2, 3)
    alg = NilpotentLieAlgebra(3, {(1, 2): (1, 0, 0)}, ambient=[e13, e12, e23])
    assert alg.adapted_frame()[0] != RationalMatrix.identity(3)
    rng = random.Random(7)
    hols = (RationalMatrix.identity(3),
            RationalMatrix([[1, 0, 0], [0, -1, 0], [0, 0, -1]]),
            RationalMatrix([[-1, 0, 0], [0, 0, 1], [0, 1, 0]]))
    outcomes = set()
    for hol in hols:
        assert is_lie_automorphism(alg, hol)
        for _ in range(10):
            u = tuple(rng.choice((F(0), F(1), F(-1, 2))) for _ in range(3))
            elem = AffineElement.from_coords(alg, u, hol)
            got = _outcome(fixed_point_solve, elem)
            assert got == _outcome(_oracle_fixed_point, elem)
            outcomes.add(got is None)
    assert outcomes == {True, False}


def _triangular_conjugation(alg, n, rng):
    """The holonomy of conjugation by a seeded upper-triangular n x n matrix:
    diagonal entries in {1, -1, 2}, entries above it in {0, 1, -1}. Equal
    neighbours on the diagonal are drawn often: they make layer blocks
    singular, where consistency constraints arise."""
    diag = [rng.choice((1, -1, 2))]
    for _ in range(n - 1):
        diag.append(diag[-1] if rng.random() < 0.5 else rng.choice((1, -1, 2)))
    t = RationalMatrix([[diag[r] if r == c else rng.choice((0, 1, -1)) if c > r else 0
                         for c in range(n)] for r in range(n)])
    return hol_from_ambient(alg, t)


def test_fixed_point_solve_matches_oracle_through_consistency_constraints(monkeypatch):
    calls = []
    monkeypatch.setattr(actions, "solve", lambda *args: calls.append(1) or solve(*args))
    rng = random.Random(2)
    for n in (4, 5):
        alg = _upper_algebra(n)
        for _ in range(20):
            hol = _triangular_conjugation(alg, n, rng)
            for _ in range(10):
                u = tuple(rng.choice((F(0), F(1), F(-1, 2))) for _ in range(alg.dim))
                elem = AffineElement.from_coords(alg, u, hol)
                assert _outcome(fixed_point_solve, elem) == _outcome(_oracle_fixed_point, elem)
    # the oracle calls linalg.solve through its own binding: these are the
    # descent's constraint passes
    assert len(calls) >= 20, len(calls)


def test_descent_in_the_adapted_basis_substitutes_once_per_component(monkeypatch):
    e13, e12, e23 = _elem(0, 2, 3), _elem(0, 1, 3), _elem(1, 2, 3)
    alg = NilpotentLieAlgebra(3, {(1, 2): (1, 0, 0)}, ambient=[e13, e12, e23])
    hol = RationalMatrix([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    elem = AffineElement.from_coords(alg, (F(0), F(1), F(0)), hol)
    fixed_point_solve(AffineElement.from_coords(alg, (F(1), F(0), F(0)), hol))
    calls = []
    original = MPoly.substitute
    monkeypatch.setattr(MPoly, "substitute",
                        lambda self, args: calls.append(1) or original(self, args))
    assert fixed_point_solve(elem) == (F(0), F(1, 2), F(0))
    # 1 for the law's one nonlinear component at the element, 3 for the
    # layer equations; the oracle substitutes into all 3 components of the
    # law and adds 3 for the W y route
    assert len(calls) == 4
    del calls[:]
    assert _oracle_fixed_point(elem) == (F(0), F(1, 2), F(0))
    assert len(calls) == 9


@pytest.mark.parametrize("name", ["hantzsche_wendt", "sol3"])
def test_ball_walk_multiplies_each_holonomy_letter_pair_once(name, monkeypatch):
    gamma = bundles.load(name).gamma
    letters = {h for g in gamma.generators.values() for h in (g.hol, g.inverse().hol)}
    _hol_product.cache_clear()
    calls = []
    original = RationalMatrix.__mul__
    monkeypatch.setattr(RationalMatrix, "__mul__",
                        lambda a, b: calls.append(1) or original(a, b))
    ball = list(gamma.enumerate_ball(3))
    # the walk composes the elements of words shorter than 3 with every letter
    inner = {elem.hol for word, elem in ball if len(word.split()) < 3}
    pairs = {(h, letter) for h in inner for letter in letters}
    assert 0 < len(calls) <= len(pairs) < len(ball)


@pytest.mark.parametrize("name", ["hantzsche_wendt", "sol3"])
def test_ball_elements_with_equal_holonomy_share_one_holonomy_object(name):
    gamma = bundles.load(name).gamma
    first = {}
    for _, elem in gamma.enumerate_ball(3):
        assert first.setdefault(elem.hol, elem.hol) is elem.hol


@pytest.mark.parametrize("name", ["hantzsche_wendt", "sol3"])
def test_clearing_the_canonical_holonomies_mid_walk_changes_no_element(name):
    gamma = bundles.load(name).gamma
    want = list(gamma.enumerate_ball(3))
    got = []
    for k, item in enumerate(gamma.enumerate_ball(3)):
        if k in (5, len(want) // 2):
            # the product memo returns canonical instances too: without
            # clearing it, the cleared table would refill with the same ones
            _canonical.cache_clear()
            _hol_product.cache_clear()
        got.append(item)
    assert [w for w, _ in got] == [w for w, _ in want]
    assert [e for _, e in got] == [e for _, e in want]
    assert any(a.hol is not b.hol for (_, a), (_, b) in zip(got, want))


@pytest.mark.parametrize("name", ["hantzsche_wendt", "sol3"])
def test_hol_inverse_is_one_canonical_instance_per_value(name):
    for memo in (_canonical, _hol_product, _hol_inverse):
        memo.cache_clear()
    for g in bundles.load(name).gamma.generators.values():
        inv = _hol_inverse(g.hol)
        assert inv == g.hol.inverse()
        assert _hol_inverse(RationalMatrix(g.hol.data)) is inv
        assert _canonical(RationalMatrix(inv.data)) is inv
        assert g.inverse().hol is inv
        assert g.compose(g.inverse()).is_identity()


def test_second_inverse_of_a_holonomy_runs_no_elimination(monkeypatch):
    g = bundles.load("sol3").gamma.generators["s"]
    _hol_inverse.cache_clear()
    calls = []
    rref = linalg._rref
    monkeypatch.setattr(linalg, "_rref", lambda rows: calls.append(1) or rref(rows))
    first = g.inverse()
    assert len(calls) == 1
    # an element with an equal holonomy in a new instance, and another u
    other = AffineElement.from_coords(g.algebra, (F(1, 2), F(0), F(-3)),
                                      RationalMatrix(g.hol.data))
    second = other.inverse()
    assert len(calls) == 1
    assert second.hol is first.hol
    assert second.compose(other).is_identity()


def test_element_hash_is_computed_once_and_matches_equality():
    gamma = bundles.load("heisenberg_infra").gamma
    for _, elem in gamma.enumerate_ball(2):
        assert hash(elem) == hash((elem.u, elem.hol)) == elem._hash
        twin = AffineElement.from_coords(elem.algebra, elem.u, RationalMatrix(elem.hol.data))
        assert twin == elem and hash(twin) == hash(elem)


# ------------------------------------------------------------------
# freeness, orbits, torus rank

def test_klein_action_is_free():
    res = freeness_check(_klein_data(), radius=4)
    assert res.free and res.witness_word is None


def test_point_reflection_is_not_free():
    ab = abelian2()
    refl = AffineElement(ab, RationalMatrix.identity(3),
                         RationalMatrix([[-1, 0], [0, -1]]))
    data = GammaActionData(ab, {"x": translation(ab, 1, 0),
                                "y": translation(ab, 0, 1),
                                "r": refl},
                           hirsch_rank=2)
    res = freeness_check(data, radius=2)
    assert not res.free
    witness = data.evaluate_word(res.witness_word)
    assert not witness.is_identity()
    assert witness.apply(res.witness_point) == res.witness_point


def test_orbit_sample_lattice():
    data = _z2_data()
    box = ((F(-2), F(2)), (F(-2), F(2)))
    pts = orbit_sample(data, radius=1, box=box)
    assert pts == [(F(-1), F(0)), (F(0), F(-1)), (F(0), F(0)),
                   (F(0), F(1)), (F(1), F(0))]
    assert len(orbit_sample(data, radius=2)) == 13
    small = orbit_sample(data, radius=2, box=((F(0), F(1)), (F(0), F(1))))
    assert small == [(F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1))]


def test_negative_radius_is_rejected():
    data = _z2_data()
    with pytest.raises(ValueError):
        list(data.enumerate_ball(-1))
    with pytest.raises(ValueError):
        freeness_check(data, radius=-1)
    with pytest.raises(ValueError):
        orbit_sample(data, radius=-1)
    triv = lie_closure(UnipotentGroupData(
        generators=(RationalMatrix.identity(2),), dim_ambient=2))
    with pytest.raises(ValueError):
        orbit_sample(GammaActionData(triv, {}, hirsch_rank=0), radius=-1)


def test_orbit_of_trivial_group_is_origin():
    triv = lie_closure(UnipotentGroupData(
        generators=(RationalMatrix.identity(2),), dim_ambient=2))
    data = GammaActionData(triv, {}, hirsch_rank=0)
    assert orbit_sample(data, radius=3) == [()]


def test_torus_rank_oracles():
    ab = abelian2()
    t = RationalMatrix([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    klein_hull = SplitHullData(
        ab, UnipotentGroupData(generators=(nilp_exp(_elem(0, 2, 3)),
                                           nilp_exp(_elem(1, 2, 3))),
                               dim_ambient=3),
        t_generators=(t,))
    assert torus_rank(_klein_data(), klein_hull) == 1

    heis = heisenberg()
    x = RationalMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    y = RationalMatrix([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    heis_hull = SplitHullData(
        heis, UnipotentGroupData(generators=(x, y), dim_ambient=3))
    assert torus_rank(_heis_data(), heis_hull) == 1

    torus_hull = SplitHullData(
        ab, UnipotentGroupData(generators=(nilp_exp(_elem(0, 2, 3)),
                                           nilp_exp(_elem(1, 2, 3))),
                               dim_ambient=3))
    assert torus_rank(_z2_data(), torus_hull) == 2


def _oracle_torus_rank(alg, hols):
    """`torus_rank` as it was before it made one joint kernel: the center
    from the stacked ad(e_i), then the kernel of the stacked A C - C."""
    if not alg.dim:
        return 0
    ads = [alg.ad_matrix(alg.basis_vector(i)) for i in range(alg.dim)]
    cent = rref_basis(kernel(RationalMatrix([r for m in ads for r in m.data])))
    if not cent:
        return 0
    if not hols:
        return len(cent)
    cmat = RationalMatrix.from_columns(cent)
    return len(kernel(RationalMatrix([r for a in hols for r in (a * cmat - cmat).data])))


@pytest.mark.parametrize("name", bundles.builtin_names())
def test_torus_rank_matches_the_stacked_kernel_oracle_on_builtins(name):
    bundle = bundles.load_bundle_bytes(bundles.bundle_bytes(name))
    assert torus_rank(bundle.gamma, bundle.hull) == \
        _oracle_torus_rank(bundle.hull.algebra, bundle.hull.hol_matrices)


@pytest.mark.parametrize("seed", range(4))
def test_torus_rank_matches_the_stacked_kernel_oracle_on_seeded_inputs(seed):
    rng = random.Random(seed)
    upper4 = lie_closure(UnipotentGroupData(
        generators=tuple(nilp_exp(_elem(i, i + 1, 4)) for i in range(3)), dim_ambient=4))
    for alg in (NilpotentLieAlgebra(1, {}), abelian2(), heisenberg(), upper4):
        for hols in seeded_holonomy_lists(rng, alg.dim):
            hull = SimpleNamespace(algebra=alg, hol_matrices=tuple(hols))
            assert torus_rank(SimpleNamespace(algebra=alg), hull) == \
                _oracle_torus_rank(alg, hols), (alg.dim, hols)


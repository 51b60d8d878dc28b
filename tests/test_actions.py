import random
from fractions import Fraction as F

import pytest

from infrasolv.actions import (AffineElement, FixedPointScopeError,
                               GammaActionData, action_degree_bound,
                               apply_affine, emit_polynomial_action,
                               fixed_point_solve, freeness_check,
                               is_lie_automorphism, orbit_sample, parse_word,
                               right_translation_map, torus_rank)
from infrasolv.hull import SplitHullData
from infrasolv.lie import (UnipotentGroupData, lie_closure, nilp_exp,
                           unip_log)
from infrasolv.linalg import RationalMatrix
from infrasolv.polynomial import MPoly, PolynomialMap


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
    assert apply_affine(g, (F(0), F(1), F(0))) == (F(1), F(1), F(1, 2))


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


@pytest.mark.parametrize("validate", [True, False])
def test_non_unipotent_translation_is_rejected(validate):
    alg = heisenberg()
    scaled = RationalMatrix([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="translation part is not unipotent"):
        AffineElement(alg, scaled, RationalMatrix.identity(3), validate=validate)


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
        assert g.power(3) == g.compose(g).compose(g)
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


def test_enumerate_ball_counts_and_identity_first():
    data = _z2_data()
    ball1 = list(data.enumerate_ball(1))
    assert ball1[0][0] == "" and ball1[0][1].is_identity()
    assert len(ball1) == 5
    assert len(list(data.enumerate_ball(2))) == 13


def test_gamma_json_round_trip():
    data = _klein_data()
    obj = data.to_json()
    back = GammaActionData.from_json(data.algebra, obj)
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


def _upper4_algebra():
    gens = tuple(nilp_exp(_elem(i, i + 1, 4)) for i in range(3))
    return lie_closure(UnipotentGroupData(generators=gens, dim_ambient=4))


def test_class_three_fixed_point_is_found_exactly():
    alg = _upper4_algebra()
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
    alg = _upper4_algebra()
    lin = RationalMatrix([[1, 0, 0, 0, 0, 0], [0, -1, 0, 0, 0, 0],
                          [0, 0, 1, 0, 0, 0], [0, 0, 0, -1, 0, 0],
                          [0, 0, 0, 0, -1, 0], [0, 0, 0, 0, 0, 1]])
    assert not is_lie_automorphism(alg, lin)
    g = AffineElement(alg, nilp_exp(_elem(1, 2, 4)), lin, validate=False)
    with pytest.raises(FixedPointScopeError):
        fixed_point_solve(g)


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

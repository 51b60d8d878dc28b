"""The word-ball hot path against the plain routes it replaced.

`RationalMatrix.apply` runs over each row's nonzero entries, `group_product`
adds x + y to the law's nonlinear terms only, `as_polynomial_map` builds
u + A x and substitutes only into those terms, and MPoly arithmetic builds
its results without checking their terms again. Each is compared exactly
with the route before it: the dense product, the full law evaluated term by
term, the full law substituted at (u, A x), and arithmetic through the
validating MPoly constructor. The inputs are the radius-3 balls of the
built-in bundles, the 4x4 and 5x5 upper unitriangular algebras (classes 3
and 4) and non-monomial holonomies, at seeded rational points.
"""

import random
from fractions import Fraction as F

import pytest
from test_actions import _oracle_polynomial_map, _upper_algebra

from infrasolv import bundles
from infrasolv.actions import (AffineElement, is_lie_automorphism,
                               right_translation_map)
from infrasolv.hull import hol_from_ambient
from infrasolv.lie import nilp_exp
from infrasolv.linalg import RationalMatrix, _frac
from infrasolv.polynomial import MPoly, PolynomialMap

SEED = 20261018


# ------------------------------------------------------------------
# the routes before the hot-path change

def _dense_apply(m, vec):
    v = [_frac(x) for x in vec]
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m.data)


def _full_group_product(alg, x, y):
    """Every term of every component of group_law(), the linear ones too."""
    point = [_frac(c) for c in x] + [_frac(c) for c in y]
    out = []
    for comp in alg.group_law():
        total = F(0)
        for exps, c in comp.terms.items():
            for v, e in zip(point, exps):
                if e:
                    c *= v ** e
            total += c
        out.append(total)
    return tuple(out)


def _oracle_right_translation_map(alg, cv):
    n = alg.dim
    args = ([MPoly.variable(n, i) for i in range(n)]
            + [MPoly.constant(n, c) for c in cv])
    return PolynomialMap([c.substitute(args) for c in alg.group_law()])


def _checked_sum(p, q, sign):
    out = dict(p.terms)
    for e, c in q.terms.items():
        out[e] = out.get(e, F(0)) + sign * c
    return MPoly(p.nvars, out)


def _checked_product(p, q):
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, F(0)) + c1 * c2
    return MPoly(p.nvars, out)


def _checked_substitute(p, polys):
    target = polys[0].nvars
    total = MPoly.zero(target)
    for exps, c in p.terms.items():
        term = MPoly.constant(target, c)
        for q, e in zip(polys, exps):
            for _ in range(e):
                term = _checked_product(term, q)
        total = _checked_sum(total, term, 1)
    return total


def _assert_same_poly(got, want):
    """Equal terms, and got's terms as the validating constructor makes them:
    nonzero Fraction coefficients on tuples of nvars nonnegative ints."""
    assert got.nvars == want.nvars and got.terms == want.terms
    assert got.terms == MPoly(got.nvars, got.terms).terms
    for exps, c in got.terms.items():
        assert type(c) is F and c
        assert type(exps) is tuple and len(exps) == got.nvars
        assert all(type(e) is int and e >= 0 for e in exps)


def _assert_same_map(got, want):
    assert len(got.components) == len(want.components)
    for a, b in zip(got.components, want.components):
        _assert_same_poly(a, b)


# ------------------------------------------------------------------
# inputs

def _rational(rng):
    return F(rng.randint(-7, 7), rng.randint(1, 5))


def _points(rng, n, count=4):
    pts = [tuple(_rational(rng) for _ in range(n)) for _ in range(count)]
    pts.append(tuple(rng.randint(-4, 4) for _ in range(n)))  # int inputs
    pts.append((F(0),) * n)
    return pts


def _check_element(elem, rng):
    alg, n = elem.algebra, elem.algebra.dim
    _assert_same_map(elem.as_polynomial_map(), _oracle_polynomial_map(elem))
    for pt in [elem.u] + _points(rng, n, 2):
        assert elem.hol.apply(pt) == _dense_apply(elem.hol, pt)
        assert all(type(c) is F for c in elem.hol.apply(pt))
        image = elem.apply(pt)
        assert image == _full_group_product(alg, elem.u, _dense_apply(elem.hol, pt))
        assert image == elem.as_polynomial_map().eval(pt)


def _check_algebra(alg, rng):
    n = alg.dim
    for x, y in zip(_points(rng, n), reversed(_points(rng, n))):
        got = alg.group_product(x, y)
        assert got == _full_group_product(alg, x, y)
        assert all(type(c) is F for c in got)
    for cv in _points(rng, n, 2):
        _assert_same_map(right_translation_map(alg, _exp(alg, cv)),
                         _oracle_right_translation_map(alg, tuple(map(F, cv))))


def _exp(alg, cv):
    return nilp_exp(alg.matrix_from_coords(cv))


def _diagonal_hol(alg, d):
    """The automorphism of conjugation by diag(1, 2, 1/3, 5, ...)."""
    diag = [F(1), F(2), F(1, 3), F(5), F(-3, 2)][:d]
    t = RationalMatrix([[diag[i] if i == j else 0 for j in range(d)] for i in range(d)])
    hol = hol_from_ambient(alg, t)
    assert is_lie_automorphism(alg, hol)
    assert any(x not in (0, 1, -1) for row in hol.data for x in row)
    return hol


# ------------------------------------------------------------------
# the comparisons

@pytest.mark.parametrize("name", bundles.builtin_names())
def test_hot_path_matches_the_plain_routes_on_radius_three_balls(name):
    gamma = bundles.load(name).gamma
    rng = random.Random(f"{SEED}-ball-{name}")
    _check_algebra(gamma.algebra, rng)
    for _, elem in gamma.enumerate_ball(3):
        _check_element(elem, rng)
        inverse = elem.inverse()
        assert inverse.u == tuple(-x for x in _dense_apply(inverse.hol, elem.u))


@pytest.mark.parametrize("d", [4, 5])
def test_hot_path_matches_the_plain_routes_on_unitriangular_algebras(d):
    alg = _upper_algebra(d)
    assert alg.nilpotency_class() == d - 1
    rng = random.Random(f"{SEED}-upper{d}")
    _check_algebra(alg, rng)
    hols = (RationalMatrix.identity(alg.dim), _diagonal_hol(alg, d))
    for hol in hols:
        for u in _points(rng, alg.dim):
            _check_element(AffineElement.from_coords(alg, map(_frac, u), hol), rng)


def test_hot_path_matches_the_plain_routes_under_sol3_holonomy():
    gamma = bundles.load("sol3").gamma
    s = gamma.generators["s"]
    assert s.hol.data[0][:2] == (2, 1) and s.hol.data[1][:2] == (1, 1)
    rng = random.Random(f"{SEED}-sol3")
    for k in (-3, -1, 1, 2, 5):
        power = s.power(k)
        _check_element(power, rng)
        for pt in _points(rng, 3):
            assert power.hol.apply(pt) == _dense_apply(power.hol, pt)


def test_apply_matches_the_dense_product_on_seeded_matrices():
    rng = random.Random(f"{SEED}-apply")
    entries = (0, 0, 0, 1, -1, 2, F(-1, 3), F(5, 2))
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = RationalMatrix([[rng.choice(entries) for _ in range(cols)]
                            for _ in range(rows)])
        for vec in _points(rng, cols):
            assert m.apply(vec) == _dense_apply(m, vec)
            assert m.apply(list(vec)) == m.apply(vec)
    with pytest.raises(ValueError):
        RationalMatrix.identity(3).apply((1, 2))
    with pytest.raises(TypeError):
        RationalMatrix.identity(2).apply((1, 0.5))


def test_polynomial_arithmetic_matches_the_validating_constructor():
    rng = random.Random(f"{SEED}-mpoly")
    polys = [c for comp in (_upper_algebra(4).group_law(),
                            bundles.load("heisenberg_infra").hull.algebra.group_law())
             for c in comp]
    for _ in range(30):
        n = rng.randint(1, 4)
        terms = {tuple(rng.randint(0, 2) for _ in range(n)): _rational(rng)
                 for _ in range(rng.randint(0, 5))}
        polys.append(MPoly(n, terms))
    by_nvars = {}
    for p in polys:
        by_nvars.setdefault(p.nvars, []).append(p)
    for group in by_nvars.values():
        for p in group:
            q = rng.choice(group)
            _assert_same_poly(p + q, _checked_sum(p, q, 1))
            _assert_same_poly(p - q, _checked_sum(p, q, -1))
            _assert_same_poly(p - p, MPoly.zero(p.nvars))
            _assert_same_poly(-p, _checked_sum(MPoly.zero(p.nvars), p, -1))
            _assert_same_poly(p * q, _checked_product(p, q))
            c = _rational(rng)
            _assert_same_poly(p * c, _checked_product(p, MPoly.constant(p.nvars, c)))
            _assert_same_poly(p * 0, MPoly.zero(p.nvars))
            m = rng.randint(1, 3)
            args = [rng.choice(by_nvars.get(m, [MPoly.variable(m, 0)]))
                    if rng.random() < 0.5 else MPoly.constant(m, _rational(rng))
                    for _ in range(p.nvars)]
            _assert_same_poly(p.substitute(args), _checked_substitute(p, args))

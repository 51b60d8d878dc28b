"""The coordinate group law against ambient matrix products, the reference.

AffineElement composes in exponential coordinates through the algebra's
polynomial group law mu(x, y) = log(exp x * exp y), computed from the
structure constants by the Baker-Campbell-Hausdorff recursion. Here the
law is also computed the way it is defined, by symbolic exp and log of
ambient matrices, and every word is also built by ambient products
g * exp(A log g'); the two must agree exactly: laws, translation matrices,
holonomies, images of points and emitted polynomial maps.
"""

import random
from fractions import Fraction as F

import pytest
from test_actions import _upper_algebra
from test_lie import _conjugated_unitriangular_sets

from infrasolv import bundles
from infrasolv.actions import AffineElement, GammaActionData
from infrasolv.hull import hol_from_ambient
from infrasolv.lie import (NilpotentLieAlgebra, UnipotentGroupData, lie_closure,
                           nilp_exp, unip_log)
from infrasolv.linalg import RationalMatrix, rref_basis
from infrasolv.polynomial import MPoly, PolynomialMap

SEED = 20261018
WORDS_PER_BUNDLE = 8
MAX_WORD_LENGTH = 6


# ------------------------------------------------------------------
# the reference: symbolic ambient matrices, lists of rows of MPoly over the
# same nvars, through which the law was once computed

def _pm_constant_matrix(m: RationalMatrix, nvars: int):
    return [[MPoly.constant(nvars, x) for x in row] for row in m.data]


def _pm_mul(a, b):
    bt = list(zip(*b))
    return [[_pm_dot(row, col) for col in bt] for row in a]


def _pm_dot(row, col):
    acc = row[0] * col[0]
    for x, y in zip(row[1:], col[1:]):
        acc = acc + x * y
    return acc


def _pm_add(a, b, sign=1):
    return [[x + sign * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _pm_scale(a, c):
    return [[x * c for x in row] for row in a]


def _pm_is_zero(a):
    return all(x.is_zero() for row in a for x in row)


def _symbolic_u_element(algebra, coord_polys):
    """Sum_i coord_polys[i] * B_i as a symbolic ambient matrix."""
    d = algebra.ambient[0].rows
    nvars = coord_polys[0].nvars
    out = [[MPoly.zero(nvars) for _ in range(d)] for _ in range(d)]
    for c, b in zip(coord_polys, algebra.ambient):
        for r in range(d):
            for s in range(d):
                if b[r, s]:
                    out[r][s] = out[r][s] + c * b[r, s]
    return out


def _pm_exp(x):
    """exp of a symbolic matrix, nilpotent for every evaluation point."""
    d = len(x)
    nvars = x[0][0].nvars
    acc = _pm_constant_matrix(RationalMatrix.identity(d), nvars)
    power = x
    fact = 1
    k = 1
    while not _pm_is_zero(power):
        if k > d:
            raise ValueError("symbolic exponential did not terminate: input not nilpotent")
        fact *= k
        acc = _pm_add(acc, _pm_scale(power, F(1, fact)))
        power = _pm_mul(power, x)
        k += 1
    return acc


def _pm_log(p):
    """log of a symbolic matrix, unipotent for every evaluation point."""
    d = len(p)
    nvars = p[0][0].nvars
    n = _pm_add(p, _pm_constant_matrix(RationalMatrix.identity(d), nvars), sign=-1)
    acc = [[MPoly.zero(nvars) for _ in range(d)] for _ in range(d)]
    power = n
    k = 1
    while not _pm_is_zero(power):
        if k > d:
            raise ValueError("symbolic logarithm did not terminate: input not unipotent")
        acc = _pm_add(acc, _pm_scale(power, F((-1) ** (k + 1), k)))
        power = _pm_mul(power, n)
        k += 1
    return acc


def _pm_coords(algebra, sym):
    """Coordinates of a symbolic matrix known to lie in u, via the left inverse."""
    lf = algebra.coord_functional()
    flat = [x for row in sym for x in row]
    nvars = flat[0].nvars
    comps = []
    for i in range(algebra.dim):
        acc = MPoly.zero(nvars)
        for t, x in enumerate(flat):
            c = lf[i, t]
            if c and not x.is_zero():
                acc = acc + x * c
        comps.append(acc)
    # the functional is only a left inverse: check the residual vanishes
    rebuilt = _symbolic_u_element(algebra, comps)
    if not _pm_is_zero(_pm_add(sym, rebuilt, sign=-1)):
        raise ValueError("symbolic matrix does not lie in the algebra span")
    return comps


def _symbolic_group_law(algebra):
    """log(exp x * exp y) in coordinates, by symbolic ambient matrices."""
    v = [MPoly.variable(2 * algebra.dim, i) for i in range(2 * algebra.dim)]
    prod = _pm_mul(_pm_exp(_symbolic_u_element(algebra, v[:algebra.dim])),
                   _pm_exp(_symbolic_u_element(algebra, v[algebra.dim:])))
    return tuple(_pm_coords(algebra, _pm_log(prod)))


def _log_left_product_map(algebra, left, hol):
    """x -> log(left * exp(hol x)) as an exact polynomial map."""
    n = algebra.dim
    xs = [MPoly.variable(n, i) for i in range(n)]
    moved = []
    for i in range(n):
        acc = MPoly.zero(n)
        for j in range(n):
            c = hol[i, j]
            if c:
                acc = acc + xs[j] * c
        moved.append(acc)
    inner = _pm_exp(_symbolic_u_element(algebra, moved))
    prod = _pm_mul(_pm_constant_matrix(left, n), inner)
    return PolynomialMap(_pm_coords(algebra, _pm_log(prod)))


def _hol_apply_ambient(algebra, hol, g):
    """The automorphism of U with differential hol, on an ambient element g."""
    coords = algebra.coords_of_matrix(unip_log(g))
    return nilp_exp(algebra.matrix_from_coords(hol.apply(coords)))


def _ambient_compose(algebra, a, b):
    """(g, A)(g', B) = (g * exp(A log g'), A B) on ambient matrices."""
    (g, ha), (g2, hb) = a, b
    return g * _hol_apply_ambient(algebra, ha, g2), ha * hb


def _ambient_inverse(algebra, a):
    g, h = a
    hinv = h.inverse()
    return _hol_apply_ambient(algebra, hinv, g.inverse()), hinv


def _ambient_apply(algebra, a, point):
    g, h = a
    moved = nilp_exp(algebra.matrix_from_coords(h.apply(point)))
    return algebra.coords_of_matrix(unip_log(g * moved))


def _random_word(rng, names):
    length = rng.randint(1, MAX_WORD_LENGTH)
    return [(rng.choice(names), rng.choice((1, -1))) for _ in range(length)]


def _check_words(gamma, rng):
    alg = gamma.algebra
    names = sorted(gamma.generators)
    ident = (RationalMatrix.identity(alg.ambient[0].rows),
             RationalMatrix.identity(alg.dim))
    for _ in range(WORDS_PER_BUNDLE):
        word = _random_word(rng, names)
        text = " ".join(n if k == 1 else f"{n}^-1" for n, k in word)
        elem = gamma.evaluate_word(text)
        ref = ident
        for n, k in word:
            g = gamma.generators[n]
            letter = (g.translation, g.hol)
            if k == -1:
                letter = _ambient_inverse(alg, letter)
            ref = _ambient_compose(alg, ref, letter)
        assert elem.translation == ref[0], text
        assert elem.hol == ref[1], text
        for _ in range(3):
            pt = tuple(F(rng.randint(-5, 5), rng.randint(1, 4))
                       for _ in range(alg.dim))
            assert elem.apply(pt) == _ambient_apply(alg, ref, pt), (text, pt)
        assert elem.as_polynomial_map() == _log_left_product_map(alg, *ref), text


@pytest.mark.parametrize("name", bundles.builtin_names())
def test_coordinate_law_matches_ambient_products(name):
    _check_words(bundles.load(name).gamma, random.Random(f"{SEED}-{name}"))


def test_class_three_law_matches_ambient_products():
    # the built-in bundles have class <= 2, where mu is bilinear; in the
    # filiform algebra ad(x)^2 != 0, so mu has terms of degree 2 in x
    rng = random.Random(SEED)
    block = RationalMatrix([[int(c == r + 1) for c in range(4)] for r in range(4)])
    corner = RationalMatrix([[int((r, c) == (2, 3)) for c in range(4)]
                             for r in range(4)])
    steps = (nilp_exp(block), nilp_exp(corner))
    alg = lie_closure(UnipotentGroupData(generators=steps, dim_ambient=4))
    assert alg.nilpotency_class() == 3
    flip = hol_from_ambient(alg, RationalMatrix([[1, 0, 0, 0], [0, -1, 0, 0],
                                                 [0, 0, 1, 0], [0, 0, 0, -1]]))
    coords = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(alg.dim))
    gens = {"a": AffineElement(alg, steps[0], RationalMatrix.identity(alg.dim)),
            "b": AffineElement(alg, steps[1], flip),
            "c": AffineElement(alg, nilp_exp(alg.matrix_from_coords(coords)), flip)}
    assert any(max(e) > 1 for comp in alg.group_law() for e in comp.terms)
    _check_words(GammaActionData(alg, gens), rng)


@pytest.mark.parametrize("name", bundles.builtin_names() + ["upper4"])
def test_group_product_matches_law_polynomials(name):
    # the reference is the law evaluated one MPoly component at a time
    alg = _upper_algebra(4) if name == "upper4" else bundles.load(name).hull.algebra
    rng = random.Random(f"{SEED}-product-{name}")
    for _ in range(10):
        x, y = (tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(alg.dim))
                for _ in range(2))
        want = tuple(c.eval(x + y) for c in alg.group_law())
        assert alg.group_product(x, y) == want
        assert alg.group_product(list(map(int, x)), y) == tuple(
            c.eval(tuple(map(int, x)) + y) for c in alg.group_law())
    with pytest.raises(ValueError):
        alg.group_product(x, y[1:])


def _changed_basis_closure():
    """A closure whose canonical span is not adapted to the lower central
    series, so that its algebra comes from a change of basis (W != I)."""
    for data in _conjugated_unitriangular_sets(11, 16):
        alg = lie_closure(data)
        flat = [m.flatten() for m in alg.ambient]
        if flat != rref_basis(flat):
            return alg
    raise AssertionError("no seeded closure needed a change of basis")


@pytest.mark.parametrize("name", bundles.builtin_names()
                         + ["changed_basis", "upper4", "upper5", "upper6"])
def test_law_from_structure_constants_matches_symbolic_matrices(name):
    if name == "changed_basis":
        alg = _changed_basis_closure()
    elif name.startswith("upper"):
        alg = _upper_algebra(int(name[-1]))
        assert alg.nilpotency_class() == int(name[-1]) - 1
    else:
        alg = bundles.load(name).hull.algebra
    assert alg.group_law() == _symbolic_group_law(alg)


def test_law_without_ambient_matrices_is_a_group_law():
    # the filiform algebra [e1, e_i] = e_(i+1), i = 2, 3, 4: class 4, given
    # by structure constants alone
    unit = [tuple(int(j == k) for j in range(5)) for k in range(5)]
    alg = NilpotentLieAlgebra(5, {(0, i): unit[i + 1] for i in range(1, 4)})
    assert alg.ambient is None and alg.nilpotency_class() == 4
    assert max(c.degree() for c in alg.group_law()) == 4
    rng = random.Random(f"{SEED}-filiform")

    def rational():
        return F(rng.randint(-5, 5), rng.randint(1, 4))

    def scaled(s, x):
        return tuple(s * c for c in x)
    mu = alg.group_product
    for _ in range(10):
        x, y, z = (tuple(rational() for _ in range(5)) for _ in range(3))
        s, t = rational(), rational()
        assert mu(mu(x, y), z) == mu(x, mu(y, z))
        assert mu(x, scaled(-1, x)) == (0,) * 5
        assert mu(scaled(s, x), scaled(t, x)) == scaled(s + t, x)

"""The coordinate group law against ambient matrix products, the reference.

AffineElement composes in exponential coordinates through the algebra's
polynomial group law mu(x, y) = log(exp x * exp y). Here every word is also
built the way the law is defined, by ambient products g * exp(A log g'),
and the two must agree exactly: translation matrices, holonomies, images
of points and emitted polynomial maps.
"""

import random
from fractions import Fraction as F

import pytest
from test_actions import _upper4_algebra

from infrasolv import bundles
from infrasolv.actions import AffineElement, GammaActionData
from infrasolv.hull import hol_from_ambient
from infrasolv.lie import (UnipotentGroupData, _pm_constant_matrix, _pm_coords,
                           _pm_exp, _pm_log, _pm_mul, _symbolic_u_element,
                           lie_closure, nilp_exp, unip_log)
from infrasolv.linalg import RationalMatrix
from infrasolv.polynomial import MPoly, PolynomialMap

SEED = 20261018
WORDS_PER_BUNDLE = 8
MAX_WORD_LENGTH = 6


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
    alg = _upper4_algebra() if name == "upper4" else bundles.load(name).hull.algebra
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

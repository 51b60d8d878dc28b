"""Jordan decomposition: frozen oracles, invariants, functoriality."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from test_linalg import krylov_min_poly

from infrasolv import bundles, linalg
from infrasolv.jordan import (additive_jordan, is_semisimple, is_unipotent,
                              multiplicative_jordan)
from infrasolv.linalg import RationalMatrix, poly_gcd, rank

F = Fraction


def M(rows):
    return RationalMatrix(rows)


def test_additive_frozen_examples():
    d = additive_jordan(M([[2, 1], [0, 2]]))
    assert d.semisimple == M([[2, 0], [0, 2]])
    assert d.nilpotent == M([[0, 1], [0, 0]])

    d = additive_jordan(M([[0, 1], [0, 0]]))
    assert d.semisimple == RationalMatrix.zero(2, 2)
    assert d.nilpotent == M([[0, 1], [0, 0]])

    d = additive_jordan(M([[1, 0], [0, 2]]))
    assert d.semisimple == M([[1, 0], [0, 2]])
    assert d.nilpotent.is_zero()


def test_multiplicative_frozen_example():
    d = multiplicative_jordan(M([[2, 1], [0, 2]]))
    assert d.semisimple == M([[2, 0], [0, 2]])
    assert d.unipotent == M([[1, "1/2"], [0, 1]])


def test_multiplicative_rejects_singular():
    with pytest.raises(ValueError):
        multiplicative_jordan(M([[1, 0], [0, 0]]))


def test_predicates_frozen():
    assert is_semisimple(M([[0, -1], [1, 0]]))  # x^2 + 1 squarefree
    assert not is_semisimple(M([[2, 1], [0, 2]]))
    assert is_unipotent(M([[1, 5], [0, 1]]))
    assert not is_unipotent(M([[2, 0], [0, 1]]))
    assert is_unipotent(RationalMatrix.identity(3))


def _check_additive(m):
    d = additive_jordan(m)
    n = m.rows
    assert d.semisimple + d.nilpotent == m
    assert d.semisimple * d.nilpotent == d.nilpotent * d.semisimple
    assert (d.nilpotent ** n).is_zero()
    p = krylov_min_poly(d.semisimple)
    assert poly_gcd(p, p.derivative()).degree() == 0
    return d


def _check_multiplicative(g):
    d = multiplicative_jordan(g)
    assert d.semisimple * d.unipotent == g
    assert d.unipotent * d.semisimple == g  # parts commute
    assert is_unipotent(d.unipotent)
    assert is_semisimple(d.semisimple)
    return d


def _random_matrix(rng, n, invertible=False):
    while True:
        m = RationalMatrix([[F(rng.randint(-4, 4), rng.choice((1, 1, 2)))
                             for _ in range(n)] for _ in range(n)])
        if not invertible or rank(m) == n:
            return m


def _random_unimodular(rng, n):
    m = RationalMatrix.identity(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        e = [[F(int(a == b)) for b in range(n)] for a in range(n)]
        e[i][j] = F(rng.choice((-1, 1)))
        m = m * RationalMatrix(e)
    return m


def test_random_additive_suite():
    rng = random.Random(20260815)
    for _ in range(40):
        _check_additive(_random_matrix(rng, rng.randint(1, 4)))


def test_random_multiplicative_suite():
    rng = random.Random(7)
    for _ in range(30):
        _check_multiplicative(_random_matrix(rng, rng.randint(1, 4), invertible=True))


def test_conjugation_functoriality():
    # jordan parts of h g h^-1 are the conjugated jordan parts of g
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randint(2, 4)
        g = _random_matrix(rng, n, invertible=True)
        h = _random_unimodular(rng, n)
        hinv = h.inverse()
        d = multiplicative_jordan(g)
        dc = multiplicative_jordan(h * g * hinv)
        assert dc.semisimple == h * d.semisimple * hinv
        assert dc.unipotent == h * d.unipotent * hinv


def test_semisimple_iff_trivial_unipotent_part():
    m = M([[0, -1], [1, 0]])
    d = multiplicative_jordan(m)
    assert d.unipotent == RationalMatrix.identity(2)
    assert d.semisimple == m


def _krylov_semisimple(m):
    """Semisimple iff the minimal polynomial, from Krylov solves, is squarefree."""
    p = krylov_min_poly(m)
    return poly_gcd(p, p.derivative()).degree() == 0


def _block(a, b, c):
    """The block matrix [[a, b], [0, c]]."""
    zero = [F(0)] * a.cols
    return M([list(ra) + list(rb) for ra, rb in zip(a.data, b.data)]
             + [zero + list(rc) for rc in c.data])


def _semisimple_cases():
    rng = random.Random(20261019)
    for name in bundles.builtin_names():
        yield from bundles.load(name).hull.t_generators
    for n in range(1, 6):
        for _ in range(6):
            yield _random_matrix(rng, n)
    # Jordan blocks of sizes 1-3 on repeated eigenvalues, conjugated
    for _ in range(10):
        n = rng.randint(2, 5)
        eig = [rng.choice((1, 2, F(-1, 2))) for _ in range(n)]
        couple = [rng.choice((0, 1)) and eig[i] == eig[i + 1] for i in range(n - 1)]
        j = M([[eig[i] if i == k else int(k == i + 1 and couple[i]) for k in range(n)]
               for i in range(n)])
        h = _random_unimodular(rng, n)
        yield h * j * h.inverse()
    rot = M([[0, -1], [1, 0]])
    yield rot
    yield _block(rot, RationalMatrix.zero(2, 2), rot)
    yield _block(rot, RationalMatrix.identity(2), rot)


def test_is_semisimple_matches_the_krylov_oracle():
    cases = list(_semisimple_cases())
    assert len(cases) == 8 + 30 + 10 + 3
    verdicts = [is_semisimple(m) for m in cases]
    assert verdicts == [_krylov_semisimple(m) for m in cases]
    assert all(verdicts[:8]) and True in verdicts[8:] and False in verdicts[8:]
    # the rotation is irreducible over Q, so not diagonalizable there, but
    # semisimple; the nilpotent coupling of two copies is not
    assert verdicts[-3:] == [True, True, False]


def test_is_semisimple_makes_no_solve(monkeypatch):
    cases = list(_semisimple_cases())
    calls = []
    for name in ("solve", "_forward"):
        original = getattr(linalg, name)
        monkeypatch.setattr(linalg, name,
                            lambda *a, f=original: calls.append(1) or f(*a))
    for m in cases:
        is_semisimple(m)
    assert calls == []

import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from infrasolv import bundles
from infrasolv.cohomology import (CEComplex, DualityReport, cohomology_ranks,
                                  duality_report, euler_characteristic,
                                  invariant_cohomology_ranks)
from infrasolv.lie import NilpotentLieAlgebra, UnipotentGroupData, lie_closure, nilp_exp
from infrasolv.linalg import RationalMatrix


def _elem(i, j, n):
    rows = [[0] * n for _ in range(n)]
    rows[i][j] = 1
    return RationalMatrix(rows)


def abelian(n):
    return NilpotentLieAlgebra(dim=n, brackets={})


def heisenberg():
    x = RationalMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    y = RationalMatrix([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    return lie_closure(UnipotentGroupData(generators=(x, y), dim_ambient=3))


def upper4():
    gens = tuple(nilp_exp(_elem(i, i + 1, 4)) for i in range(3))
    return lie_closure(UnipotentGroupData(generators=gens, dim_ambient=4))


# ------------------------------------------------------------------
# full complex

def test_torus_betti():
    assert cohomology_ranks(abelian(1)) == (1, 1)
    assert cohomology_ranks(abelian(2)) == (1, 2, 1)
    assert cohomology_ranks(abelian(3)) == (1, 3, 3, 1)


def test_heisenberg_betti():
    assert cohomology_ranks(heisenberg()) == (1, 2, 2, 1)


def test_upper_triangular_betti_is_palindromic():
    ranks = cohomology_ranks(upper4())
    assert ranks[0] == 1 and ranks[-1] == 1
    assert ranks == tuple(reversed(ranks))
    assert euler_characteristic(ranks) == 0


def test_zero_dimensional_algebra():
    assert cohomology_ranks(abelian(0)) == (1,)
    assert invariant_cohomology_ranks(abelian(0), []) == (1,)


def test_differential_squares_to_zero():
    cx = CEComplex(upper4())
    for k in range(cx.dim - 1):
        assert (cx.diff[k + 1] * cx.diff[k]).is_zero()


def test_dimension_cap():
    with pytest.raises(ValueError):
        cohomology_ranks(abelian(4), max_dim=3)
    assert cohomology_ranks(abelian(4), max_dim=4) == (1, 4, 6, 4, 1)


def test_euler_characteristic_vanishes_on_full_complex():
    for alg in (abelian(1), abelian(4), heisenberg(), upper4()):
        assert euler_characteristic(cohomology_ranks(alg)) == 0


# ------------------------------------------------------------------
# invariant complex

def test_klein_invariant_betti():
    hol = RationalMatrix([[1, 0], [0, -1]])
    assert invariant_cohomology_ranks(abelian(2), [hol]) == (1, 1, 0)


def test_half_turn_invariant_betti():
    hol = RationalMatrix([[-1, 0], [0, -1]])
    assert invariant_cohomology_ranks(abelian(2), [hol]) == (1, 0, 1)


def test_hantzsche_wendt_invariant_betti():
    h1 = RationalMatrix([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    h2 = RationalMatrix([[-1, 0, 0], [0, 1, 0], [0, 0, -1]])
    assert invariant_cohomology_ranks(abelian(3), [h1, h2]) == (1, 0, 0, 1)


def test_heisenberg_infra_invariant_betti():
    alg = heisenberg()
    hol = RationalMatrix([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    assert invariant_cohomology_ranks(alg, [hol]) == (1, 1, 1, 1)


def test_sol_invariant_betti_integral_hyperbolic():
    hol = RationalMatrix([[2, 1, 0], [1, 1, 0], [0, 0, 1]])
    assert invariant_cohomology_ranks(abelian(3), [hol]) == (1, 1, 1, 1)


def test_sol_invariant_betti_diagonal():
    hol = RationalMatrix([[2, 0, 0], [0, F(1, 2), 0], [0, 0, 1]])
    assert invariant_cohomology_ranks(abelian(3), [hol]) == (1, 1, 1, 1)


def test_invariants_with_no_holonomy_give_full_betti():
    assert invariant_cohomology_ranks(heisenberg(), []) == (1, 2, 2, 1)


def test_action_rejects_non_automorphism():
    alg = heisenberg()
    cx = CEComplex(alg)
    monomial = RationalMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 5]])
    not_monomial = RationalMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    for bad in (monomial, not_monomial):
        with pytest.raises(ValueError):
            cx.action_matrices(bad)
        with pytest.raises(ValueError):
            _oracle_actions(cx, bad)


def test_action_matrices_multiplicative():
    alg = heisenberg()
    d = RationalMatrix([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    cx = CEComplex(alg)
    mats = cx.action_matrices(d)
    twice = cx.action_matrices(d * d)
    for k in range(4):
        assert mats[k] * mats[k] == twice[k]


# ------------------------------------------------------------------
# duality diagnostic

def test_duality_report_orientable():
    h1 = RationalMatrix([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    h2 = RationalMatrix([[-1, 0, 0], [0, 1, 0], [0, 0, -1]])
    rep = duality_report(abelian(3), [h1, h2])
    assert rep == DualityReport(orientable=True, duality_ok=True,
                                ranks=(1, 0, 0, 1))


def test_duality_report_nonorientable():
    hol = RationalMatrix([[1, 0], [0, -1]])
    rep = duality_report(abelian(2), [hol])
    assert not rep.orientable
    assert rep.duality_ok  # vacuous without orientability
    assert rep.ranks == (1, 1, 0)
    assert rep.to_json()["ranks"] == [1, 1, 0]


# ------------------------------------------------------------------
# dense reference: the differential by the Koszul formula, Lambda^k rho by
# all k x k minors, and the checks by dense products

def _sorted_sign(idx):
    """(sorted tuple, sign of the sorting permutation); idx has no repeats."""
    inversions = sum(1 for a in range(len(idx)) for b in range(a + 1, len(idx))
                     if idx[a] > idx[b])
    return tuple(sorted(idx)), (-1) ** inversions


def _oracle_diff(alg, k):
    """(d w)(x_0..x_k) = sum_(a<b) (-1)^(a+b) w([x_a, x_b], x_0..^a..^b..x_k)."""
    n = alg.dim
    rows = list(combinations(range(n), k + 1))
    cols = {t: c for c, t in enumerate(combinations(range(n), k))}
    data = [[F(0)] * len(cols) for _ in rows]
    for r, idx in enumerate(rows):
        for a in range(k + 1):
            for b in range(a + 1, k + 1):
                br = alg.bracket_coords(alg.basis_vector(idx[a]),
                                        alg.basis_vector(idx[b]))
                rest = idx[:a] + idx[a + 1:b] + idx[b + 1:]
                for m, v in enumerate(br):
                    if v and m not in rest:
                        key, sign = _sorted_sign((m,) + rest)
                        data[r][cols[key]] += (-1) ** (a + b) * sign * v
    return RationalMatrix(data)


def _oracle_actions(cx, hol):
    rho = hol.inverse().transpose()
    mats = []
    for level in cx.basis:
        data = [[F(1) if not r else
                 RationalMatrix([[rho[i, j] for j in c] for i in r]).det()
                 for c in level] for r in level]
        mats.append(RationalMatrix(data))
    for k in range(cx.dim):
        if cx.diff[k] * mats[k] != mats[k + 1] * cx.diff[k]:
            raise ValueError("not an algebra automorphism")
    return mats


def _signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return RationalMatrix([[rng.choice((1, -1)) if perm[j] == i else 0
                            for j in range(n)] for i in range(n)])


def _inner(rng, alg):
    """exp(ad x) for a random rational x: a unipotent automorphism."""
    x = tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(alg.dim))
    return nilp_exp(alg.ad_matrix(x))


def _random_closure(rng, d):
    gens = []
    for _ in range(2):
        rows = [[int(i == j) for j in range(d)] for i in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                rows[i][j] = rng.choice((0, 0, 1, -1, 2))
        gens.append(RationalMatrix(rows))
    return lie_closure(UnipotentGroupData(generators=tuple(gens), dim_ambient=d))


def _oracle_cases():
    """(name, algebra, holonomies): monomial, non-monomial and rational diagonal."""
    rng = random.Random(11)
    cases = []
    for name in bundles.builtin_names():
        hull = bundles.load(name).hull
        cases.append((name, hull.algebra, list(hull.hol_matrices)
                      + [_inner(rng, hull.algebra)]))
    for n in (3, 4, 5):
        lower, upper = (RationalMatrix([[1 if i == j else rng.randint(-2, 2)
                                         if cmp(i, j) else 0 for j in range(n)]
                                        for i in range(n)])
                        for cmp in (int.__gt__, int.__lt__))
        dense = lower * upper  # determinant one, no zero entry likely
        diag = RationalMatrix([[F(rng.choice((2, -3, 5)), rng.choice((1, 7)))
                                if i == j else 0 for j in range(n)]
                               for i in range(n)])
        cases.append((f"abelian{n}", abelian(n),
                      [_signed_permutation(rng, n), dense, diag]))
    # Heisenberg algebra of dimension 5: [e_0, e_2] = [e_1, e_3] = e_4
    heis5 = NilpotentLieAlgebra(dim=5, brackets={(0, 2): (0, 0, 0, 0, 1),
                                                 (1, 3): (0, 0, 0, 0, 1)})
    swap = RationalMatrix([[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 0, 1, 0],
                           [0, 0, 1, 0, 0], [0, 0, 0, 0, 1]])
    weights = (F(2), F(1), F(1, 3), F(2, 3), F(2, 3))
    scale = RationalMatrix([[weights[i] if i == j else 0 for j in range(5)]
                            for i in range(5)])
    cases.append(("heisenberg5", heis5, [swap, scale, _inner(rng, heis5)]))
    for seed in range(6):
        alg = _random_closure(random.Random(seed), rng.choice((4, 5)))
        if 2 <= alg.dim <= 6:
            cases.append((f"closure{seed}", alg,
                          [_inner(rng, alg), _inner(rng, alg)]))
    return cases


ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("name,alg,hols", ORACLE_CASES,
                         ids=[c[0] for c in ORACLE_CASES])
def test_sparse_complex_matches_dense_oracle(name, alg, hols):
    cx = CEComplex(alg)
    for k in range(cx.dim):
        assert cx.diff[k] == _oracle_diff(alg, k)
    for k in range(cx.dim - 1):
        assert (cx.diff[k + 1] * cx.diff[k]).is_zero()
    for hol in hols:
        assert cx.action_matrices(hol) == _oracle_actions(cx, hol)


# ------------------------------------------------------------------
# cost guards: call counts, not timings

def _count_calls(monkeypatch, name):
    calls = []
    orig = getattr(RationalMatrix, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(RationalMatrix, name, counted)
    return calls


def test_signed_permutation_action_takes_no_determinant(monkeypatch):
    cx = CEComplex(abelian(5))
    hol = _signed_permutation(random.Random(5), 5)
    dets = _count_calls(monkeypatch, "det")
    cx.action_matrices(hol)
    assert not dets


def test_complex_and_invariants_take_no_dense_product(monkeypatch):
    products = _count_calls(monkeypatch, "__mul__")
    minus = RationalMatrix([[-int(i == j) for j in range(8)] for i in range(8)])
    cx = CEComplex(abelian(8))
    assert invariant_cohomology_ranks(abelian(8), [minus]) == (
        1, 0, 28, 0, 70, 0, 28, 0, 1)
    assert not products and cx.dim == 8


def test_complex_and_invariants_read_no_dense_matrix(monkeypatch):
    """The cohomology path reads matrices by their sparse rows only. -I is
    monomial, so no minor is taken: the minors alone read rho's dense rows."""
    dense = []

    def reader(name):
        def read(*args):
            dense.append(name)
            raise AssertionError(f"dense reader {name} called")
        return read

    for name in ("row", "__getitem__", "flatten"):
        monkeypatch.setattr(RationalMatrix, name, reader(name))
    monkeypatch.setattr(RationalMatrix, "data", property(reader("data")))
    minus = RationalMatrix([[-int(i == j) for j in range(6)] for i in range(6)])
    assert CEComplex(abelian(6)).betti_numbers() == (1, 6, 15, 20, 15, 6, 1)
    assert invariant_cohomology_ranks(abelian(6), [minus]) == (1, 0, 15, 0, 15, 0, 1)
    assert not dense

"""Nilpotent Lie algebras: logs, exps, closure, series, center."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_linalg import count_eliminations, in_span, small_fracs

from infrasolv import bundles, lie, linalg
from infrasolv.actions import GammaActionData
from infrasolv.hull import SplitHullData
from infrasolv.lie import (NilpotentLieAlgebra, UnipotentGroupData,
                           _structure_algebra, _unflatten, bracket,
                           bracket_closure, center,
                           lie_closure, lower_central_series, nilp_exp,
                           unip_log)
from infrasolv.linalg import RationalMatrix, complement, rref_basis
from infrasolv.schema import load_bundle

F = Fraction


def M(rows):
    return RationalMatrix(rows)


HEIS_X = M([[1, 1, 0], [0, 1, 0], [0, 0, 1]])  # exp(E12)
HEIS_Y = M([[1, 0, 0], [0, 1, 1], [0, 0, 1]])  # exp(E23)


def test_unip_log_frozen():
    assert unip_log(RationalMatrix.identity(2)).is_zero()
    assert unip_log(M([[1, 1], [0, 1]])) == M([[0, 1], [0, 0]])
    got = unip_log(M([[1, 1, 1], [0, 1, 1], [0, 0, 1]]))
    assert got == M([[0, 1, "1/2"], [0, 0, 1], [0, 0, 0]])


def test_log_exp_inverse():
    g = M([[1, 2, "1/3"], [0, 1, -1], [0, 0, 1]])
    assert nilp_exp(unip_log(g)) == g
    x = M([[0, "1/2", 5], [0, 0, "7/3"], [0, 0, 0]])
    assert unip_log(nilp_exp(x)) == x


def test_log_rejects_non_unipotent():
    with pytest.raises(ValueError):
        unip_log(M([[2, 0], [0, 1]]))
    with pytest.raises(ValueError):
        nilp_exp(M([[1, 0], [0, 1]]))


def test_series_are_exact_and_name_what_fails():
    assert nilp_exp(M([[0, 1, 0], [0, 0, 1], [0, 0, 0]])) == \
        M([[1, 1, "1/2"], [0, 1, 1], [0, 0, 1]])
    with pytest.raises(ValueError, match="^matrix is not unipotent$"):
        unip_log(M([[1, 1], [1, 1]]))
    with pytest.raises(ValueError, match="^matrix is not nilpotent$"):
        nilp_exp(M([[1, 0], [0, 1]]))
    with pytest.raises(ValueError, match="^exponential needs a square matrix$"):
        nilp_exp(M([[0, 1]]))


def test_log_of_commuting_product_adds():
    g = M([[1, 3], [0, 1]])
    h = M([[1, "1/2"], [0, 1]])
    assert unip_log(g * h) == unip_log(g) + unip_log(h)


def _oracle_closure_span(data):
    """The saturation with every (span, frontier) pair bracketed, [a, a]
    and both [a, b] and [b, a] included: the reference for lie_closure."""
    d = data.dim_ambient
    span = rref_basis([unip_log(g).flatten() for g in data.generators
                       if not unip_log(g).is_zero()])
    frontier = list(span)
    while frontier:
        mats = [_unflatten(v, d) for v in span]
        new = complement(span, [bracket(a, _unflatten(v, d)).flatten()
                                for a in mats for v in frontier])
        span = rref_basis(span + new)
        frontier = new
    return span


def test_lie_closure_brackets_each_first_round_pair_once(monkeypatch):
    gens = tuple(M([[int(r == c or (r, c) == (i, i + 1)) for c in range(4)]
                    for r in range(4)]) for i in range(3))
    data = UnipotentGroupData(generators=gens, dim_ambient=4)
    calls = []
    monkeypatch.setattr(lie, "bracket", lambda a, b: calls.append(1) or bracket(a, b))
    alg = lie_closure(data)
    assert alg.dim == 6
    # rounds: the 3 logs pairwise (3, not 9), 5 x 2 new, 6 x 1 new; then
    # 15 pairs for the raw structure constants; the adapted ones follow by
    # change of basis, with no ambient products
    assert len(calls) == 3 + 10 + 6 + 15


@pytest.mark.parametrize("name", bundles.builtin_names())
def test_lie_closure_span_matches_all_pairs_oracle(name):
    data = bundles.load(name).hull.u_data
    alg = lie_closure(data)
    assert (rref_basis([m.flatten() for m in alg.ambient])
            == _oracle_closure_span(data))


def _conjugated_unitriangular_sets(seed, count):
    """Generators P U P^-1, U upper unitriangular: their canonical span is
    rarely adapted to the lower central series already."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d, k = rng.randint(3, 5), rng.randint(2, 3)
        p = M([[int(i == j) or rng.choice((0, 0, 1, -1)) for j in range(d)]
               for i in range(d)])
        if p.det() == 0:
            continue
        pinv = p.inverse()
        gens = []
        for _ in range(k):
            u = M([[int(i == j) or (rng.choice((0, 0, 1, -1, "1/2")) if j > i else 0)
                    for j in range(d)] for i in range(d)])
            gens.append(p * u * pinv)
        out.append(UnipotentGroupData(generators=tuple(gens), dim_ambient=d))
    return out


def test_lie_closure_brackets_by_change_of_basis_match_ambient_products(monkeypatch):
    changed = []
    original = NilpotentLieAlgebra.adapted_frame

    def recorded(self):
        frame = original(self)
        changed.append(frame[3] is not self)
        return frame
    monkeypatch.setattr(NilpotentLieAlgebra, "adapted_frame", recorded)
    for data in _conjugated_unitriangular_sets(11, 16):
        alg = lie_closure(data)
        # the old route: structure constants of the adapted ambient matrices
        assert _structure_algebra(list(alg.ambient)).brackets == alg.brackets
        NilpotentLieAlgebra(alg.dim, alg.brackets, ambient=alg.ambient)  # validates
        assert alg.adapted_frame()[3] is alg
    # most closures needed a change of basis (W != I)
    assert sum(changed) >= 8


def test_bracket_closure_of_coordinates_matches_lie_closure():
    # seeded generators in the 5x5 upper unitriangular group: the bracket
    # closure of their coordinates in its algebra has the dimension of
    # their own matrix Lie closure
    upper = lie_closure(UnipotentGroupData(generators=tuple(
        M([[int(r == c or (r, c) == (i, i + 1)) for c in range(5)] for r in range(5)])
        for i in range(4)), dim_ambient=5))
    rng = random.Random(17)
    dims = set()
    for _ in range(24):
        gens = tuple(M([[int(i == j) or (rng.choice((0, 0, 0, 1, -1, "1/2")) if j > i else 0)
                         for j in range(5)] for i in range(5)])
                     for _ in range(rng.randint(1, 3)))
        closed = lie_closure(UnipotentGroupData(generators=gens, dim_ambient=5))
        coords = [upper.coords_of_matrix(unip_log(g)) for g in gens]
        assert len(bracket_closure(coords, upper.bracket_coords)) == closed.dim
        dims.add(closed.dim)
    assert len(dims) >= 4


def test_lie_closure_single_generator():
    alg = lie_closure(UnipotentGroupData(generators=(M([[1, 1], [0, 1]]),),
                                         dim_ambient=2))
    assert alg.dim == 1
    assert alg.brackets == {}


def test_lie_closure_trivial_group():
    alg = lie_closure(UnipotentGroupData(generators=(RationalMatrix.identity(2),),
                                         dim_ambient=2))
    assert alg.dim == 0
    assert lower_central_series(alg) == [[]]
    assert center(alg) == []


def test_lie_closure_heisenberg():
    alg = lie_closure(UnipotentGroupData(generators=(HEIS_X, HEIS_Y), dim_ambient=3))
    assert alg.dim == 3
    one = F(1)
    # canonical adapted basis: [e1, e2] = e3 and nothing else
    assert alg.brackets == {(0, 1): (F(0), F(0), one)}
    assert alg.labels == ("e1", "e2", "e3")
    # ambient matrices bracket-match the structure constants
    assert bracket(alg.ambient[0], alg.ambient[1]) == alg.ambient[2]
    assert alg.nilpotency_class() == 2


def test_lie_closure_rejects_nonunipotent_group():
    lower = M([[1, 0], [1, 1]])
    upper = M([[1, 1], [0, 1]])
    with pytest.raises(ValueError, match="not unipotent"):
        lie_closure(UnipotentGroupData(generators=(upper, lower), dim_ambient=2))


def abelian(n):
    return NilpotentLieAlgebra(dim=n, brackets={})


def heisenberg3():
    return NilpotentLieAlgebra(dim=3, brackets={(0, 1): (0, 0, 1)})


def test_series_and_center_frozen():
    a3 = abelian(3)
    s = lower_central_series(a3)
    assert len(s) == 2 and len(s[0]) == 3 and s[1] == []
    assert len(center(a3)) == 3

    h = heisenberg3()
    s = lower_central_series(h)
    assert [len(layer) for layer in s] == [3, 1, 0]
    assert s[1] == [(F(0), F(0), F(1))]
    assert center(h) == [(F(0), F(0), F(1))]


def test_validation_rejects_bad_structures():
    with pytest.raises(ValueError, match="Jacobi"):
        NilpotentLieAlgebra(dim=3, brackets={(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)})
    # sl2 is closed and Jacobi-consistent but not nilpotent
    with pytest.raises(ValueError, match="not nilpotent"):
        NilpotentLieAlgebra(dim=3, brackets={(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0),
                                             (1, 2): (0, 2, 0)})


def test_coords_round_trip():
    alg = lie_closure(UnipotentGroupData(generators=(HEIS_X, HEIS_Y), dim_ambient=3))
    v = (F(1, 2), F(-3), F(7, 5))
    m = alg.matrix_from_coords(v)
    assert alg.coords_of_matrix(m) == v
    assert alg.contains_matrix(m)
    assert not alg.contains_matrix(M([[1, 0, 0], [0, 0, 0], [0, 0, 0]]))


@pytest.mark.parametrize("name", bundles.builtin_names())
def test_matrix_from_coords_matches_the_dense_sum(name):
    rng = random.Random(f"20261018-coords-{name}")
    b = bundles.load(name)
    for alg in (b.hull.algebra, b.hull.algebra.adapted_frame()[3]):
        n, d = alg.dim, alg.ambient[0].rows
        points = [alg.basis_vector(i) for i in range(n)] + [(0,) * n, (1,) * n]
        points += [tuple(rng.choice((0, 1, -1, 3, F(-2, 7), F(5, 3))) for _ in range(n))
                   for _ in range(6)]
        points += [g.u for g in b.gamma.generators.values()]
        for coords in points:
            got = alg.matrix_from_coords(coords)
            assert got == M([[sum(F(c) * m[i, j] for c, m in zip(coords, alg.ambient))
                              for j in range(d)] for i in range(d)])
            assert all(type(x) is F for row in got.data for x in row)


def test_json_round_trip():
    u_data = UnipotentGroupData(generators=(HEIS_X, HEIS_Y), dim_ambient=3)
    alg = lie_closure(u_data)
    obj = {"name": "heisenberg", "hull": SplitHullData(alg, u_data).to_json(),
           "gamma": GammaActionData(alg, {}).to_json()}
    again = load_bundle(obj).hull.algebra
    assert again.dim == alg.dim
    assert again.brackets == alg.brackets
    assert again.ambient == alg.ambient


def test_ad_matrix():
    h = heisenberg3()
    ad1 = h.ad_matrix(h.basis_vector(0))
    assert ad1.apply(h.basis_vector(1)) == (F(0), F(0), F(1))
    assert ad1.apply(h.basis_vector(2)) == (F(0), F(0), F(0))


def _upper4():
    gens = []
    for i in range(3):
        rows = [[int(r == c or (r, c) == (i, i + 1)) for c in range(4)] for r in range(4)]
        gens.append(M(rows))
    return lie_closure(UnipotentGroupData(generators=tuple(gens), dim_ambient=4))


HEIS = lie_closure(UnipotentGroupData(generators=(HEIS_X, HEIS_Y), dim_ambient=3))
UPPER4 = _upper4()


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([HEIS, UPPER4]), st.data())
def test_property_contains_matrix_matches_in_span(alg, data):
    d = alg.ambient[0].rows
    coords = data.draw(st.lists(small_fracs, min_size=alg.dim, max_size=alg.dim))
    i, j = data.draw(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)))
    c = data.draw(small_fracs)
    rows = [list(r) for r in alg.matrix_from_coords(coords).data]
    rows[i][j] += c  # stays in the span when c = 0 or E_ij lies in it
    x = M(rows)
    assert alg.contains_matrix(x) == in_span([m.flatten() for m in alg.ambient],
                                             x.flatten())


@pytest.mark.parametrize("alg", [HEIS, UPPER4], ids=["heisenberg", "upper4"])
def test_coordinates_and_structure_constants_take_one_elimination(alg, monkeypatch):
    calls = count_eliminations(monkeypatch)
    widths = []
    counted = linalg._forward
    # the width of a pass is one past the last column its rows hold
    monkeypatch.setattr(linalg, "_forward", lambda work: widths.append(
        1 + max((j for row in work for j in row), default=-1)) or counted(work))
    # construction checks ambient independence through the left inverse it
    # caches; the lower central series eliminates only dim-wide rows
    fresh = NilpotentLieAlgebra(alg.dim, alg.brackets, ambient=alg.ambient)
    fresh.coord_functional()
    assert len([w for w in widths if w >= alg.ambient[0].rows ** 2]) == 1
    del calls[:]
    assert fresh.contains_matrix(fresh.matrix_from_coords(range(alg.dim)))
    assert not fresh.contains_matrix(RationalMatrix.identity(alg.ambient[0].rows))
    assert calls == []  # the cached left inverse and its residual only
    rebuilt = _structure_algebra(list(alg.ambient))
    assert len(calls) == 1 and rebuilt.brackets == alg.brackets

"""Exact linear algebra: frozen oracles and algebraic properties."""

from __future__ import annotations

import ast
import pathlib
import random
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infrasolv import linalg
from infrasolv.cohomology import CEComplex
from infrasolv.lie import NilpotentLieAlgebra
from infrasolv.linalg import (Poly, RationalMatrix, char_poly, complement,
                              fixed_space, intersect_kernels, kernel,
                              poly_ext_gcd, poly_gcd, rank, rref_basis, solve,
                              squarefree_part)

F = Fraction


def M(rows):
    return RationalMatrix(rows)


def in_span(vectors, v) -> bool:
    """Membership of v in the span of `vectors` through `solve`: the oracle
    for `complement` and for `NilpotentLieAlgebra.contains_matrix`."""
    vecs = list(vectors)
    if not vecs:
        return all(x == 0 for x in v)
    (sol,), _ = solve(RationalMatrix.from_columns(vecs), [v])
    return sol is not None


def poly_lcm(a, b):
    """Monic lcm, for the Krylov oracle below."""
    if a.is_zero() or b.is_zero():
        return Poly.zero()
    return ((a * b) // poly_gcd(a, b)).monic()


def krylov_min_poly(m):
    """The minimal polynomial as the package computed it before semisimplicity
    came from the characteristic polynomial: the lcm over basis vectors of
    their Krylov annihilators, one solve per Krylov step, skipping the
    vectors the running lcm already kills. The oracle for `is_semisimple`."""
    n = m.rows
    result, at_m = Poly.one(), None  # at_m = result(m) once result != 1
    for i in range(n):
        e = tuple(Fraction(int(j == i)) for j in range(n))
        if at_m is not None and not any(at_m.apply(e)):
            continue
        krylov, v = [e], e
        while True:
            v = m.apply(v)
            (coeff,), _ = solve(RationalMatrix.from_columns(krylov), [v])
            if coeff is not None:
                result = poly_lcm(result, Poly([-c for c in coeff] + [1]))
                at_m = result.eval_matrix(m)
                break
            krylov.append(v)
    return result


def leibniz_det(m):
    """det as the sum over permutations of signed products of entries."""
    n = m.rows
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= m[i, j]
        total += term
    return total


def count_eliminations(monkeypatch):
    """A list that grows by one for every forward elimination pass."""
    calls = []
    original = linalg._forward

    def counted(work):
        calls.append(len(work))
        return original(work)

    monkeypatch.setattr(linalg, "_forward", counted)
    return calls


# ---------------------------------------------------------------- matrices

def test_rank_frozen_examples():
    assert rank(M([[1, 2], [2, 4]])) == 1
    assert rank(RationalMatrix.identity(3)) == 3
    assert rank(RationalMatrix.zero(2, 2)) == 0
    assert rank(M([["1/2", "1/3"], [3, 2]])) == 1


def test_solve_underdetermined_frozen():
    (sol,), ker = solve(M([[1, 1]]), [[2]])
    assert sol == (F(2), F(0))
    assert ker == [(F(-1), F(1))] or ker == [(F(1), F(-1))]
    # the reported kernel really is the kernel
    assert M([[1, 1]]).apply(ker[0]) == (F(0),)


def test_solve_inconsistent_reports_kernel():
    a = M([[1, 1], [1, 1]])
    (sol,), ker = solve(a, [[0, 1]])
    assert sol is None
    assert len(ker) == 1
    assert a.apply(ker[0]) == (F(0), F(0))


def test_solve_exact_fractions():
    a = M([["1/3", "1/7"], [0, "2/5"]])
    (sol,), ker = solve(a, [["1/2", "1/10"]])
    assert ker == []
    assert a.apply(sol) == (F(1, 2), F(1, 10))


def test_inverse_and_det():
    a = M([[2, 1], [1, 1]])
    assert a * a.inverse() == RationalMatrix.identity(2)
    assert a.det() == F(1)
    assert M([[1, 2], [2, 4]]).det() == F(0)
    assert M([["1/2", 0], [0, 3]]).det() == F(3, 2)
    with pytest.raises(ValueError):
        M([[1, 2], [2, 4]]).inverse()


def test_kernel_dimension():
    a = M([[1, 2, 3], [2, 4, 6]])
    ker = kernel(a)
    assert len(ker) == 2
    for v in ker:
        assert a.apply(v) == (F(0), F(0))


def test_matrix_power_and_hash():
    a = M([[1, 1], [0, 1]])
    assert a ** 3 == M([[1, 3], [0, 1]])
    assert a ** 0 == RationalMatrix.identity(2)
    assert a ** -1 == M([[1, -1], [0, 1]])
    assert hash(a) == hash(M([[1, 1], [0, 1]]))


def test_equal_matrices_hash_equal_and_stay_immutable():
    a = M([[1, F(1, 2)], [0, -1]])
    b = M([["1", "1/2"], ["0", "-1"]])
    c = RationalMatrix.identity(2) * a
    d = RationalMatrix.from_sparse_columns([{0: F(1)}, {0: F(1, 2), 1: F(-1)}], 2)
    assert a == b == c == d and hash(a) == hash(b) == hash(c) == hash(d)
    assert len({a, b, c, d}) == 1
    for other in (M([[1, F(1, 2)], [0, 1]]), M([[1, F(1, 2)], [0, -1], [0, 0]]),
                  RationalMatrix.from_sparse_columns([{0: F(1)}, {0: F(1, 2)}], 2)):
        assert a != other and other not in {a, b, c, d}
    for name in ("data", "rows", "cols", "sparse", "_hash"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    assert a.data == ((1, F(1, 2)), (0, -1))
    assert all(type(x) is F for x in a.flatten())


def test_span_helpers():
    vs = [(F(1), F(0)), (F(1), F(1))]
    assert in_span(vs, (F(3), F(2)))
    assert rref_basis(vs) == [(F(1), F(0)), (F(0), F(1))]
    a = M([[1, 0], [0, 0]])
    b = M([[0, 0], [0, 1]])
    assert intersect_kernels([a, b]) == []
    assert intersect_kernels([a]) == [(F(0), F(1))]


def test_json_round_trip():
    a = M([["-3/4", 2], [0, "5"]])
    assert RationalMatrix.from_json(a.to_json()) == a
    assert a.to_json() == [["-3/4", "2"], ["0", "5"]]


# ------------------------------------------------------------- polynomials

def test_min_poly_frozen_examples():
    p = krylov_min_poly(M([[2, 1], [0, 2]]))
    # (x-2)^2 = x^2 - 4x + 4
    assert p == Poly([4, -4, 1])
    assert krylov_min_poly(RationalMatrix.identity(3)) == Poly([-1, 1])
    assert krylov_min_poly(M([[1, 0], [0, 2]])) == Poly([2, -3, 1])


def test_min_poly_annihilates_and_is_minimal():
    m = M([[0, -1], [1, 0]])
    p = krylov_min_poly(m)
    assert p == Poly([1, 0, 1])  # x^2 + 1
    assert p.eval_matrix(m).is_zero()


def test_char_poly_frozen():
    m = M([[2, 1], [0, 2]])
    assert char_poly(m) == Poly([4, -4, 1])
    assert char_poly(M([[0, -1], [1, 0]])) == Poly([1, 0, 1])


def test_squarefree_part_frozen():
    # x^3 - x^2 -> x^2 - x
    assert squarefree_part(Poly([0, 0, -1, 1])) == Poly([0, -1, 1])
    assert squarefree_part(Poly([4, -4, 1])) == Poly([-2, 1])
    assert squarefree_part(Poly([0, 1])) == Poly([0, 1])
    with pytest.raises(ValueError):
        squarefree_part(Poly.zero())


def test_poly_gcd_lcm():
    a = Poly([-1, 1]) * Poly([-2, 1])
    b = Poly([-2, 1]) * Poly([-3, 1])
    assert poly_gcd(a, b) == Poly([-2, 1])
    assert poly_lcm(a, b) == (Poly([-1, 1]) * Poly([-2, 1]) * Poly([-3, 1])).monic()
    g, s, t = poly_ext_gcd(a, b)
    assert s * a + t * b == g


small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def square_matrices(draw, max_dim=4):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    rows = draw(st.lists(st.lists(small_fracs, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    return RationalMatrix(rows)


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_property_min_poly_annihilates(m):
    p = krylov_min_poly(m)
    assert p.eval_matrix(m).is_zero()
    assert p.coeffs[-1] == 1
    assert p.degree() <= m.rows


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_property_char_poly_annihilates(m):
    # Cayley-Hamilton, and min_poly divides char_poly
    cp = char_poly(m)
    assert cp.eval_matrix(m).is_zero()
    assert (cp % krylov_min_poly(m)).is_zero()


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_property_rank_nullity(m):
    assert rank(m) + len(kernel(m)) == m.cols


@settings(max_examples=40, deadline=None)
@given(square_matrices(), st.lists(small_fracs, min_size=1, max_size=4))
def test_property_solve_is_exact(m, b):
    b = (b * m.rows)[: m.rows]
    (sol,), ker = solve(m, [b])
    if sol is not None:
        assert m.apply(sol) == tuple(b)
    for v in ker:
        assert all(x == 0 for x in m.apply(v))


@settings(max_examples=40, deadline=None)
@given(square_matrices(), st.lists(st.lists(small_fracs, min_size=4, max_size=4),
                                   max_size=3))
def test_property_solve_matches_one_rhs_at_a_time(m, rhs):
    rhs = [b[: m.rows] for b in rhs]
    sols, ker = solve(m, rhs)
    assert sols == [solve(m, [b])[0][0] for b in rhs]
    assert ker == kernel(m)


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_property_det_matches_leibniz(m):
    assert m.det() == leibniz_det(m)
    if m.rows > 1:
        rows = [list(r) for r in m.data]
        rows[0][0] = 0  # the pass must swap rows whenever column 0 has a nonzero
        assert M(rows).det() == leibniz_det(M(rows))
        rows[-1] = rows[0]  # a repeated row makes it singular
        assert M(rows).det() == leibniz_det(M(rows)) == 0


def test_det_frozen_singular_and_fractional():
    for rows in ([[0, 0], [0, 0]], [[0, 1], [1, 0]], [["1/2", "1/3"], ["3/4", "1/2"]],
                 [["1/2", "2/3", 1], [0, 0, "5/7"], [3, "-1/9", 0]],
                 [[0, 0, 1], [0, 1, 0], [1, 0, 0]], [[1, 2, 3], [2, 4, 6], [1, 0, 1]]):
        assert M(rows).det() == leibniz_det(M(rows))
    assert M([["1/2", "1/3"], ["3/4", "1/2"]]).det() == 0
    assert M([[0, 0, 1], [0, 1, 0], [1, 0, 0]]).det() == -1


vectors3 = st.lists(st.tuples(small_fracs, small_fracs, small_fracs), max_size=5)


@settings(max_examples=80, deadline=None)
@given(vectors3, vectors3)
def test_property_complement_matches_greedy_in_span(sub, whole):
    greedy = []
    for v in whole:
        if not in_span(sub + greedy, v):
            greedy.append(v)
    assert complement(sub, whole) == greedy


def test_complement_and_rank_are_one_forward_pass(monkeypatch):
    calls = count_eliminations(monkeypatch)
    vs = [(F(1), F(0), F(0)), (F(2), F(0), F(0)), (F(0), F(1), F(1))]
    assert complement(vs[:1], vs) == vs[2:]
    assert rank(M(vs)) == 2
    assert M([[2, 1], [1, 1]]).det() == 1
    assert calls == [3, 3, 2]


def _oracle_fixed_space(mats, dim):
    """`fixed_space` as it was before it called `intersect_kernels`: the
    nonzero rows of the m - I stacked by hand, one kernel, its RREF basis."""
    if dim == 0:
        return []
    rows = []
    for m in mats:
        for i, row in enumerate(m.data):
            row = list(row)
            row[i] -= 1
            if any(row):
                rows.append(row)
    if not rows:
        return [tuple(F(int(i == j)) for j in range(dim)) for i in range(dim)]
    return rref_basis(kernel(RationalMatrix(rows)))


def seeded_holonomy_lists(rng, n):
    """Lists of n x n rational matrices: none, the identity alone, a dense
    matrix, I plus a rank-one matrix (m - I is rank-deficient and fixes a
    hyperplane), and mixtures of these."""
    def entry():
        return F(rng.randint(-3, 3), rng.randint(1, 3))

    ident = RationalMatrix.identity(n)
    dense = M([[entry() for _ in range(n)] for _ in range(n)])
    u, v = [entry() for _ in range(n)], [entry() for _ in range(n)]
    rank_one = ident + M([[a * b for b in v] for a in u])
    return [[], [ident], [dense], [rank_one], [rank_one, ident],
            [rank_one, rank_one.transpose()], [ident, dense, rank_one]]


@pytest.mark.parametrize("seed", range(5))
def test_fixed_space_matches_the_stacked_kernel_oracle(seed):
    rng = random.Random(seed)
    for n in (1, 2, 3, 4):
        for mats in seeded_holonomy_lists(rng, n):
            got = fixed_space(mats, n)
            assert got == _oracle_fixed_space(mats, n), (n, mats)
            assert all(m.apply(v) == v for m in mats for v in got)


def test_fixed_space_is_the_canonical_joint_kernel():
    swap = M([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    flip = M([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    ident = RationalMatrix.identity(3)
    whole = rref_basis([ident.row(i) for i in range(3)])
    assert fixed_space([], 3) == fixed_space([ident], 3) == whole
    assert fixed_space([swap], 3) == rref_basis([(1, 1, 0), (0, 0, 1)])
    assert fixed_space([swap, flip], 3) == [(F(1), F(1), F(0))]
    assert fixed_space([flip.scale(2)], 3) == []
    assert fixed_space([], 0) == []


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_property_squarefree(m):
    q = squarefree_part(char_poly(m))
    assert poly_gcd(q, q.derivative()).degree() == 0
    # q has the same roots: q divides char_poly, and char_poly divides q^dim
    assert (char_poly(m) % q).is_zero()
    qn = Poly.one()
    for _ in range(m.rows):
        qn = qn * q
    assert (qn % char_poly(m)).is_zero()


# ------------------------------------------------ against the dense routes

SEED = 20261018
SPARSE_ENTRIES = (0, 0, 0, 1, -1, 2, F(-1, 3), F(5, 2))
DENSE_ENTRIES = (1, -1, 2, F(-1, 3), F(5, 2), F(7, 4))


def _dense_product(a, b):
    """The row-by-column product the sparse one replaced."""
    return RationalMatrix([[sum(x * y for x, y in zip(row, col)) for col in zip(*b.data)]
                           for row in a.data])


def _per_vector_min_poly(m):
    """The Krylov route evaluating the running lcm at m for every basis vector."""
    n = m.rows
    result = Poly.one()
    for i in range(n):
        e = tuple(Fraction(int(j == i)) for j in range(n))
        if all(x == 0 for x in result.eval_matrix(m).apply(e)):
            continue
        krylov, v = [e], e
        while True:
            v = m.apply(v)
            (coeff,), _ = solve(RationalMatrix.from_columns(krylov), [v])
            if coeff is not None:
                result = poly_lcm(result, Poly([-c for c in coeff] + [1]))
                break
            krylov.append(v)
    return result


def _random(rng, rows, cols, entries):
    return M([[rng.choice(entries) for _ in range(cols)] for _ in range(rows)])


def _signed_permutation(rng, n):
    perm = rng.sample(range(n), n)
    return M([[rng.choice((1, -1)) if perm[i] == j else 0 for j in range(n)]
              for i in range(n)])


def _assert_fractions(m):
    assert all(type(x) is Fraction for row in m.data for x in row)


def test_product_matches_the_dense_row_by_column_product():
    rng = random.Random(f"{SEED}-product")
    cases = []
    for _ in range(40):
        r, k, c = (rng.randint(1, 5) for _ in range(3))
        n = rng.randint(1, 6)
        perm = _signed_permutation(rng, n)
        cases += [(_random(rng, r, k, SPARSE_ENTRIES), _random(rng, k, c, SPARSE_ENTRIES)),
                  (_random(rng, r, k, DENSE_ENTRIES), _random(rng, k, c, DENSE_ENTRIES)),
                  (perm, _signed_permutation(rng, n)),
                  (perm, _random(rng, n, c, SPARSE_ENTRIES)),
                  (_random(rng, r, n, DENSE_ENTRIES), perm),
                  (RationalMatrix.zero(r, k), _random(rng, k, c, DENSE_ENTRIES)),
                  (_random(rng, r, k, SPARSE_ENTRIES), RationalMatrix.zero(k, c))]
    for a, b in cases:
        got = a * b
        assert got == _dense_product(a, b)
        assert (got.rows, got.cols) == (a.rows, b.cols)
        _assert_fractions(got)
        for derived in (got + a * b, got - got, got.scale(F(2, 3)), -got, got.transpose()):
            _assert_fractions(derived)
    with pytest.raises(ValueError, match="shape mismatch in product"):
        M([[1, 2]]) * M([[1, 2]])


def test_signed_permutation_product_multiplies_no_fraction(monkeypatch):
    rng = random.Random(f"{SEED}-signed")
    a, b = _signed_permutation(rng, 6), _signed_permutation(rng, 6)
    want = _dense_product(a, b)
    calls = []
    for name in ("__mul__", "__rmul__"):
        original = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name,
                            lambda x, y, f=original: calls.append(1) or f(x, y))
    got = a * b
    assert calls == []
    assert F(2) * F(3) == 6 and 3 * F(2) == 6 and len(calls) == 2  # the counter counts
    monkeypatch.undo()
    assert got == want
    _assert_fractions(got)


def test_min_poly_matches_the_per_vector_route():
    rng = random.Random(f"{SEED}-min-poly")
    for _ in range(30):
        n = rng.randint(2, 6)
        m = _random(rng, n, n, rng.choice((SPARSE_ENTRIES, DENSE_ENTRIES)))
        assert krylov_min_poly(m) == _per_vector_min_poly(m)
        # repeated eigenvalues: a diagonal with repeats, conjugated by a
        # unitriangular matrix
        diag = [rng.choice((1, 2, F(-1, 2))) for _ in range(n)]
        u = M([[1 if i == j else rng.choice(DENSE_ENTRIES) if j > i else 0
                for j in range(n)] for i in range(n)])
        m = u * M([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]) \
            * u.inverse()
        assert krylov_min_poly(m) == _per_vector_min_poly(m)
        # the minimal and characteristic polynomials have the same roots,
        # which `is_semisimple` relies on
        assert squarefree_part(krylov_min_poly(m)) == squarefree_part(char_poly(m))


def _seeded_stacks(rng):
    """Lists of matrices of one width: wide, tall, rank-deficient (a row
    repeated as a combination of two others), with zero rows, all-zero."""
    for _ in range(12):
        n = rng.randint(1, 6)
        entries = rng.choice((SPARSE_ENTRIES, DENSE_ENTRIES))
        wide = _random(rng, max(1, n - 2), n, entries)
        tall = _random(rng, n + 2, n, entries)
        a, b = _random(rng, 1, n, entries).data[0], _random(rng, 1, n, entries).data[0]
        deficient = M([a, b, [x - 2 * y for x, y in zip(a, b)]])
        zeros = RationalMatrix.zero(rng.randint(1, 3), n)
        yield [wide]
        yield [tall]
        yield [deficient]
        yield [zeros, wide, zeros]
        yield [M([a, [0] * n, b]), deficient]
        yield [zeros]
        yield [zeros, RationalMatrix.zero(1, n)]


def test_intersect_kernels_and_solve_match_their_oracles():
    rng = random.Random(f"{SEED}-joint-kernel")
    for mats in _seeded_stacks(rng):
        stack = M([row for m in mats for row in m.data])
        got = intersect_kernels(mats)
        assert got == rref_basis(kernel(stack)), mats
        assert all(type(x) is Fraction for v in got for x in v)
        # several right-hand sides in one pass, as one at a time
        rhs = [stack.apply([rng.choice(DENSE_ENTRIES) for _ in range(stack.cols)]),
               [rng.choice(SPARSE_ENTRIES) for _ in range(stack.rows)],
               [0] * stack.rows]
        sols, ker = solve(stack, rhs)
        assert sols == [solve(stack, [b])[0][0] for b in rhs]
        assert sols[0] is not None and stack.apply(sols[0]) == rhs[0]
        assert ker == kernel(stack)


def test_intersect_kernels_runs_one_rref(monkeypatch):
    calls = []
    original = linalg._rref
    monkeypatch.setattr(linalg, "_rref", lambda rows: calls.append(1) or original(rows))
    for n in (1, 3):
        ident = RationalMatrix.identity(n)
        assert fixed_space([ident, ident], n) == list(ident.data)
        assert calls == []
    for mats in _seeded_stacks(random.Random(f"{SEED}-rref-count")):
        del calls[:]
        intersect_kernels(mats)
        assert len(calls) == (1 if any(any(m.data[i]) for m in mats
                                       for i in range(m.rows)) else 0)


# ------------------------------------------------ against the dense elimination

def _integerize(data):
    """Scale each row to integers. Returns (int rows, det scale).

    Row i is multiplied by the lcm of its denominators; `scale` is the
    product of the inverses, so det(original) = scale * det(int rows).
    """
    out = []
    scale = Fraction(1)
    for row in data:
        row = [linalg._frac(x) for x in row]
        m = 1
        for x in row:
            m = m * x.denominator // gcd(m, x.denominator)
        scale /= m
        out.append([x.numerator * (m // x.denominator) for x in row])
    return out, scale


def _bareiss(work):
    """Fraction-free forward elimination of integer rows, in place, on every
    row below the pivot (Bareiss 1968). Returns (pivot columns, sign of the
    row swaps, last pivot)."""
    nr = len(work)
    nc = len(work[0]) if work else 0
    prev, sign = 1, 1
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if work[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            work[r], work[piv] = work[piv], work[r]
            sign = -sign
        pk = work[r][c]
        for i in range(r + 1, nr):
            ric = work[i][c]
            for j in range(c, nc):
                work[i][j] = (pk * work[i][j] - ric * work[r][j]) // prev
        prev = pk
        pivots.append(c)
        r += 1
    return pivots, sign, prev


def _dense_rref(rows):
    """The dense reduced row echelon form the sparse elimination replaced:
    `_bareiss` on integer-scaled rows, then a Fraction reduction back to the
    pivots. Returns (all rows, zero rows last; pivot columns)."""
    work, _ = _integerize(rows)
    pivots, _, _ = _bareiss(work)
    nr, nc, r = len(work), len(work[0]) if work else 0, len(pivots)
    ech = [[Fraction(x) for x in row] for row in work[:r]]
    for k in range(r - 1, -1, -1):
        c = pivots[k]
        pk = ech[k][c]
        ech[k] = [x / pk for x in ech[k]]
        for i in range(k):
            f = ech[i][c]
            if f:
                ech[i] = [a - f * b for a, b in zip(ech[i], ech[k])]
    ech += [[Fraction(0)] * nc for _ in range(nr - r)]
    return ech, pivots


def _dense_det(m):
    work, scale = _integerize(m.data)
    pivots, sign, last = _bareiss(work)
    return Fraction(0) if len(pivots) < m.rows else Fraction(sign * last) * scale


def _dense_inverse(m):
    n = m.rows
    ech, pivots = _dense_rref([list(r) + [int(i == j) for j in range(n)]
                               for i, r in enumerate(m.data)])
    return None if pivots != list(range(n)) else M([row[n:] for row in ech])


def _dense_null_vectors(ech, pivots, n):
    basis = []
    for free in (f for f in range(n) if f not in pivots):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for k, c in enumerate(pivots):
            v[c] = -ech[k][free]
        basis.append(tuple(v))
    return basis


def _dense_solve(a, rhs):
    n = a.cols
    ech, pivots = _dense_rref([list(row) + [b[i] for b in rhs]
                               for i, row in enumerate(a.data)])
    a_pivots = [c for c in pivots if c < n]
    r = len(a_pivots)
    sols = []
    for j in range(n, n + len(rhs)):
        if any(ech[k][j] for k in range(r, len(pivots))):
            sols.append(None)
            continue
        x = [Fraction(0)] * n
        for k, c in enumerate(a_pivots):
            x[c] = ech[k][j]
        sols.append(tuple(x))
    return sols, _dense_null_vectors(ech, a_pivots, n)


def _elimination_cases(rng):
    """Seeded matrices, as lists of rows: wide, tall, square, rank-deficient,
    fractional, with zero rows, all-zero, and with string entries."""
    fracs = (0, 1, -1, 2, F(-1, 3), F(5, 2), F(7, 4), F(-9, 8))
    for _ in range(25):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        entries = rng.choice((SPARSE_ENTRIES, DENSE_ENTRIES, fracs))
        rows = [[rng.choice(entries) for _ in range(c)] for _ in range(r)]
        yield rows
        yield rows + [[rng.choice(entries) for _ in range(c)] for _ in range(rng.randint(1, 4))]
        extra = rng.randint(1, 4)
        yield [row + [rng.choice(entries) for _ in range(extra)] for row in rows]
        a, b = rows[0], rows[-1]
        yield [a, [0] * c, b, [x - F(3, 2) * y for x, y in zip(a, b)], [0] * c]
        yield [[0] * c for _ in range(r)]
        yield [[str(linalg._frac(x)) for x in row] for row in rows]
        n = rng.randint(1, 6)
        yield [[rng.choice(entries) for _ in range(n)] for _ in range(n)]


def _forms_algebra(family, n):
    """The structure constants of the benchmark's `forms` families."""
    m = (n - 1) // 2
    brackets = {"abelian": {},
                "filiform": {(0, i): i + 1 for i in range(1, n - 1)},
                "heisenberg": {(i, m + i): n - 1 for i in range(m)},
                "free2step": {p: 3 + t for t, p in enumerate(((0, 1), (0, 2), (1, 2)))}}
    return NilpotentLieAlgebra(n, {pair: tuple(int(k == top) for k in range(n))
                                   for pair, top in brackets[family].items()})


FORMS_STRATA = [("abelian", n) for n in range(4, 9)] + [("filiform", n) for n in range(4, 9)] \
    + [("heisenberg", 5), ("heisenberg", 7), ("free2step", 6)]


def _assert_matches_the_dense_elimination(rows, rng):
    m = M(rows)
    ech, pivots = _dense_rref(rows)
    got_pivots, got = linalg._rref(linalg._sparse(rows))
    assert got_pivots == pivots == linalg._pivots(m.sparse)
    assert [linalg._dense(row, 0, m.cols) for row in got] == ech[:len(pivots)]
    assert all(type(x) is Fraction for row in got for x in row.values())
    assert rank(m) == len(pivots)
    assert kernel(m) == _dense_null_vectors(ech, pivots, m.cols)
    rhs = [m.apply([rng.choice(DENSE_ENTRIES) for _ in range(m.cols)]),
           [rng.choice(SPARSE_ENTRIES) for _ in range(m.rows)], [0] * m.rows]
    assert solve(m, rhs) == _dense_solve(m, rhs)
    assert rref_basis(rows) == [tuple(row) for row in ech[:len(pivots)]]
    if m.is_square():
        assert m.det() == _dense_det(m)
        want = _dense_inverse(m)
        if want is None:
            with pytest.raises(ValueError, match="singular"):
                m.inverse()
        else:
            assert m.inverse() == want


def test_elimination_matches_the_dense_oracle_on_seeded_matrices():
    rng = random.Random(f"{SEED}-sparse-elimination")
    for rows in _elimination_cases(rng):
        _assert_matches_the_dense_elimination(rows, rng)


@pytest.mark.parametrize("family,n", FORMS_STRATA)
def test_elimination_matches_the_dense_oracle_on_ce_differentials(family, n):
    rng = random.Random(f"{SEED}-{family}-{n}")
    for rows in (list(d.data) for d in CEComplex(_forms_algebra(family, n)).diff):
        _assert_matches_the_dense_elimination(rows, rng)
        _assert_matches_the_dense_elimination(list(zip(*rows)), rng)


def test_a_pivot_updates_only_the_rows_holding_its_column(monkeypatch):
    updates = []
    original = linalg._clear
    monkeypatch.setattr(linalg, "_clear", lambda *a: updates.append(1) or original(*a))
    rng = random.Random(f"{SEED}-untouched")
    for n in (1, 4, 9):
        diagonal = M([[F(rng.choice((-3, 2, 5)), rng.choice((1, 7))) if i == j else 0
                       for j in range(n)] for i in range(n)])
        for m in (diagonal, _signed_permutation(rng, n), diagonal * _signed_permutation(rng, n)):
            assert rank(m) == n and m.det() != 0 and kernel(m) == []
            assert m * m.inverse() == RationalMatrix.identity(n)
            assert solve(m, [[1] * n])[0][0] is not None
    assert updates == []
    assert rank(M([[1, 2], [3, 4]])) == 2 and len(updates) == 1  # the counter counts


def test_only_linalg_reads_the_dense_rows():
    """`RationalMatrix.data` is a computed view for tests and printing; no
    module of the package but `linalg` reads a `.data` attribute."""
    package = pathlib.Path(linalg.__file__).parent
    readers = [path.name for path in sorted(package.glob("*.py")) if path.name != "linalg.py"
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and node.attr == "data"]
    assert readers == []

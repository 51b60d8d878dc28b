"""Cohomology of a nilpotent Lie algebra and of its invariant forms.

The Chevalley-Eilenberg complex is the exterior algebra of the dual, with
the differential fixed on degree one by the structure constants and
extended as an antiderivation. Each differential d_k is built once as
sparse columns: for each basis k-form, a dict from (k+1)-form index to its
nonzero coefficient. `CEComplex.diff[k]` is the same map as a
`RationalMatrix`, whose sparse rows are filled from the columns.

Holonomy matrices act contragrediently, by rho = hol^-T and its exterior
powers. When rho is monomial (one nonzero in each row and each column, as
for every signed permutation), the basis form e_J goes to
sign * prod(rho entries) * e_(sort rho(J)), with no determinant; otherwise
only the k x k minors that can be nonzero are computed.

Checks, each made on every call, on sparse columns and with no dense
product:
- `CEComplex.__init__`: d_(k+1) d_k = 0, or AssertionError;
- `CEComplex.action_matrices`: rho d = d rho in every degree, or
  ValueError (the matrix is not an algebra automorphism);
- `invariant_cohomology_ranks`: invariant Betti numbers are computed along
  two independent routes, the cohomology of the invariant forms and the
  fixed part of the full cohomology, which must agree (AssertionError),
  and each route checks that the maps it restricts preserve the subspaces
  (AssertionError). Each route maps vectors by `RationalMatrix.apply`,
  which runs over the sparse rows of d or of the action, and solves for
  all of a degree's images in one elimination (`linalg.solve`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .lie import NilpotentLieAlgebra
from .linalg import (RationalMatrix, complement, fixed_space, kernel, rank,
                     rref_basis, solve)

# Default limit on the algebra dimension, and the slowest case measured at
# it (README, "Complex size"): full and invariant Betti numbers.
MAX_COMPLEX_DIM = 11
LIMIT_COST = "1.7 s for the abelian algebra under -I"


def _sort_with_sign(idx):
    """Sort a tuple of indices, tracking the permutation sign; None if repeated."""
    lst = list(idx)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(lst, lst[1:]):
        if a == b:
            return None, 0
    return tuple(lst), sign


def _compose(outer, inner):
    """Sparse columns of outer . inner, from the sparse columns of each."""
    out = []
    for col in inner:
        acc = {}
        for r, x in col.items():
            for s, y in outer[r].items():
                acc[s] = acc.get(s, 0) + x * y
        out.append({s: v for s, v in acc.items() if v})
    return out


def _monomial(m):
    """(row, entry) of the one nonzero in each column if m is monomial, else None."""
    if any(len(row) != 1 for row in m.sparse):
        return None
    at = {j: (i, a) for i, ((j, a),) in enumerate(m.sparse)}
    return [at[j] for j in range(m.cols)] if len(at) == m.cols else None


class CEComplex:
    """Exterior complex of the dual algebra with exact rational differentials."""

    def __init__(self, algebra: NilpotentLieAlgebra, max_dim: int = MAX_COMPLEX_DIM):
        n = algebra.dim
        if n > max_dim:
            raise ValueError(
                f"the complex of a {n}-dimensional algebra has 2^{n} basis "
                f"forms, above the limit of dimension {max_dim}; at dimension "
                f"{MAX_COMPLEX_DIM}, the default limit, full and invariant "
                f"Betti numbers take up to {LIMIT_COST}")
        self.algebra = algebra
        self.dim = n
        self.basis = [list(combinations(range(n), k)) for k in range(n + 1)]
        self.index = [{t: i for i, t in enumerate(level)} for level in self.basis]
        # d on degree-one generators, from the structure constants
        d1 = [{} for _ in range(n)]
        for (i, j), coeffs in algebra.brackets.items():
            for m, c in enumerate(coeffs):
                if c:
                    d1[m][(i, j)] = d1[m].get((i, j), Fraction(0)) - c
        self._d1 = d1
        # columns[k][c]: d of basis k-form c, as {(k+1)-form index: coefficient}
        self.columns = [
            [{self.index[k + 1][key]: val
              for key, val in self._d_basis_form(idx).items()}
             for idx in self.basis[k]]
            for k in range(n)]
        for k in range(n - 1):
            if any(_compose(self.columns[k + 1], self.columns[k])):
                raise AssertionError("differential does not square to zero")
        self.diff = [RationalMatrix.from_sparse_columns(self.columns[k],
                                                        len(self.basis[k + 1]))
                     for k in range(n)]

    def _d_basis_form(self, idx):
        """d of a basis k-form as a dict over sorted (k+1)-tuples."""
        out = {}
        for t, gen in enumerate(idx):
            rest = idx[:t] + idx[t + 1:]
            for (a, b), c in self._d1[gen].items():
                key, sign = _sort_with_sign((a, b) + rest)
                if key is None:
                    continue
                val = c * sign * (-1) ** t
                if val:
                    out[key] = out.get(key, Fraction(0)) + val
        return {k: v for k, v in out.items() if v}

    def betti_numbers(self):
        return _betti([len(level) for level in self.basis],
                      [rank(d) for d in self.diff])

    def action_matrices(self, hol: RationalMatrix):
        """Contragredient action of hol on each exterior degree.

        Verified to commute with the differential; a matrix that is not an
        automorphism of the algebra is rejected here.
        """
        rho = hol.inverse().transpose()
        mono = _monomial(rho)
        rows = None if mono else [rho.row(i) for i in range(rho.rows)]
        actions = []
        for k, level in enumerate(self.basis):
            if mono is not None:
                actions.append([self._monomial_image(mono, k, idx) for idx in level])
            else:
                actions.append([self._minor_image(rows, k, idx) for idx in level])
        for k in range(self.dim):
            if (_compose(self.columns[k], actions[k])
                    != _compose(actions[k + 1], self.columns[k])):
                raise ValueError("matrix does not act on the complex "
                                 "(not an algebra automorphism)")
        return [RationalMatrix.from_sparse_columns(cols, len(cols)) for cols in actions]

    def _monomial_image(self, mono, k, idx):
        key, sign = _sort_with_sign(tuple(mono[j][0] for j in idx))
        val = Fraction(sign)
        for j in idx:
            val *= mono[j][1]
        return {self.index[k][key]: val}

    def _minor_image(self, rows, k, idx):
        # a minor with a zero row vanishes: its rows lie in the columns' support
        support = [i for i, row in enumerate(rows) if any(row[j] for j in idx)]
        out = {}
        for rows_idx in combinations(support, k):
            val = _minor(rows, rows_idx, idx)
            if val:
                out[self.index[k][rows_idx]] = val
        return out


def _betti(sizes, ranks):
    """b_k = sizes[k] - rank d_k - rank d_(k-1), where d_(-1) = d_n = 0."""
    ranks = [0, *ranks, 0]
    return tuple(size - ranks[k] - ranks[k + 1] for k, size in enumerate(sizes))


def _minor(rows, rows_idx, cols_idx):
    k = len(rows_idx)
    if k == 0:
        return Fraction(1)
    sub = RationalMatrix([[rows[i][j] for j in cols_idx] for i in rows_idx])
    return sub.det()


def cohomology_ranks(algebra: NilpotentLieAlgebra,
                     max_dim: int = MAX_COMPLEX_DIM):
    """Betti numbers b_0..b_n of the algebra."""
    if algebra.dim == 0:
        return (1,)
    return CEComplex(algebra, max_dim=max_dim).betti_numbers()


def _restrict(mat, dom_basis, cod_basis):
    """Matrix of the differential between column-spanned subspaces; exact or raises."""
    if not dom_basis:
        return None
    images = [mat.apply(v) for v in dom_basis]
    if not cod_basis:
        if any(any(img) for img in images):
            raise AssertionError("differential does not preserve the subspace")
        return None
    sols, _ = solve(RationalMatrix.from_columns(cod_basis), images)
    if None in sols:
        raise AssertionError("differential does not preserve the subspace")
    return RationalMatrix.from_columns(sols)


def _quotient_fixed_dim(actions, z_basis, b_basis):
    """dim of the joint fixed space of the induced action on Z/B.

    The complement of B in Z is the greedy one, `linalg.complement`.
    """
    comp = complement(b_basis, z_basis)
    if not comp:
        return 0
    images = [a.apply(v) for a in actions for v in comp]
    sols, _ = solve(RationalMatrix.from_columns(b_basis + comp), images)
    if None in sols:
        raise AssertionError("action does not preserve the cocycles")
    nb, nc = len(b_basis), len(comp)
    induced = [RationalMatrix.from_columns([s[nb:] for s in sols[i:i + nc]])
               for i in range(0, len(sols), nc)]
    return len(fixed_space(induced, nc))


def invariant_cohomology_ranks(algebra: NilpotentLieAlgebra, hols,
                               max_dim: int = MAX_COMPLEX_DIM):
    """Betti numbers of the holonomy-invariant subcomplex.

    Computed twice: once as the cohomology of the invariant forms, once as
    the fixed part of the full cohomology. Semisimple holonomy makes these
    agree; disagreement raises rather than returning either answer.
    """
    hols = list(hols)
    if algebra.dim == 0:
        return (1,)
    if not hols:
        return cohomology_ranks(algebra, max_dim=max_dim)
    cx = CEComplex(algebra, max_dim=max_dim)
    actions = [cx.action_matrices(h) for h in hols]
    n = cx.dim
    sizes = [len(level) for level in cx.basis]

    # route one: restrict the differential to invariant forms
    inv_bases = [fixed_space([a[k] for a in actions], sizes[k])
                 for k in range(n + 1)]
    restricted = [_restrict(cx.diff[k], inv_bases[k], inv_bases[k + 1])
                  for k in range(n)]
    route_one = _betti([len(basis) for basis in inv_bases],
                       [0 if r is None else rank(r) for r in restricted])

    # route two: fixed part of the full cohomology
    route_two = []
    for k in range(n + 1):
        d_k = cx.diff[k] if k < n else RationalMatrix.zero(1, sizes[k])  # d_n = 0
        z_basis = kernel(d_k)
        b_basis = rref_basis([[col.get(i, 0) for i in range(sizes[k])]
                              for col in cx.columns[k - 1]]) if k > 0 else []
        route_two.append(_quotient_fixed_dim([a[k] for a in actions], z_basis,
                                             b_basis))

    if route_one != tuple(route_two):
        raise AssertionError(
            f"invariant cohomology routes disagree: {list(route_one)} vs {route_two}")
    return route_one


def euler_characteristic(ranks) -> int:
    return sum((-1) ** k * b for k, b in enumerate(ranks))


@dataclass(frozen=True)
class DualityReport:
    orientable: bool
    duality_ok: bool
    ranks: tuple

    def to_json(self):
        return {"orientable": self.orientable, "duality_ok": self.duality_ok,
                "ranks": list(self.ranks)}


def duality_report(algebra: NilpotentLieAlgebra, hols,
                   max_dim: int = MAX_COMPLEX_DIM) -> DualityReport:
    """Top-degree orientability and, when it applies, Poincare duality.

    The holonomy action preserves orientation iff every matrix has
    determinant one; in that case the invariant Betti numbers must be
    palindromic. Without orientability the symmetry is not expected and
    duality_ok stays vacuously true.
    """
    hols = list(hols)
    ranks = invariant_cohomology_ranks(algebra, hols, max_dim=max_dim)
    orientable = all(h.det() == 1 for h in hols)
    ok = (not orientable) or all(ranks[k] == ranks[len(ranks) - 1 - k]
                                 for k in range(len(ranks)))
    return DualityReport(orientable=orientable, duality_ok=ok, ranks=ranks)

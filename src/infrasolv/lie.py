"""Nilpotent matrix Lie algebras over the rationals.

A NilpotentLieAlgebra is an abstract structure-constant algebra, optionally
carrying the ambient matrices its basis came from. Its group law
mu(x, y) = log(exp x * exp y) is the Baker-Campbell-Hausdorff polynomial,
computed from the structure constants alone. bracket_closure saturates a
span of coordinate vectors under a bracket. lie_closure uses it to build
an algebra from unipotent group generators: take logs, saturate under the
matrix bracket, then pass to the algebra's adapted frame, a canonical basis
adapted to the lower central series (depth-1 complement first), so
quotient layers are coordinate slices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

from .jordan import is_unipotent
from .linalg import (RationalMatrix, _frac, complement, intersect_kernels,
                     rref_basis, solve, sparse_sum)
from .polynomial import MPoly


def _nilpotent_series(nil, coefficient, start, what):
    """start + sum over k >= 1 of coefficient(k) * nil^k, a finite sum.

    Raises ValueError(what) when nil^n, n = nil.rows, is not zero, so the
    series is its own nilpotence check."""
    acc, power, k = start, nil, 1
    while not power.is_zero():
        if k == nil.rows:
            raise ValueError(what)
        acc = acc + power.scale(coefficient(k))
        power = power * nil
        k += 1
    return acc


def unip_log(g: RationalMatrix) -> RationalMatrix:
    """Logarithm of a unipotent matrix: finite Mercator series in (g - I).

    Raises when (g - I)^n, n = g.rows, is not zero, so the series is the
    unipotence check."""
    n = g.rows
    return _nilpotent_series(g.shift(-1),
                             lambda k: Fraction((-1) ** (k + 1), k),
                             RationalMatrix.zero(n, n), "matrix is not unipotent")


def nilp_exp(x: RationalMatrix) -> RationalMatrix:
    """Exponential of a nilpotent matrix: finite series, exact factorials.

    Raises when x^n, n = x.rows, is not zero, so the series is the
    nilpotence check."""
    if not x.is_square():
        raise ValueError("exponential needs a square matrix")
    return _nilpotent_series(x, lambda k: Fraction(1, factorial(k)),
                             RationalMatrix.identity(x.rows), "matrix is not nilpotent")


def bracket(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    return a * b - b * a


# ------------------------------------------------------------------
# polynomial coordinate vectors: lists of MPoly over the same nvars

def _linear_polys(m: RationalMatrix):
    """The components of x -> m x as polynomials in m.cols variables, one
    MPoly per row."""
    units = [tuple(int(k == j) for k in range(m.cols)) for j in range(m.cols)]
    return [MPoly._trusted(m.cols, {units[j]: Fraction(a) for j, a in row})
            for row in m.sparse]


def _even_bch_coefficients(m):
    """B_2p / (2p)! for 1 <= p <= m / 2, the Bernoulli numbers by the
    recurrence sum_{k <= n} C(n + 1, k) B_k = 0."""
    b = [Fraction(1)]
    for n in range(1, m + 1):
        b.append(-sum(comb(n + 1, k) * b[k] for k in range(n)) / (n + 1))
    return {2 * p: b[2 * p] / factorial(2 * p) for p in range(1, m // 2 + 1)}


def _compositions(m, parts):
    """Every (k_1, ..., k_parts) with k_i >= 1 summing to m, from the cut
    points between 1 and m - 1."""
    for cuts in combinations(range(1, m), parts - 1):
        bounds = (0,) + cuts + (m,)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


@dataclass(frozen=True)
class UnipotentGroupData:
    """Generators of a unipotent matrix group in a common ambient GL_d."""

    generators: tuple
    dim_ambient: int

    def __post_init__(self):
        for i, g in enumerate(self.generators):
            if g.rows != self.dim_ambient or g.cols != self.dim_ambient:
                raise ValueError(f"generator {i} is not {self.dim_ambient}x{self.dim_ambient}")
            if not is_unipotent(g):
                raise ValueError(f"generator {i} is not unipotent")


class NilpotentLieAlgebra:
    """Structure-constant Lie algebra, validated nilpotent at construction.

    brackets[i][j] is the coordinate vector of [e_i, e_j]; only i < j is
    stored, antisymmetry fills the rest. `ambient` optionally holds the
    basis as concrete matrices.
    """

    __slots__ = ("dim", "labels", "brackets", "ambient", "_coord_functional",
                 "_group_law", "_nonlinear_law", "_law_terms", "_adapted_frame")

    def __init__(self, dim, brackets, labels=None, ambient=None, validate=True):
        self.dim = dim
        self.labels = tuple(labels if labels is not None else (f"e{i+1}" for i in range(dim)))
        if len(self.labels) != dim:
            raise ValueError("label count does not match dimension")
        table = {}
        for (i, j), vec in brackets.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket key ({i},{j}) is not an ordered pair")
            v = tuple(_frac(x) for x in vec)
            if len(v) != dim:
                raise ValueError("bracket coefficient vector has wrong length")
            if any(v):
                table[(i, j)] = v
        self.brackets = table
        self.ambient = tuple(ambient) if ambient is not None else None
        self._coord_functional = None
        self._group_law = None
        self._nonlinear_law = None
        self._law_terms = None
        self._adapted_frame = None
        if self.ambient is not None and len(self.ambient) != dim:
            raise ValueError("ambient basis count does not match dimension")
        if validate:
            self._validate()

    def bracket_coords(self, x, y):
        """Bracket of coordinate vectors, as a coordinate vector."""
        out = [Fraction(0)] * self.dim
        for i in range(self.dim):
            xi = x[i]
            if not xi:
                continue
            for j in range(self.dim):
                yj = y[j]
                if not yj:
                    continue
                if i == j:
                    continue
                vec = self.brackets.get((i, j)) if i < j else self.brackets.get((j, i))
                if vec is None:
                    continue
                c = xi * yj if i < j else -xi * yj
                for k in range(self.dim):
                    if vec[k]:
                        out[k] += c * vec[k]
        return tuple(out)

    def basis_vector(self, i):
        return tuple(Fraction(int(j == i)) for j in range(self.dim))

    def ad_matrix(self, x) -> RationalMatrix:
        """Matrix of ad(x): y -> [x, y] in basis coordinates."""
        cols = [self.bracket_coords(x, self.basis_vector(j)) for j in range(self.dim)]
        return RationalMatrix.from_columns(cols)

    def _validate(self):
        # Jacobi on basis triples; antisymmetry is structural.
        for i in range(self.dim):
            ei = self.basis_vector(i)
            for j in range(i + 1, self.dim):
                ej = self.basis_vector(j)
                bij = self.bracket_coords(ei, ej)
                for k in range(j + 1, self.dim):
                    ek = self.basis_vector(k)
                    total = [a + b + c for a, b, c in zip(
                        self.bracket_coords(bij, ek),
                        self.bracket_coords(self.bracket_coords(ej, ek), ei),
                        self.bracket_coords(self.bracket_coords(ek, ei), ej))]
                    if any(total):
                        raise ValueError(f"Jacobi identity fails on basis triple ({i},{j},{k})")
        series = lower_central_series(self)
        if series[-1]:
            raise ValueError("algebra is not nilpotent (lower central series stabilizes nonzero)")
        if self.ambient:
            self.coord_functional()  # raises when the ambient basis is dependent
            for i in range(self.dim):
                for j in range(i + 1, self.dim):
                    got = bracket(self.ambient[i], self.ambient[j])
                    want = self.matrix_from_coords(self.brackets.get((i, j), (0,) * self.dim))
                    if got != want:
                        raise ValueError(f"ambient brackets disagree with structure constants at ({i},{j})")

    # ambient <-> coordinates

    def matrix_from_coords(self, coords) -> RationalMatrix:
        if self.ambient is None or not self.ambient:
            raise ValueError("algebra has no ambient matrices")
        # one pass: sum_k c_k * b_k over each b_k's nonzero entries, row by row
        terms = [(c, b.sparse) for c, b in zip(map(_frac, coords), self.ambient) if c]
        d = self.ambient[0].rows
        return RationalMatrix._trusted(
            [sparse_sum([(c, rows[i]) for c, rows in terms]) for i in range(d)], d)

    def coord_functional(self) -> RationalMatrix:
        """Left inverse L (dim x d^2) of the flattened basis: coords = L @ flat(X)."""
        if self.ambient is None:
            raise ValueError("algebra has no ambient matrices")
        if self._coord_functional is None:
            # solve stack^T y = e_i for every i at once; rows of L are the y's
            st = RationalMatrix([m.flatten() for m in self.ambient])
            rows, _ = solve(st, [self.basis_vector(i) for i in range(self.dim)])
            if None in rows:
                raise ValueError("ambient basis matrices are linearly dependent")
            self._coord_functional = RationalMatrix(rows)
        return self._coord_functional

    def _coords_or_none(self, x: RationalMatrix):
        """Coordinates of x through the left inverse, or None when the
        residual shows x outside the span."""
        coords = self.coord_functional().apply(x.flatten())
        return coords if self.matrix_from_coords(coords) == x else None

    def coords_of_matrix(self, x: RationalMatrix):
        """Coordinates of an ambient matrix known to lie in the span."""
        coords = self._coords_or_none(x)
        if coords is None:
            raise ValueError("matrix does not lie in the span of the algebra")
        return coords

    def group_law(self):
        """mu(x, y) = log(exp x * exp y) in coordinates: dim polynomials in 2 dim
        variables, x first, built once as x + y plus nonlinear_law()."""
        if self._group_law is None:
            n = self.dim
            self._group_law = tuple(
                MPoly.variable(2 * n, k) + MPoly.variable(2 * n, n + k) + c
                for k, c in enumerate(self.nonlinear_law()))
        return self._group_law

    def nonlinear_law(self):
        """z_2 + ... + z_c, the terms of degree >= 2 of the group law, one
        MPoly per component, computed once from the structure constants:
        mu(x, y) = x + y + nonlinear_law(), all zero at class 1.

        The Baker-Campbell-Hausdorff series by Varadarajan's recursion
        (Lie Groups, Lie Algebras, and Their Representations, 2.15): with
        z_1 = x + y and K_2p = B_2p / (2p)!,
            (m + 1) z_(m+1) = 1/2 [x - y, z_m]
                + sum over p >= 1, 2p <= m, of K_2p times the sum over
                  k_1 + ... + k_2p = m, k_i >= 1, of [z_k1, [... [z_k2p, x + y] ...]],
        each z_m homogeneous of degree m. In an algebra of nilpotency class
        c every z_m past c vanishes; a zero z_m below c proves nothing, so
        the recursion always runs to c."""
        if self._nonlinear_law is None:
            n = self.dim
            zero = MPoly.zero(2 * n)

            def bracket_polys(a, b):
                out = [zero] * n
                for (i, j), vec in self.brackets.items():
                    t = a[i] * b[j] - a[j] * b[i]
                    if not t.is_zero():
                        for k, c in enumerate(vec):
                            if c:
                                out[k] = out[k] + t * c
                return out

            v = [MPoly.variable(2 * n, i) for i in range(2 * n)]
            total = [x + y for x, y in zip(v[:n], v[n:])]
            diff = [x - y for x, y in zip(v[:n], v[n:])]
            nil_class = self.nilpotency_class()
            coefficients = _even_bch_coefficients(nil_class - 1)
            z = [None, total]
            law = [zero] * n
            for m in range(1, nil_class):
                acc = [p * Fraction(1, 2) for p in bracket_polys(diff, z[m])]
                for parts, coef in coefficients.items():
                    for ks in _compositions(m, parts):
                        nested = total
                        for part in reversed(ks):
                            nested = bracket_polys(z[part], nested)
                        acc = [a + b * coef for a, b in zip(acc, nested)]
                z.append([a * Fraction(1, m + 1) for a in acc])
                law = [a + b for a, b in zip(law, z[-1])]
            self._nonlinear_law = tuple(law)
        return self._nonlinear_law

    def group_product(self, x, y):
        """Coordinates of exp(x) * exp(y) for rational coordinate vectors.

        x + y, plus nonlinear_law() evaluated through its sparse term lists,
        built once: per component, (coefficient, ((variable, exponent), ...))
        pairs. For an abelian algebra every list is empty."""
        n = self.dim
        if len(x) != n or len(y) != n:
            raise ValueError("point has the wrong number of coordinates")
        if self._law_terms is None:
            self._law_terms = tuple(
                tuple((c, tuple((i, e) for i, e in enumerate(exps) if e))
                      for exps, c in comp.terms.items())
                for comp in self.nonlinear_law())
        point = [c if isinstance(c, Fraction) else _frac(c) for c in (*x, *y)]
        out = []
        for k, terms in enumerate(self._law_terms):
            total = point[k] + point[n + k]
            for c, mono in terms:
                for i, e in mono:
                    c *= point[i] if e == 1 else point[i] ** e
                total += c
            out.append(total)
        return tuple(out)

    def adapted_frame(self):
        """(W, W^-1, depths, adapted), computed once.

        W's columns are a basis adapted to the lower central series: greedy
        complements, depth 0 first; depths[k] is the layer of column k.
        `adapted` is this algebra in that basis, its brackets W^-1 [W e_k,
        W e_l] by change of basis, so its quotient layers are coordinate
        slices; it is the algebra itself when W = I. A change of basis of
        a valid algebra, it is not validated again."""
        if self._adapted_frame is None:
            chain = lower_central_series(self)
            cols, depths = [], []
            for d in range(len(chain) - 1):
                comp = complement(chain[d + 1], chain[d])
                cols.extend(comp)
                depths.extend([d] * len(comp))
            w = RationalMatrix.from_columns(cols)
            winv = w.inverse()
            adapted = self
            if w != RationalMatrix.identity(self.dim):
                table = {(k, l): winv.apply(self.bracket_coords(cols[k], cols[l]))
                         for k in range(self.dim) for l in range(k + 1, self.dim)}
                ambient = (None if self.ambient is None
                           else [self.matrix_from_coords(c) for c in cols])
                adapted = NilpotentLieAlgebra(self.dim, table, ambient=ambient,
                                              validate=False)
            self._adapted_frame = (w, winv, tuple(depths), adapted)
        return self._adapted_frame

    def contains_matrix(self, x: RationalMatrix) -> bool:
        return self._coords_or_none(x) is not None

    def nilpotency_class(self) -> int:
        return max(len(lower_central_series(self)) - 1, 1)

    def to_json(self):
        out = {"dim": self.dim, "labels": list(self.labels),
               "brackets": [[i, j, [str(c) for c in vec]]
                            for (i, j), vec in sorted(self.brackets.items())]}
        if self.ambient is not None:
            out["ambient"] = [m.to_json() for m in self.ambient]
        return out


def lower_central_series(algebra: NilpotentLieAlgebra):
    """Chain of coordinate subspaces L = L^1 >= [L, L^1] >= ... down to the fixed point.

    Each entry is an RREF basis (list of coordinate tuples); ends with [] exactly
    when the algebra is nilpotent.
    """
    full = [algebra.basis_vector(i) for i in range(algebra.dim)]
    chain = [rref_basis(full)]
    current = chain[0]
    while current:
        nxt = rref_basis([algebra.bracket_coords(u, v) for u in full for v in current])
        if nxt == current:
            chain.append(current)  # stabilized nonzero: not nilpotent
            return chain
        chain.append(nxt)
        current = nxt
    return chain


def center(algebra: NilpotentLieAlgebra):
    """RREF basis of the center: joint kernel of all ad(e_i)."""
    if algebra.dim == 0:
        return []
    return intersect_kernels(algebra.ad_matrix(algebra.basis_vector(i))
                             for i in range(algebra.dim))


def bracket_closure(vectors, bracket_of):
    """RREF basis of the smallest span containing `vectors` and closed under
    bracket_of, a bilinear antisymmetric map of coordinate vectors.

    Saturates round by round; the span strictly grows, so there are at
    most as many rounds as coordinates. The first round brackets each unordered pair
    once: [a, a] = 0 and [b, a] = -[a, b] add nothing to the span, so the
    complement picks the same vectors. Later rounds bracket the span with
    the vectors just added."""
    span = rref_basis(vectors)
    brackets = [bracket_of(a, b) for i, a in enumerate(span) for b in span[i + 1:]]
    while True:
        new = complement(span, brackets)
        if not new:
            return span
        span = rref_basis(span + new)
        brackets = [bracket_of(a, b) for a in span for b in new]


def lie_closure(data: UnipotentGroupData) -> NilpotentLieAlgebra:
    """Smallest matrix Lie algebra containing the logs of the generators.

    Saturates the span of the flattened logs under the matrix bracket,
    then rejects non-nilpotent results: that happens exactly when the
    generated group is not unipotent as a group, e.g. the two elementary
    2x2 unipotents generating a dense subgroup of SL_2.
    """
    d = data.dim_ambient
    span = bracket_closure(
        [unip_log(g).flatten() for g in data.generators],
        lambda a, b: bracket(_unflatten(a, d), _unflatten(b, d)).flatten())
    if not span:
        return NilpotentLieAlgebra(dim=0, brackets={}, ambient=[])
    raw = _structure_algebra([_unflatten(v, d) for v in span])
    if lower_central_series(raw)[-1]:
        raise ValueError("generated group is not unipotent: bracket closure is not nilpotent")
    # the canonical basis reordered along the lower central series
    return raw.adapted_frame()[3]


def _unflatten(vec, d) -> RationalMatrix:
    return RationalMatrix([vec[i * d:(i + 1) * d] for i in range(d)])


def _structure_algebra(basis_mats) -> NilpotentLieAlgebra:
    """Structure constants of a list of independent matrices closed under
    bracket; exact solves, so the result needs no validation."""
    n = len(basis_mats)
    stack = RationalMatrix.from_columns([m.flatten() for m in basis_mats])
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    sols, _ = solve(stack, [bracket(basis_mats[i], basis_mats[j]).flatten()
                            for i, j in pairs])
    if None in sols:
        raise ValueError("basis is not closed under brackets")
    table = {pair: coords for pair, coords in zip(pairs, sols) if any(coords)}
    return NilpotentLieAlgebra(dim=n, brackets=table, ambient=basis_mats,
                               validate=False)

"""Splitting data H = U . T and the structural checks behind it.

A split hull is carried as: the Lie algebra u of the unipotent part with its
ambient matrix realization, generators of U, semisimple ambient generators
of T, and the action of each T-generator on u by conjugation. Everything
downstream (affine actions, torus rank, invariant cohomology) consumes this
data; the checks here certify it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Optional

from .actions import AffineElement, GammaActionData
from .jordan import is_semisimple
from .lie import NilpotentLieAlgebra, bracket_closure, unip_log
from .linalg import Poly, RationalMatrix, char_poly, fixed_space


class InductionError(ValueError):
    pass


def hol_from_ambient(algebra: NilpotentLieAlgebra, t: RationalMatrix) -> RationalMatrix:
    """Matrix of X -> t X t^-1 on u in basis coordinates.

    Raises if t does not normalize u.
    """
    tinv = t.inverse()
    cols = []
    for b in algebra.ambient:
        conj = t * b * tinv
        try:
            cols.append(algebra.coords_of_matrix(conj))
        except ValueError:
            raise ValueError("matrix does not normalize the algebra") from None
    return RationalMatrix.from_columns(cols)


class SplitHullData:
    """U and T generators in one ambient GL_d, with T's action on u."""

    __slots__ = ("algebra", "u_data", "t_generators", "hol_matrices")

    def __init__(self, algebra, u_data, t_generators=(), hol_matrices=None):
        self.algebra = algebra
        self.u_data = u_data
        self.t_generators = tuple(t_generators)
        given = hol_matrices is not None
        if given:
            self.hol_matrices = tuple(hol_matrices)
        else:
            self.hol_matrices = tuple(hol_from_ambient(algebra, t)
                                      for t in self.t_generators)
        self._validate(compare_hol=given)

    def _validate(self, compare_hol):
        """U's generators are already unipotent (UnipotentGroupData); T's
        conjugation is recomputed only to compare it with given hol matrices.
        Each hol matrix is then conjugation by an invertible t that maps
        every basis matrix into u: a bracket-preserving bijection of u, so
        a Lie algebra automorphism without a further check."""
        if self.algebra.dim == 0:
            raise ValueError("hull data needs a positive-dimensional unipotent part")
        d = self.algebra.ambient[0].rows
        if self.u_data.dim_ambient != d:
            raise ValueError("U generators and algebra live in different ambient dimensions")
        for g in self.u_data.generators:
            if not self.algebra.contains_matrix(unip_log(g)):
                raise ValueError("a U generator's log lies outside the algebra")
        if len(self.hol_matrices) != len(self.t_generators):
            raise ValueError("need exactly one hol matrix per T generator")
        for i, t in enumerate(self.t_generators):
            if t.rows != d or t.cols != d:
                raise ValueError(f"T generator {i} has wrong ambient size")
            if not is_semisimple(t):
                raise ValueError(f"T generator {i} is not semisimple")
            if compare_hol and hol_from_ambient(self.algebra, t) != self.hol_matrices[i]:
                raise ValueError(f"hol matrix {i} disagrees with ambient conjugation")

    def to_json(self):
        return {"lie_algebra": self.algebra.to_json(),
                "u_generators": [g.to_json() for g in self.u_data.generators],
                "t_generators": [t.to_json() for t in self.t_generators],
                "hol_matrices": [h.to_json() for h in self.hol_matrices]}


def alpha_T(hull: SplitHullData, u: RationalMatrix, t_word=()) -> AffineElement:
    """The affine action of h = u * t on U, for t a word in T-generators.

    t_word is a sequence of (index, exponent) pairs into hull.t_generators.
    """
    n = hull.algebra.dim
    phi = RationalMatrix.identity(n)
    for idx, k in t_word:
        phi = phi * (hull.hol_matrices[idx] ** k)
    return AffineElement(hull.algebra, u, phi)


def conjugacy_transport(v: RationalMatrix, action: AffineElement) -> AffineElement:
    """Rewrite h = u t = u' t' against the conjugate torus T' = v T v^-1.

    With x^y = y x y^-1: u' = u v^t v^-1 and t' = t^v, so in coordinates the
    new translation is mu(mu(u, A c_v), -c_v), c_v = log v, and the new
    holonomy is Ad(v) A Ad(v)^-1.
    """
    alg = action.algebra
    cv = alg.coords_of_matrix(unip_log(v))  # v must lie in U
    ad_v = hol_from_ambient(alg, v)
    moved = alg.group_product(action.u, action.hol.apply(cv))
    new_u = alg.group_product(moved, tuple(-c for c in cv))
    return AffineElement.from_coords(alg, new_u, ad_v * action.hol * ad_v.inverse())


# ------------------------------------------------------------------
# strong unipotent radical

def _euler_phi(d: int) -> int:
    result, n, p = d, d, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def matrix_order(a: RationalMatrix) -> Optional[int]:
    """Exact multiplicative order, or None if infinite.

    A matrix of finite order has an integral characteristic polynomial
    whose irreducible factors are cyclotomic (Kronecker): each a Phi_d
    with euler_phi(d) <= n, so d <= 2 n^2. The order is the lcm of the d
    whose Phi_d divide it, found by exact division, with no large power;
    one power A^m = I confirms it and rejects a matrix that is not
    semisimple."""
    n = a.rows
    rest, order, phis = char_poly(a), 1, {}
    if any(c.denominator != 1 for c in rest.coeffs):
        return None
    for d in range(1, 2 * n * n + 1):
        if rest.degree() == 0:
            break
        if _euler_phi(d) > rest.degree():
            continue
        phi = Poly([-1] + [0] * (d - 1) + [1])  # x^d - 1 over its Phi_e, e | d, e < d
        for e in [e for e in phis if d % e == 0]:
            phi //= phis[e]
        phis[d] = phi
        q, r = divmod(rest, phi)
        while r.is_zero():
            rest, order = q, lcm(order, d)
            q, r = divmod(rest, phi)
    if rest.degree() > 0 or a ** order != RationalMatrix.identity(n):
        return None
    return order


@dataclass(frozen=True)
class StrongRadicalResult:
    ok: bool
    exact: bool
    witness: Optional[RationalMatrix] = None
    reason: str = ""
    diagnostics: tuple = ()


def strong_radical_check(hull: SplitHullData, joint_cap: int = 20000,
                         word_radius: int = 4) -> StrongRadicalResult:
    """No nontrivial element of T may act trivially on u.

    Exact for a single generator and whenever the holonomy group is finite
    (enumerated with ambient companions; a collision of holonomies with
    distinct ambient parts is a witness). With several infinite-order
    generators only a word-ball is searched and the result says so.
    """
    n = hull.algebra.dim
    d = hull.algebra.ambient[0].rows
    ident_amb = RationalMatrix.identity(d)
    ident_hol = RationalMatrix.identity(n)
    notes = []
    orders = []
    for i, (t, a) in enumerate(zip(hull.t_generators, hull.hol_matrices)):
        m = matrix_order(a)
        orders.append(m)
        if m is not None and (t ** m) != ident_amb:
            return StrongRadicalResult(
                ok=False, exact=True, witness=t ** m,
                reason=f"T generator {i} to the power {m} acts trivially on u "
                       "but is not the identity")
    if len(hull.t_generators) <= 1:
        return StrongRadicalResult(ok=True, exact=True)
    finite = all(m is not None for m in orders)
    letters = []
    for t, a in zip(hull.t_generators, hull.hol_matrices):
        letters.append((a, t))
        if not finite:
            letters.append((a.inverse(), t.inverse()))
    if not finite:
        notes.append(f"infinite-order holonomy present; joint relations searched "
                     f"to word radius {word_radius} only")
    # walk (holonomy, ambient) pairs: a finite group to closure, subject to
    # joint_cap, otherwise the ball of radius word_radius
    seen = {ident_hol: ident_amb}
    frontier = [(ident_hol, ident_amb)]
    radius = 0
    while frontier:
        if finite and len(seen) > joint_cap:
            notes.append(f"holonomy group enumeration capped at {joint_cap}")
            break
        if not finite and radius == word_radius:
            break
        radius += 1
        new = []
        for hol, amb in frontier:
            for a, t in letters:
                h2, a2 = hol * a, amb * t
                if h2 in seen:
                    if seen[h2] != a2:
                        return StrongRadicalResult(
                            ok=False, exact=True, witness=a2 * seen[h2].inverse(),
                            reason="two T-words share a holonomy but differ "
                                   "in the ambient group")
                else:
                    seen[h2] = a2
                    new.append((h2, a2))
        frontier = new
    # every bounded walk leaves a note: without one, the group was closed
    return StrongRadicalResult(ok=True, exact=not notes, diagnostics=tuple(notes))


# ------------------------------------------------------------------
# hull axioms

@dataclass(frozen=True)
class HullCertificate:
    dim_rank_ok: bool
    strong_radical_ok: bool
    density_surrogate_ok: bool
    density_label: str
    strong_radical: StrongRadicalResult
    diagnostics: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.dim_rank_ok and self.strong_radical_ok and self.density_surrogate_ok

    def to_json(self):
        out = {"dim_rank_ok": self.dim_rank_ok,
               "strong_radical_ok": self.strong_radical_ok,
               "density_surrogate_ok": self.density_surrogate_ok,
               "density_label": self.density_label,
               "strong_radical_exact": self.strong_radical.exact,
               "passed": self.passed,
               "diagnostics": dict(self.diagnostics)}
        if self.strong_radical.witness is not None:
            out["strong_radical_witness"] = self.strong_radical.witness.to_json()
            out["strong_radical_reason"] = self.strong_radical.reason
        return out


def hull_axiom_check(hull: SplitHullData, gamma: GammaActionData) -> HullCertificate:
    """The three hull axioms, as far as generator data can witness them.

    (i) density is checked by surrogate only: the translation parts must
    generate all of u, and the holonomy parts of the group generators must
    pin the same fixed space on u as the T generators. The certificate
    labels this 'surrogate', never 'proof'.
    (ii) strong unipotent radical via strong_radical_check.
    (iii) dim u must equal the stated Hirsch rank.
    """
    diag = {}
    dim_rank_ok = hull.algebra.dim == gamma.hirsch_rank
    if not dim_rank_ok:
        diag["dim_rank"] = (f"dim u = {hull.algebra.dim} but Hirsch rank = "
                            f"{gamma.hirsch_rank}")
    strong = strong_radical_check(hull)
    if strong.diagnostics:
        diag["strong_radical"] = list(strong.diagnostics)

    # the translations' coordinates lie in u, so they generate all of it
    # exactly when their bracket closure has full dimension
    closure = bracket_closure([g.u for g in gamma.generators.values()],
                              hull.algebra.bracket_coords)
    spans = len(closure) == hull.algebra.dim
    if not spans:
        diag["density_translations"] = (
            f"translation parts generate a {len(closure)}-dimensional subalgebra "
            f"of the {hull.algebra.dim}-dimensional u")
    gamma_fixed = fixed_space([g.hol for g in gamma.generators.values()],
                              hull.algebra.dim)
    t_fixed = fixed_space(hull.hol_matrices, hull.algebra.dim)
    fixed_match = gamma_fixed == t_fixed
    if not fixed_match:
        diag["density_holonomy"] = (
            "joint fixed space of generator holonomies differs from that of T")
    return HullCertificate(dim_rank_ok=dim_rank_ok,
                           strong_radical_ok=strong.ok,
                           density_surrogate_ok=spans and fixed_match,
                           density_label="surrogate",
                           strong_radical=strong,
                           diagnostics=diag)


@dataclass(frozen=True)
class FittingResult:
    ok: bool
    offender: Optional[str] = None


def fitting_radical_check(gamma: GammaActionData, hull: SplitHullData) -> FittingResult:
    """Generators labeled as Fitting material must land in U (trivial holonomy)."""
    ident = RationalMatrix.identity(hull.algebra.dim)
    for name in gamma.fitting_labels:
        if gamma.generators[name].hol != ident:
            return FittingResult(ok=False, offender=name)
    return FittingResult(ok=True)


# ------------------------------------------------------------------
# induced embeddings for finite extensions

class CosetExtension:
    """Finite extension data: Delta = union of Gamma r_i, i = 0..m-1, r_0 = 1.

    conjugators[i] realizes f_i(g) = c_i g c_i^-1 = r_i g r_i^-1 on the
    ambient group; table[i][j] and cocycles[i][j] record r_i r_j =
    cocycle * r_table[i][j] with the cocycle in Gamma.
    """

    __slots__ = ("m", "conjugators", "table", "cocycles")

    def __init__(self, conjugators, table, cocycles):
        self.conjugators = tuple(conjugators)
        self.m = len(self.conjugators)
        self.table = tuple(tuple(row) for row in table)
        self.cocycles = tuple(tuple(row) for row in cocycles)
        n = self.conjugators[0].rows
        ident = RationalMatrix.identity(n)
        if self.conjugators[0] != ident:
            raise InductionError("conjugator 0 must be the identity (r_0 = 1)")
        if len(self.table) != self.m or any(len(r) != self.m for r in self.table):
            raise InductionError("coset table must be m x m")
        if len(self.cocycles) != self.m or any(len(r) != self.m for r in self.cocycles):
            raise InductionError("cocycle table must be m x m")
        for j in range(self.m):
            if self.table[0][j] != j or self.cocycles[0][j] != ident:
                raise InductionError("row 0 of the coset data must be trivial")
            if self.table[j][0] != j or self.cocycles[j][0] != ident:
                raise InductionError("column 0 of the coset data must be trivial")
        for i in range(self.m):
            if sorted(self.table[i]) != list(range(self.m)):
                raise InductionError(f"coset table row {i} is not a permutation")
            if sorted(r[i] for r in self.table) != list(range(self.m)):
                raise InductionError(f"coset table column {i} is not a permutation")
        for i in range(self.m):
            for j in range(self.m):
                for k in range(self.m):
                    if self.table[i][self.table[j][k]] != self.table[self.table[i][j]][k]:
                        raise InductionError("coset table is not associative")
        for i in range(self.m):
            for j in range(self.m):
                for k in range(self.m):
                    lhs = (self._f(i, self.cocycles[j][k])
                           * self.cocycles[i][self.table[j][k]])
                    rhs = self.cocycles[i][j] * self.cocycles[self.table[i][j]][k]
                    if lhs != rhs:
                        raise InductionError(
                            f"cocycle associativity fails at ({i},{j},{k})")

    def _f(self, i, g):
        c = self.conjugators[i]
        return c * g * c.inverse()


class InducedEmbedding:
    """Block-matrix embedding of Delta into GL_{n m} over the coset space."""

    __slots__ = ("n", "m", "ext", "gamma_generators", "gamma_images", "coset_images")

    def __init__(self, gamma_generators, ext: CosetExtension):
        self.ext = ext
        self.gamma_generators = tuple(gamma_generators)
        self.n = self.gamma_generators[0].rows if self.gamma_generators else \
            ext.conjugators[0].rows
        self.m = ext.m
        # identity (1): f_i must be a group map compatible with the cocycles
        for i in range(self.m):
            for j in range(self.m):
                cij = ext.conjugators[i] * ext.conjugators[j]
                target = ext.cocycles[i][j] * ext.conjugators[ext.table[i][j]]
                for g in self.gamma_generators:
                    if cij * g * cij.inverse() != target * g * target.inverse():
                        raise InductionError(
                            "f_i fails identity (1): conjugators are inconsistent "
                            f"with the cocycle at ({i},{j})")
        self.gamma_images = tuple(self.embed_gamma(g) for g in self.gamma_generators)
        self.coset_images = tuple(self.embed(None, k) for k in range(self.m))

    def _blocks_to_matrix(self, blocks):
        n, m = self.n, self.m
        z = Fraction(0)
        rows = [[z] * (n * m) for _ in range(n * m)]
        for (i, j), b in blocks.items():
            for r in range(n):
                for s in range(n):
                    rows[i * n + r][j * n + s] = b[r, s]
        return RationalMatrix(rows)

    def embed_gamma(self, g: RationalMatrix) -> RationalMatrix:
        """Psi(g) = blockdiag(f_i(g)); defined for every ambient g."""
        return self._blocks_to_matrix(
            {(i, i): self.ext._f(i, g) for i in range(self.m)})

    def embed(self, gamma0: Optional[RationalMatrix], k: int) -> RationalMatrix:
        """psi(gamma0 r_k): block (i, table[i][k]) = f_i(gamma0) * cocycle[i][k]."""
        blocks = {}
        for i in range(self.m):
            b = self.ext.cocycles[i][k]
            if gamma0 is not None:
                b = self.ext._f(i, gamma0) * b
            blocks[(i, self.ext.table[i][k])] = b
        return self._blocks_to_matrix(blocks)

    def normal_form_product(self, a, b):
        """(g, i)(h, j) = (g f_i(h) cocycle[i][j], table[i][j])."""
        (g, i), (h, j) = a, b
        return (g * self.ext._f(i, h) * self.ext.cocycles[i][j],
                self.ext.table[i][j])

    def check_word_ball(self, radius: int) -> int:
        """Exact checks of the embedding on all words up to `radius`.

        Letters are the Gamma generators and the nontrivial coset
        representatives. For every word w with normal form (g, k):
        psi(w) == embed(g, k); psi(w) is block-diagonal iff k == 0 (that is
        Psi(G) cap psi(Delta) = psi(Gamma)); and psi(w) == I iff (g, k) is
        trivial (injectivity). Returns the number of words checked.
        """
        n, m = self.n, self.m
        ident_n = RationalMatrix.identity(n)
        letters = []
        for g, img in zip(self.gamma_generators, self.gamma_images):
            letters.append(((g, 0), img))
            letters.append(((g.inverse(), 0), self.embed_gamma(g.inverse())))
        for k in range(1, m):
            letters.append(((ident_n, k), self.coset_images[k]))
        frontier = [((ident_n, 0), RationalMatrix.identity(n * m))]
        checked = 0
        for _ in range(radius):
            nxt = []
            for nf, img in frontier:
                for lnf, limg in letters:
                    nf2 = self.normal_form_product(nf, lnf)
                    img2 = img * limg
                    checked += 1
                    if img2 != self.embed(nf2[0], nf2[1]):
                        raise InductionError("embedding is not a homomorphism")
                    diag = all(
                        self._block_is_zero(img2, i, j)
                        for i in range(m) for j in range(m) if i != j)
                    if diag != (nf2[1] == 0):
                        raise InductionError(
                            "a block-diagonal image escaped psi(Gamma)")
                    if (img2 == RationalMatrix.identity(n * m)) != (
                            nf2[0] == ident_n and nf2[1] == 0):
                        raise InductionError("embedding is not injective on the ball")
                    nxt.append((nf2, img2))
            frontier = nxt
        return checked

    def _block_is_zero(self, big, i, j):
        n = self.n
        return all(big[i * n + r, j * n + s] == 0
                   for r in range(n) for s in range(n))


def induce_extension(gamma_generators, ext: CosetExtension) -> InducedEmbedding:
    """Embed a finite extension of Gamma by block matrices over the cosets."""
    return InducedEmbedding(gamma_generators, ext)

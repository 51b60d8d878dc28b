"""Concrete group actions on a simply connected nilpotent group U.

Elements act in exponential coordinates of the first kind: the affine pair
(g, phi) sends exp(X) to g * phi(exp X). An element is carried as (u, hol):
u the coordinates of log g, hol the differential of phi, a Lie algebra
automorphism in basis coordinates. With mu(x, y) = log(exp x * exp y), the
algebra's polynomial group law, a point p goes to mu(u, hol p), and
(u, A)(v, B) = (mu(u, A v), A B). Ambient matrices are read only where
elements are built from them (bundles, hull data) and written only on
request, through the lazily built `translation` matrix.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Optional

from .lie import NilpotentLieAlgebra, _linear_polys, nilp_exp, unip_log
from .linalg import (RationalMatrix, _dense, _frac, _rref, intersect_kernels, rank,
                     solve)
from .polynomial import MPoly, PolynomialMap


# Entries each per-holonomy memo keeps (canonical holonomies, layer
# reductions, holonomy products), far more than one ball's holonomies.
LAYER_CACHE_SIZE = 256

# Largest bit length of a holonomy entry (numerator or denominator) that
# AffineElement.power builds. Under a holonomy of infinite order the
# entries of g^k grow geometrically in k, so a large word exponent would
# otherwise build huge integers; finite-order holonomy stays far below it.
POWER_ENTRY_BITS = 4096


class FixedPointScopeError(RuntimeError):
    """Raised when the fixed-point descent leaves the affine-linear regime.

    Possible only at nilpotency class >= 3 when earlier layers keep free
    parameters that enter a deeper consistency condition nonlinearly; a
    definitive answer would need real root counting, which this package
    does not attempt.
    """


def is_lie_automorphism(algebra: NilpotentLieAlgebra, a: RationalMatrix) -> bool:
    """Exact check that a preserves the structure constants and is invertible."""
    n = algebra.dim
    if a.rows != n or a.cols != n:
        return False
    if rank(a) != n:
        return False
    images = [a.apply(algebra.basis_vector(i)) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lhs = algebra.bracket_coords(images[i], images[j])
            rhs = a.apply(algebra.brackets.get((i, j), (0,) * n))
            if lhs != tuple(rhs):
                return False
    return True


class AffineElement:
    """Pair (u, hol): p -> mu(u, hol p), u the coordinates of the translation."""

    __slots__ = ("algebra", "u", "hol", "_translation", "_pmap", "_hash")

    def __init__(self, algebra, translation, hol):
        """Build from an ambient unipotent translation matrix and hol."""
        try:
            log = unip_log(translation)  # checks unipotence
        except ValueError:
            raise ValueError("translation part is not unipotent") from None
        self.algebra = algebra
        self.u = algebra.coords_of_matrix(log)  # raises if outside u
        self.hol = _canonical(hol)
        self._translation = translation
        self._pmap = self._hash = None
        if not is_lie_automorphism(algebra, hol):
            raise ValueError("holonomy part is not a Lie algebra automorphism")

    @classmethod
    def from_coords(cls, algebra, u, hol) -> "AffineElement":
        """The element (u, hol), u in exponential coordinates; no checks."""
        self = object.__new__(cls)
        self.algebra = algebra
        self.u = tuple(u)
        self.hol = _canonical(hol)
        self._translation = self._pmap = self._hash = None
        return self

    @property
    def translation(self) -> RationalMatrix:
        """The ambient unipotent matrix exp(u), built on first use."""
        if self._translation is None:
            self._translation = nilp_exp(self.algebra.matrix_from_coords(self.u))
        return self._translation

    def __eq__(self, other):
        return (isinstance(other, AffineElement)
                and self.u == other.u and self.hol == other.hol)

    def __hash__(self):
        # computed once: the word ball's set hashes each element it meets
        if self._hash is None:
            self._hash = hash((self.u, self.hol))
        return self._hash

    def __repr__(self):
        return f"AffineElement(u=exp{tuple(map(str, self.u))}, hol={self.hol!r})"

    @staticmethod
    def identity(algebra) -> "AffineElement":
        n = algebra.dim
        return AffineElement.from_coords(algebra, (Fraction(0),) * n,
                                         _identity(n))

    def is_identity(self) -> bool:
        return not any(self.u) and self.hol == _identity(self.algebra.dim)

    def compose(self, other: "AffineElement") -> "AffineElement":
        """(u, A)(v, B) = (mu(u, A v), A B): apply other first."""
        alg = self.algebra
        return AffineElement.from_coords(
            alg, alg.group_product(self.u, self.hol.apply(other.u)),
            _hol_product(self.hol, other.hol))

    def inverse(self) -> "AffineElement":
        hinv = _hol_inverse(self.hol)
        return AffineElement.from_coords(
            self.algebra, tuple(-x for x in hinv.apply(self.u)), hinv)

    def power(self, k: int) -> "AffineElement":
        """self^k by repeated squaring; self itself for k = 1.

        Raises ValueError once a square's holonomy has an entry longer
        than POWER_ENTRY_BITS bits."""
        if k < 0:
            return self.inverse().power(-k)
        if k < 2:
            return self if k else AffineElement.identity(self.algebra)
        half = self.power(k // 2)
        square = half.compose(half)
        if max(max(x.numerator.bit_length(), x.denominator.bit_length())
               for row in square.hol.sparse for _, x in row) > POWER_ENTRY_BITS:
            raise ValueError("word power exceeds the budget of "
                             f"{POWER_ENTRY_BITS} bits per holonomy entry")
        return square.compose(self) if k % 2 else square

    def apply(self, point):
        """Image of a u-coordinate point, exactly."""
        if len(point) != self.algebra.dim:
            raise ValueError("point has wrong dimension")
        return self.algebra.group_product(self.u, self.hol.apply(point))

    def as_polynomial_map(self) -> PolynomialMap:
        """x -> mu(u, A x) = u + A x + (the law's nonlinear terms at (u, A x))."""
        if self._pmap is None:
            n = self.algebra.dim
            self._pmap = PolynomialMap(_law_at(self.algebra, _constants(self.u, n),
                                               _linear_polys(self.hol)))
        return self._pmap

    def to_json(self):
        return {"translation_matrix": self.translation.to_json(),
                "hol_matrix": self.hol.to_json()}


@lru_cache(maxsize=LAYER_CACHE_SIZE)
def _canonical(hol):
    """The first instance of hol's value still in the table.

    Elements store it, so the holonomy memo keys and the word ball's
    lookups compare holonomies by identity. An evicted value gets a new
    instance: only speed is lost, since equality stays by value."""
    return hol


@lru_cache(maxsize=LAYER_CACHE_SIZE)
def _identity(n):
    return _canonical(RationalMatrix.identity(n))


@lru_cache(maxsize=LAYER_CACHE_SIZE)
def _hol_product(a, b):
    """a b, memoized by value: a word ball meets only a few holonomies."""
    return _canonical(a * b)


@lru_cache(maxsize=LAYER_CACHE_SIZE)
def _hol_inverse(h):
    """h^-1, memoized by value: relators, powers and ball letters reuse it."""
    return _canonical(h.inverse())


# ------------------------------------------------------------------
# the group law on polynomial arguments

def _law_at(algebra, xs, ys):
    """mu(xs, ys) for lists of polynomials: xs + ys, plus the law's
    nonlinear terms substituted in the components that have any."""
    args = list(xs) + list(ys)
    return [x + y + c.substitute(args) if c.terms else x + y
            for x, y, c in zip(xs, ys, algebra.nonlinear_law())]


def _constants(vec, nvars):
    return [MPoly.constant(nvars, c) for c in vec]


def right_translation_map(algebra, v: RationalMatrix) -> PolynomialMap:
    """R_v: x -> log(exp(x) * v) as an exact polynomial map."""
    cv = algebra.coords_of_matrix(unip_log(v))  # v must lie in U
    n = algebra.dim
    xs = [MPoly.variable(n, i) for i in range(n)]
    return PolynomialMap(_law_at(algebra, xs, _constants(cv, n)))


# ------------------------------------------------------------------
# group data and words

_TOKEN = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^(-?\d+))?$")


def _check_radius(radius: int):
    if radius < 0:
        raise ValueError(f"word radius must be nonnegative, got {radius}")


def parse_word(s: str):
    """'a b^-1 c^2' -> [('a', 1), ('b', -1), ('c', 2)]."""
    out = []
    for tok in s.split():
        m = _TOKEN.match(tok)
        if not m:
            raise ValueError(f"bad word token {tok!r}")
        out.append((m.group(1), int(m.group(2)) if m.group(2) else 1))
    return out


class GammaActionData:
    """Finitely generated group acting affinely on U, given by decomposed generators."""

    __slots__ = ("algebra", "generators", "relators", "hirsch_rank", "fitting_labels")

    def __init__(self, algebra, generators, relators=(), hirsch_rank=None,
                 fitting_labels=()):
        self.algebra = algebra
        self.generators = dict(generators)
        self.relators = tuple(relators)
        self.hirsch_rank = algebra.dim if hirsch_rank is None else hirsch_rank
        self.fitting_labels = tuple(fitting_labels)
        self.validate()

    def validate(self):
        for name, g in self.generators.items():
            if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name):
                raise ValueError(f"bad generator name {name!r}")
            if g.algebra is not self.algebra:
                raise ValueError(f"generator {name!r} built on a different algebra")
        for rel in self.relators:
            if not self.evaluate_word(rel).is_identity():
                raise ValueError(f"relator {rel!r} does not evaluate to the identity")

    def evaluate_word(self, word) -> AffineElement:
        """The product of the word's factors, from its first factor on."""
        if isinstance(word, str):
            word = parse_word(word)
        acc = None
        for name, k in word:
            if name not in self.generators:
                raise ValueError(f"unknown generator {name!r}")
            factor = self.generators[name].power(k)
            acc = factor if acc is None else acc.compose(factor)
        return AffineElement.identity(self.algebra) if acc is None else acc

    def enumerate_ball(self, radius: int):
        """BFS over reduced words; yields (word string, element) once per element.

        Deduplication by element is sound for coverage: anything reachable from
        a repeated element is reachable from its first occurrence at smaller
        or equal total length.
        """
        _check_radius(radius)
        letters = []
        for name, g in self.generators.items():
            letters.append((name, 1, g))
            letters.append((name, -1, g.inverse()))
        ident = AffineElement.identity(self.algebra)
        seen = {ident}
        yield "", ident
        frontier = [((), ident)]
        for _ in range(radius):
            nxt = []
            for word, elem in frontier:
                for name, sgn, gel in letters:
                    if word and word[-1][0] == name and word[-1][1] == -sgn:
                        continue  # free reduction
                    new_word = word + ((name, sgn),)
                    new_elem = elem.compose(gel)
                    size = len(seen)
                    seen.add(new_elem)  # one hash and one lookup per candidate
                    if len(seen) == size:
                        continue
                    ws = " ".join(n if s == 1 else f"{n}^-1" for n, s in new_word)
                    yield ws, new_elem
                    nxt.append((new_word, new_elem))
            frontier = nxt

    def to_json(self):
        return {"generators": [{"name": n,
                                "translation_matrix": g.translation.to_json(),
                                "hol_matrix": g.hol.to_json()}
                               for n, g in self.generators.items()],
                "relators": list(self.relators),
                "hirsch_rank": self.hirsch_rank,
                "fitting_labels": list(self.fitting_labels)}


def emit_polynomial_action(gdata: GammaActionData):
    """Exact polynomial maps for every generator and its inverse."""
    out = {}
    for name, g in gdata.generators.items():
        out[name] = g.as_polynomial_map()
        out[name + "^-1"] = g.inverse().as_polynomial_map()
    return out


def action_degree_bound(algebra: NilpotentLieAlgebra) -> int:
    """Emitted degrees never exceed the nilpotency class of u."""
    return algebra.nilpotency_class()


# ------------------------------------------------------------------
# fixed points by descent along the lower central series

@lru_cache(maxsize=LAYER_CACHE_SIZE)
def _layer_reduction(block):
    """One elimination of [M | I] for a layer's coefficient block M.

    Returns (E M, E, pivot columns of M) with E M in reduced row echelon
    form; the rows of E past the rank of M give the consistency conditions.
    M is a diagonal block of W^-1 A W - I, so it depends on the holonomy
    alone and repeats across the elements of a word ball.
    """
    m = len(block)
    pivots, ech = _rref([[(j, x) for j, x in enumerate(row) if x] + [(m + i, 1)]
                         for i, row in enumerate(block)])
    return (tuple(tuple(_dense(row, 0, m)) for row in ech),
            tuple(tuple(_dense(row, m, 2 * m)) for row in ech),
            tuple(c for c in pivots if c < m))


def _combine(coeffs, polys, nvars):
    """sum_j coeffs[j] * polys[j], built as one MPoly."""
    terms = {}
    for c, p in zip(coeffs, polys):
        if c:
            for e, v in p.terms.items():
                terms[e] = terms[e] + c * v if e in terms else c * v
    return MPoly._trusted(nvars, terms)


def fixed_point_solve(a: AffineElement):
    """A rational fixed point of the affine map, or None if none exists over R.

    Descends the lower central series in coordinates adapted to it. Each
    coordinate is its own parameter, and every template is a polynomial in
    the same n variables. The depth-k block of the fixed-point equation is
    linear in the depth-k coordinates with a constant matrix (brackets
    strictly increase depth), and its right-hand side is polynomial in the
    shallower templates. A free coordinate keeps its variable; a pivot
    coordinate becomes its reduced right-hand side minus its layer's free
    variables. A consistency row that is affine in the surviving variables
    replaces its pivot variables by a particular solution plus kernel
    combinations of the others; absence answers are rank conditions, hence
    valid over R as well as Q. The point sets every surviving variable to 0.
    """
    alg = a.algebra
    n = alg.dim
    if n == 0:
        return ()
    if a.hol == _identity(n) and any(a.u):
        return None  # mu(u, x) = x means exp(u) = 1, so u = 0
    # the descent runs on the same element in the adapted basis:
    # (W^-1 u, W^-1 A W) in the algebra whose layers are coordinate slices
    w, winv, depth_of, adapted = alg.adapted_frame()
    elem = a if adapted is alg else AffineElement.from_coords(
        adapted, winv.apply(a.u), winv * a.hol * w)
    units = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    xs = [MPoly._trusted(n, {e: Fraction(1)}) for e in units]
    g = [c - x for c, x in zip(elem.as_polynomial_map().components, xs)]

    for i in range(n):  # the depth argument, checked
        for exps in g[i].terms:
            if any(e and (depth_of[j] > depth_of[i]
                          or depth_of[j] == depth_of[i] and sum(exps) > 1)
                   for j, e in enumerate(exps)):
                raise AssertionError("depth filtration violated in descent")

    zero = MPoly.zero(n)
    templ = list(xs)  # per adapted coordinate, in the surviving variables
    for d in range(max(depth_of) + 1):
        idx = [i for i in range(n) if depth_of[i] == d]
        reduced, ops, pivots = _layer_reduction(tuple(
            tuple(g[i].terms.get(units[j], Fraction(0)) for j in idx) for i in idx))
        repl = [templ[j] if depth_of[j] < d else zero for j in range(n)]
        eqs = [g[i].substitute(repl) for i in idx]
        rhs = [_combine([-c for c in row], eqs, n) for row in ops]
        r = len(pivots)

        constraints = []
        for resid in rhs[r:]:
            if resid.is_zero():
                continue
            if resid.degree() == 0:
                return None  # 0 = nonzero constant: no fixed point over any field
            if resid.degree() > 1:
                raise FixedPointScopeError(
                    "consistency condition of degree "
                    f"{resid.degree()} in layer parameters (nilpotency class >= 3)")
            constraints.append(resid.linear_decomposition())

        if constraints:
            (sol,), ker = solve(RationalMatrix([lin for _, lin, _ in constraints]),
                                [[-const for const, _, _ in constraints]])
            if sol is None:
                return None
            # each kernel vector is 1 at its free column, the last one it touches
            kept = [xs[max(j for j, v in enumerate(kv) if v)] for kv in ker]
            one = MPoly.constant(n, 1)
            subst = [_combine([sol[j]] + [kv[j] for kv in ker], [one] + kept, n)
                     for j in range(n)]
            templ = [t.substitute(subst) if depth_of[j] < d else t
                     for j, t in enumerate(templ)]
            rhs = [p.substitute(subst) for p in rhs[:r]]

        free = [c for c in range(len(idx)) if c not in pivots]
        for row, c, b in zip(reduced, pivots, rhs):
            templ[idx[c]] = _combine([1] + [-row[f] for f in free],
                                     [b] + [xs[idx[f]] for f in free], n)

    point = w.apply([t.constant_term() for t in templ])
    if a.apply(point) != point:
        raise AssertionError("descent produced a non-fixed point")
    return point


@dataclass(frozen=True)
class FreenessResult:
    free: bool
    radius: int
    witness_word: Optional[str] = None
    witness_point: Optional[tuple] = None


def freeness_check(gdata: GammaActionData, radius: int = 6) -> FreenessResult:
    """Search reduced words up to `radius` for a non-identity element with a fixed point.

    A True answer is radius-bounded evidence, not a proof; a False answer
    carries an exact witness (word, fixed point).
    """
    for word, elem in gdata.enumerate_ball(radius):
        if elem.is_identity():
            continue
        p = fixed_point_solve(elem)
        if p is not None:
            return FreenessResult(free=False, radius=radius,
                                  witness_word=word, witness_point=p)
    return FreenessResult(free=True, radius=radius)


def orbit_sample(gdata: GammaActionData, radius: int, box=None):
    """Orbit of the origin under words up to `radius`, optionally boxed.

    box: list of (lo, hi) rational pairs per coordinate, inclusive. Output
    sorted lexicographically, so identical inputs give identical lists.
    """
    _check_radius(radius)
    origin = (Fraction(0),) * gdata.algebra.dim
    pts = {origin}
    if gdata.generators:
        for _, elem in gdata.enumerate_ball(radius):
            pts.add(elem.apply(origin))
    if box is not None:
        box = [(_frac(lo), _frac(hi)) for lo, hi in box]
        if len(box) != gdata.algebra.dim:
            raise ValueError("box must give one (lo, hi) pair per coordinate")
        pts = {p for p in pts
               if all(lo <= x <= hi for x, (lo, hi) in zip(p, box))}
    return sorted(pts)


def torus_rank(gdata: GammaActionData, hull) -> int:
    """Dimension of the subspace of center(u) fixed by every T-generator.

    This is the Lie algebra of the closure of the central translations, the
    maximal torus that acts on the quotient.
    """
    alg = hull.algebra
    if gdata.algebra is not alg and gdata.algebra.dim != alg.dim:
        raise ValueError("group and hull algebras disagree")
    if not alg.dim:
        return 0
    return len(intersect_kernels(
        [alg.ad_matrix(alg.basis_vector(i)) for i in range(alg.dim)]
        + [h.shift(-1) for h in hull.hol_matrices]))

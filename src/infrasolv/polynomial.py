"""Multivariate polynomials over the rationals and polynomial self-maps.

Representation: dict from exponent tuples to nonzero Fraction coefficients,
with a fixed variable count. Serialization lists (exponent-vector,
coefficient) pairs sorted lexicographically, so output is deterministic.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import _frac, frac_to_str


class MPoly:
    """Polynomial in `nvars` variables; immutable once constructed."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        clean = {}
        for exps, c in (terms or {}).items():
            c = _frac(c)
            if not c:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for {nvars} variables")
            clean[exps] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, nvars: int, terms) -> "MPoly":
        """Internal constructor for terms combined from checked polynomials:
        exponent tuples of length nvars and Fraction coefficients. Drops the
        zero coefficients and checks nothing else."""
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", {e: c for e, c in terms.items() if c})
        return self

    def __setattr__(self, *a):
        raise AttributeError("MPoly is immutable")

    @staticmethod
    def constant(nvars: int, c) -> "MPoly":
        return MPoly._trusted(nvars, {(0,) * nvars: _frac(c)})

    @staticmethod
    def zero(nvars: int) -> "MPoly":
        return MPoly._trusted(nvars, {})

    @staticmethod
    def variable(nvars: int, i: int) -> "MPoly":
        exps = tuple(int(j == i) for j in range(nvars))
        return MPoly._trusted(nvars, {exps: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __eq__(self, other):
        return (isinstance(other, MPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def _binop(self, other, sign):
        if isinstance(other, (int, Fraction, str)):
            other = MPoly.constant(self.nvars, other)
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out = dict(self.terms)
        for e, c in other.terms.items():
            if sign < 0:
                c = -c
            out[e] = out[e] + c if e in out else c
        return MPoly._trusted(self.nvars, out)

    def __add__(self, other):
        return self._binop(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, -1)

    def __rsub__(self, other):
        return MPoly.constant(self.nvars, other) - self

    def __neg__(self):
        return MPoly._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, str)):
            c = _frac(other)
            return MPoly._trusted(self.nvars, {e: c * v for e, v in self.terms.items()})
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out[e] + c1 * c2 if e in out else c1 * c2
        return MPoly._trusted(self.nvars, out)

    __rmul__ = __mul__

    def eval(self, point):
        """Exact evaluation at a rational point."""
        if len(point) != self.nvars:
            raise ValueError("point has the wrong number of coordinates")
        pt = [_frac(x) for x in point]
        total = Fraction(0)
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(pt, exps):
                if e:
                    v *= x ** e
            total += v
        return total

    def substitute(self, polys):
        """Plug polynomials in for the variables. Result uses the polys' nvars."""
        if len(polys) != self.nvars:
            raise ValueError("need one replacement polynomial per variable")
        if not polys:
            return MPoly(0, {(): self.constant_term()} if self.terms else {})
        target = polys[0].nvars
        if any(p.nvars != target for p in polys):
            raise ValueError("replacement polynomials disagree on variable count")
        powers = [{1: p} for p in polys]

        def power(i, e):
            cache = powers[i]
            if e not in cache:
                cache[e] = power(i, e - 1) * polys[i]
            return cache[e]

        one = MPoly._trusted(target, {(0,) * target: Fraction(1)})
        total = {}  # each term's product of powers, scaled into one sum
        for exps, c in self.terms.items():
            term = one
            for i, e in enumerate(exps):
                if e:
                    term = term * power(i, e)
            for e, v in term.terms.items():
                total[e] = total[e] + c * v if e in total else c * v
        return MPoly._trusted(target, total)

    def linear_decomposition(self):
        """Split into (constant, linear-coefficient list, higher part)."""
        const = Fraction(0)
        lin = [Fraction(0)] * self.nvars
        higher = {}
        for exps, c in self.terms.items():
            t = sum(exps)
            if t == 0:
                const = c
            elif t == 1:
                lin[exps.index(1)] = c
            else:
                higher[exps] = c
        return const, lin, MPoly(self.nvars, higher)

    def to_json(self):
        return [[list(e), frac_to_str(c)]
                for e, c in sorted(self.terms.items())]

    @staticmethod
    def from_json(nvars: int, obj) -> "MPoly":
        return MPoly(nvars, {tuple(e): _frac(c) for e, c in obj})

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i+1}^{e}" if e > 1 else f"x{i+1}"
                            for i, e in enumerate(exps) if e)
            parts.append(f"{c}*{mono}" if mono else f"{c}")
        return " + ".join(parts)


class PolynomialMap:
    """Polynomial self-map of Q^n: one MPoly component per coordinate."""

    __slots__ = ("components",)

    def __init__(self, components):
        comps = tuple(components)
        if not comps:
            raise ValueError("polynomial map needs at least one component")
        n = comps[0].nvars
        if any(c.nvars != n for c in comps):
            raise ValueError("components disagree on variable count")
        object.__setattr__(self, "components", comps)

    def __setattr__(self, *a):
        raise AttributeError("PolynomialMap is immutable")

    @property
    def nvars(self) -> int:
        return self.components[0].nvars

    @staticmethod
    def identity(n: int) -> "PolynomialMap":
        return PolynomialMap([MPoly.variable(n, i) for i in range(n)])

    def is_identity(self) -> bool:
        return self == PolynomialMap.identity(self.nvars)

    def degree(self) -> int:
        return max(c.degree() for c in self.components)

    def eval(self, point):
        return tuple(c.eval(point) for c in self.components)

    def after(self, other: "PolynomialMap") -> "PolynomialMap":
        """Composition self o other: apply `other` first."""
        if len(other.components) != self.nvars:
            raise ValueError("composition dimension mismatch")
        return PolynomialMap([c.substitute(list(other.components))
                              for c in self.components])

    def __eq__(self, other):
        return (isinstance(other, PolynomialMap)
                and self.components == other.components)

    def __hash__(self):
        return hash(self.components)

    def to_json(self):
        return {"nvars": self.nvars,
                "components": [c.to_json() for c in self.components]}

    @staticmethod
    def from_json(obj) -> "PolynomialMap":
        n = obj["nvars"]
        return PolynomialMap([MPoly.from_json(n, c) for c in obj["components"]])

    def __repr__(self):
        return "PolynomialMap(" + "; ".join(repr(c) for c in self.components) + ")"

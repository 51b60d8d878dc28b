"""Exact linear algebra over the rationals.

Everything in this package runs on Fraction entries; no floats anywhere.
A matrix is stored as its sparse rows only: each row's nonzero (column,
entry) pairs in column order, an entry of +-1 as the int. Equal matrices
have equal rows, so equality and hashing read them. The constructor takes
dense rows and converts them once; `from_sparse_columns` and `from_columns`
fill the rows directly. The dense readers (`row`, `__getitem__`, `data`,
`flatten`, `to_json`) compute their answer on each call and store nothing;
every entry they return is a Fraction. `apply`, every elimination and the
entrywise arithmetic read the rows, so they touch only nonzero entries,
and +-1 costs a copy or a negation: the sums, differences, multiples,
shifts and the row-by-row product `__mul__` (Gustavson 1978) all go
through the one row combiner `sparse_sum`.
There is one elimination routine, `_forward`: a fraction-free forward pass
on sparse integer rows, each a {column: int} dict of its nonzeros scaled by
the lcm of their denominators. It takes the columns left to right, so the
pivot columns are the canonical ones, pivots on the sparsest row holding
the column, and updates only the rows that hold it, by the one row update
`_clear`: (a row - b pivot row) / content, which keeps entries small.
Everything else derives from it:
- `det` is the sign of its row order times its pivots and the factors a
  and content of its updates; `rank` and `complement` read its pivot
  columns;
- `_rref` adds the reduction back to the pivots, by `_clear` again, with
  fractions only at output; `kernel`, `rref_basis` and `inverse` (one
  reduction of [M | I]) read it, and so does `actions.fixed_point_solve`,
  which reduces each layer as [M | I]. `actions` memoizes holonomy
  inverses, so no holonomy is reduced twice.
- `solve` is the one solver: every right-hand side and the kernel from one
  reduction of [a | rhs].
There is one joint-kernel routine, `intersect_kernels`: the kernel of the
stacked matrices, as a canonical (RREF) basis read off one reduction of the
stack with its columns reversed. `fixed_space` is it applied to the m - I,
`lie.center` to the ad(e_i), and `actions.torus_rank` to both.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot make an exact rational out of {type(x).__name__}")


def frac_to_str(x: Fraction) -> str:
    return str(x)


_ZERO, _ONE = Fraction(0), Fraction(1)


def _entry(x):
    """A nonzero entry as stored: +-1 as the int, any other value a Fraction."""
    if x == 1 or x == -1:
        return int(x)
    return x if type(x) is Fraction else Fraction(x)


class RationalMatrix:
    """Immutable matrix with Fraction entries, stored as its sparse rows."""

    __slots__ = ("rows", "cols", "sparse", "_hash")

    def __init__(self, rows_of_entries):
        data = [[_frac(x) for x in row] for row in rows_of_entries]
        if not data:
            raise ValueError("matrix needs at least one row")
        ncols = len(data[0])
        if ncols == 0 or any(len(r) != ncols for r in data):
            raise ValueError("ragged or empty rows")
        self._fill([[(j, _entry(x)) for j, x in enumerate(r) if x] for r in data], ncols)

    @classmethod
    def _trusted(cls, sparse, ncols):
        """A matrix of sparse rows whose entries are stored as `_entry` makes
        them, in column order; no checks."""
        return object.__new__(cls)._fill(sparse, ncols)

    def _fill(self, sparse, ncols):
        for name, value in (("sparse", tuple(map(tuple, sparse))), ("rows", len(sparse)),
                            ("cols", ncols), ("_hash", None)):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, *a):
        raise AttributeError("RationalMatrix is immutable")

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix._trusted([((i, 1),) for i in range(n)], n)

    @staticmethod
    def zero(rows: int, cols: int) -> "RationalMatrix":
        return RationalMatrix._trusted([()] * rows, cols)

    @staticmethod
    def from_sparse_columns(columns, nrows) -> "RationalMatrix":
        """Matrix of columns given as {row: nonzero entry} dicts."""
        rows = [[] for _ in range(nrows)]
        for c, col in enumerate(columns):
            for r, x in col.items():
                rows[r].append((c, _entry(x)))
        return RationalMatrix._trusted(rows, len(columns))

    @staticmethod
    def from_columns(columns) -> "RationalMatrix":
        return RationalMatrix(columns).transpose()

    def row(self, i):
        out = [_ZERO] * self.cols
        for j, a in self.sparse[i]:
            out[j] = Fraction(a)
        return tuple(out)

    def __getitem__(self, ij):
        i, j = ij
        return self.row(i)[j]

    @property
    def data(self):
        """The dense rows, computed on each call."""
        return tuple(map(self.row, range(self.rows)))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other):
        return self is other or (isinstance(other, RationalMatrix) and self.cols == other.cols
                                 and self.sparse == other.sparse)

    def __hash__(self):
        # computed once: matrices key memo tables and word-ball dicts
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.cols, self.sparse)))
        return self._hash

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.data)
        return f"RationalMatrix[{body}]"

    def _rowwise(self, terms):
        """The matrix of self's shape whose row i is sparse_sum(terms(i, row i))."""
        return RationalMatrix._trusted(
            [sparse_sum(terms(i, row)) for i, row in enumerate(self.sparse)], self.cols)

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch in addition")
        return self._rowwise(lambda i, row: ((1, row), (1, other.sparse[i])))

    def __sub__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch in subtraction")
        return self._rowwise(lambda i, row: ((1, row), (-1, other.sparse[i])))

    def __neg__(self):
        return self._rowwise(lambda i, row: ((-1, row),))

    def scale(self, c) -> "RationalMatrix":
        c = _frac(c)
        return self._rowwise(lambda i, row: ((c, row),))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        brows = other.sparse
        return RationalMatrix._trusted([sparse_sum([(a, brows[j]) for j, a in row])
                                        for row in self.sparse], other.cols)

    __rmul__ = scale

    def __pow__(self, k: int):
        if not self.is_square():
            raise ValueError("powers need a square matrix")
        if k < 0:
            return self.inverse() ** (-k)
        acc = RationalMatrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base if k > 1 else base
            k >>= 1
        return acc

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix.from_sparse_columns(list(map(dict, self.sparse)), self.cols)

    def apply(self, vec):
        """Matrix-vector product; vec is a sequence, result a tuple.

        Runs over the sparse rows: an entry of +-1 is a copy or a negation,
        so a signed permutation multiplies nothing."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        v = [x if isinstance(x, Fraction) else _frac(x) for x in vec]
        out = []
        for row in self.sparse:
            acc = None
            for j, a in row:
                t = (v[j] if a > 0 else -v[j]) if type(a) is int else a * v[j]
                acc = t if acc is None else acc + t
            out.append(_ZERO if acc is None else acc)
        return tuple(out)

    def trace(self) -> Fraction:
        if not self.is_square():
            raise ValueError("trace needs a square matrix")
        return sum((a for i, row in enumerate(self.sparse) for j, a in row if j == i), _ZERO)

    def is_zero(self) -> bool:
        return not any(self.sparse)

    def flatten(self):
        return tuple(x for r in self.data for x in r)

    def det(self) -> Fraction:
        """From the forward pass: the sign of its row order, its pivots, and
        the factors its row updates scaled by."""
        if not self.is_square():
            raise ValueError("determinant needs a square matrix")
        work, scale = _int_rows(self.sparse)
        order, gain, loss = _forward(work)
        if len(order) < self.rows:
            return Fraction(0)
        rows = [p for _, p in order]
        for c, p in order:
            gain *= work[p][c]
        inversions = sum(q < p for k, p in enumerate(rows) for q in rows[k + 1:])
        return Fraction((-1) ** inversions * gain, loss * scale)

    def inverse(self) -> "RationalMatrix":
        if not self.is_square():
            raise ValueError("inverse needs a square matrix")
        n = self.rows
        pivots, ech = _rref([row + ((n + i, 1),) for i, row in enumerate(self.sparse)])
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return RationalMatrix._trusted([[(j - n, _entry(x)) for j, x in sorted(row.items())
                                         if j >= n] for row in ech], n)

    def shift(self, c) -> "RationalMatrix":
        """self + c I, changing the diagonal only."""
        if not self.is_square():
            raise ValueError("shift needs a square matrix")
        c = _frac(c)
        return self._rowwise(lambda i, row: ((1, row), (c, ((i, 1),))))

    def to_json(self):
        return [[frac_to_str(x) for x in r] for r in self.data]

    @staticmethod
    def from_json(obj) -> "RationalMatrix":
        return RationalMatrix(obj)


def sparse_sum(terms):
    """Sum of a * row over the (a, row) pairs of sparse rows, as a sparse
    row; an int factor or entry is +-1, so its products are copies or
    negations."""
    acc = {}
    for a, row in terms:
        for k, b in row:
            t = ((b if a > 0 else -b) if type(a) is int
                 else (a if b > 0 else -a) if type(b) is int else a * b)
            acc[k] = acc[k] + t if k in acc else t
    return [(k, _entry(acc[k])) for k in sorted(acc) if acc[k]]


def _int_rows(rows):
    """Each row's nonzero (column, entry) pairs as {column: int}, scaled by
    the lcm of the entries' denominators; and the product of those lcms."""
    out, scale = [], 1
    for row in rows:
        m = lcm(*[x.denominator for _, x in row])
        out.append({j: x.numerator * (m // x.denominator) for j, x in row})
        scale *= m
    return out, scale


def _sparse(rows):
    """The nonzero (column, entry) pairs of each of a list of dense rows; an
    entry that is neither an int nor a Fraction is made a Fraction first."""
    return [[(j, y) for j, x in enumerate(row) if x
             for y in (x if isinstance(x, (int, Fraction)) else _frac(x),) if y]
            for row in rows]


def _dense(row, lo, hi):
    """Columns lo..hi-1 of a {column: Fraction} row, as a list."""
    return [row.get(j, _ZERO) for j in range(lo, hi)]


def _clear(row, prow, c):
    """The one row update: row <- (a row - b prow) / content, in place, with
    b / a the ratio of the rows' column-c entries in lowest terms, so that
    column c of row vanishes. Returns (a, content)."""
    g = gcd(prow[c], row[c])
    a, b = prow[c] // g, row[c] // g
    if a != 1:
        for j in row:
            row[j] *= a
    for j, x in prow.items():
        y = row.get(j, 0) - b * x
        if y:
            row[j] = y
        else:
            del row[j]
    g = gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g
    return a, g or 1


def _forward(rows):
    """Fraction-free forward pass on {column: int} rows, in place.

    Columns are taken left to right, so the pivot columns are the canonical
    ones. In each, the pivot is the sparsest row with a nonzero there (ties
    to the lowest index), and only the other rows with a nonzero there are
    updated, by `_clear`; a column index keeps track of them. Returns the
    (column, row index) of each pivot in order, and the products `gain` of
    the contents and `loss` of the factors a of every update: the input's
    determinant is gain / loss times that of the rows left behind.
    """
    cols = {}
    for i, row in enumerate(rows):
        for j in row:
            cols.setdefault(j, set()).add(i)
    order, gain, loss = [], 1, 1
    for c in sorted(cols):
        live = cols[c]
        if not live:
            continue
        p = min(live, key=lambda i: (len(rows[i]), i))
        prow = rows[p]
        for j in prow:
            cols[j].discard(p)
        for i in list(live):
            row = rows[i]
            a, g = _clear(row, prow, c)
            gain, loss = gain * g, loss * a
            for j in prow:
                (cols[j].add if j in row else cols[j].discard)(i)
        order.append((c, p))
    return order, gain, loss


def _rref(rows):
    """Reduced row echelon form of rows of nonzero (column, entry) pairs:
    the pivot columns and, per pivot, its reduced row as {column: Fraction}.

    `_forward`, then the reduction back to each pivot, last pivot first,
    with the same `_clear` on the rows above that hold its column; the
    fractions appear only at output."""
    work = _int_rows(rows)[0]
    order = _forward(work)[0]
    above = {c: [] for c, _ in order}
    for c, p in order:
        for j in work[p]:
            if j != c and j in above:
                above[j].append(p)
    for c, p in reversed(order):
        for i in above[c]:
            _clear(work[i], work[p], c)
    return [c for c, _ in order], [
        {j: Fraction(x, work[p][c]) for j, x in work[p].items()} for c, p in order]


def _pivots(rows):
    """Pivot columns of rows of nonzero (column, entry) pairs: the forward pass alone."""
    return [c for c, _ in _forward(_int_rows(rows)[0])[0]]


def rank(m: RationalMatrix) -> int:
    return len(_pivots(m.sparse))


def rref_basis(vectors):
    """Canonical (RREF) basis of the span of the given coordinate vectors.

    Returns a list of tuples; deterministic for any input order.
    """
    vecs = list(vectors)
    if not vecs:
        return []
    n = len(vecs[0])
    return [tuple(_dense(row, 0, n)) for row in _rref(_sparse(vecs))[1]]


def kernel(m: RationalMatrix):
    """Basis of the right null space, one vector per free column."""
    return _null_vectors(*_rref(m.sparse), m.cols)


def _null_vectors(pivots, ech, n):
    """Kernel basis of the first n columns of the reduced rows `ech` whose
    pivots, all below n, are `pivots`: one vector per free column."""
    pivset = set(pivots)
    basis = {f: [_ZERO] * n for f in range(n) if f not in pivset}
    for f, v in basis.items():
        v[f] = _ONE
    for c, row in zip(pivots, ech):
        for j, x in row.items():
            if j < n and j != c:
                basis[j][c] = -x
    return [tuple(v) for v in basis.values()]


def solve(a: RationalMatrix, rhs):
    """Solve a x = b for every b in rhs by one elimination of [a | rhs].

    Returns (solutions, kernel basis of a). solutions holds one entry per b:
    the solution whose free variables are zero, or None where a x = b is
    inconsistent. The kernel, one vector per free column of a, is reported
    even when some system is inconsistent.
    """
    rhs = list(rhs)
    if any(len(b) != a.rows for b in rhs):
        raise ValueError("right-hand side length mismatch")
    n = a.cols
    rows = [list(row) for row in a.sparse]
    for t, b in enumerate(_sparse(rhs)):
        for i, x in b:
            rows[i].append((n + t, x))
    pivots, ech = _rref(rows)
    r = sum(c < n for c in pivots)
    # b is in the column span iff no pivot row beyond a's has weight on it
    bad = {j for row in ech[r:] for j in row}
    at = dict(zip(pivots[:r], ech))
    sols = [None if j in bad else tuple(at[c].get(j, _ZERO) if c in at else _ZERO
                                        for c in range(n))
            for j in range(n, n + len(rhs))]
    return sols, _null_vectors(pivots[:r], ech[:r], n)


def complement(sub, whole):
    """The vectors of `whole` outside the span of `sub` and of the vectors of
    `whole` before them, in order: a greedy basis of span(sub + whole)
    modulo span(sub), from the pivot columns of one elimination."""
    sub, whole = list(sub), list(whole)
    if not whole:
        return []
    ns = len(sub)
    return [whole[c - ns] for c in _pivots(_sparse(zip(*(sub + whole)))) if c >= ns]


def _unit_vectors(n):
    return [tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)]


def intersect_kernels(mats):
    """Canonical (RREF) basis of the joint right null space of several
    matrices: the one routine that stacks matrices for a joint kernel.

    One elimination of the stacked nonzero rows with their columns reversed.
    Reversed back, each null vector read off it is 1 at its free column, 0
    at the other free columns and nonzero only to their right: together they
    are the kernel's RREF basis. An all-zero stack needs no elimination.
    """
    mats = list(mats)
    if not mats:
        raise ValueError("need at least one matrix")
    n = mats[0].cols
    rows = [[(n - 1 - j, x) for j, x in row] for m in mats for row in m.sparse if row]
    if not rows:
        return _unit_vectors(n)
    return [v[::-1] for v in reversed(_null_vectors(*_rref(rows), n))]


def fixed_space(mats, dim):
    """Canonical (RREF) basis of the joint fixed space of square matrices on
    Q^dim: `intersect_kernels` of the m - I, the whole space with no matrix."""
    mats = list(mats)
    if not mats:
        return _unit_vectors(dim)
    return intersect_kernels(m.shift(-1) for m in mats)


class Poly:
    """Univariate polynomial over the rationals, coefficients low to high."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def zero() -> "Poly":
        return Poly([])

    @staticmethod
    def one() -> "Poly":
        return Poly([1])

    @staticmethod
    def x() -> "Poly":
        return Poly([0, 1])

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly([c + (b[i] if i < len(b) else 0) for i, c in enumerate(a)])

    def __sub__(self, other):
        return self + Poly([-c for c in other.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree()
        lead = other.coeffs[-1]
        q = [Fraction(0)] * max(len(rem) - d, 0)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i] / lead
            if c:
                q[i - d] = c
                for j, b in enumerate(other.coeffs):
                    rem[i - d + j] -= c * b
        return Poly(q), Poly(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ValueError("zero polynomial has no monic form")
        lead = self.coeffs[-1]
        return Poly([c / lead for c in self.coeffs])

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval_matrix(self, m: RationalMatrix) -> RationalMatrix:
        if not m.is_square():
            raise ValueError("polynomial evaluation needs a square matrix")
        acc = RationalMatrix.zero(m.rows, m.cols)
        for c in reversed(self.coeffs):
            acc = (acc * m).shift(c)
        return acc

    def to_json(self):
        return [frac_to_str(c) for c in self.coeffs]

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*x^{i}" if i else f"{c}")
        return "Poly(" + " + ".join(terms) + ")"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


def poly_ext_gcd(a: Poly, b: Poly):
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = a, b
    s0, s1 = Poly.one(), Poly.zero()
    t0, t1 = Poly.zero(), Poly.one()
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    lead = r0.coeffs[-1]
    inv = Fraction(1) / lead
    return r0.monic(), s0 * inv, t0 * inv


def squarefree_part(p: Poly) -> Poly:
    """p / gcd(p, p'), monic: same roots, multiplicity one (char 0)."""
    if p.is_zero():
        raise ValueError("zero polynomial has no squarefree part")
    g = poly_gcd(p, p.derivative())
    if g.is_zero() or g.degree() == 0:
        return p.monic()
    return (p // g).monic()


def char_poly(m: RationalMatrix) -> Poly:
    """Characteristic polynomial det(xI - m) by Faddeev-LeVerrier."""
    if not m.is_square():
        raise ValueError("characteristic polynomial needs a square matrix")
    n = m.rows
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    b = m
    for k in range(1, n + 1):
        c = -b.trace() / k
        coeffs[n - k] = c
        if k < n:
            b = m * b.shift(c)
    return Poly(coeffs)

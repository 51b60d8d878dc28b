"""Generated inputs of the ``forms`` workload and the checks made on them.

An input is a nilpotent Lie algebra from one of four families, given by
structure constants, and a finite holonomy group of signed-permutation
automorphisms given by generators, or no holonomy at all. A signed
permutation is a tuple of (image index, sign) pairs: basis vector j goes
to sign * e[image]. Every check here is computed without infrasolv:
closed forms, a rank of the bracket map, and averages of characters over
the holonomy group, which is enumerated from its generators.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb

# One input per stratum and round: (family, dimension, holonomy kind).
# Holonomy kinds: "none"; "diag", one diagonal sign automorphism; "perm",
# one signed permutation that is not diagonal; "pair", one of each.
STRATA = (
    ("abelian", 4, "none"), ("abelian", 4, "diag"), ("abelian", 4, "perm"),
    ("abelian", 5, "none"), ("abelian", 5, "diag"), ("abelian", 5, "perm"),
    ("abelian", 5, "pair"),
    ("abelian", 6, "none"), ("abelian", 6, "diag"), ("abelian", 6, "perm"),
    ("abelian", 7, "none"),
    ("filiform", 4, "none"), ("filiform", 4, "diag"),
    ("filiform", 5, "none"), ("filiform", 5, "diag"),
    ("filiform", 6, "none"), ("filiform", 6, "diag"),
    ("filiform", 7, "none"),
    ("heisenberg", 5, "none"), ("heisenberg", 5, "diag"),
    ("heisenberg", 5, "perm"), ("heisenberg", 5, "pair"),
    ("heisenberg", 7, "none"),
    ("free2step", 6, "none"), ("free2step", 6, "diag"), ("free2step", 6, "perm"),
)


def brackets(family, n):
    """Structure constants {(i, j): {k: c}} with i < j: [e_i, e_j] = sum c e_k."""
    if family == "abelian":
        return {}
    if family == "heisenberg":  # x_1..x_m, y_1..y_m, z with [x_i, y_i] = z
        m = (n - 1) // 2
        return {(i, m + i): {n - 1: 1} for i in range(m)}
    if family == "filiform":  # [e_1, e_i] = e_(i+1)
        return {(0, i): {i + 1: 1} for i in range(1, n - 1)}
    if family == "free2step":  # x_1, x_2, x_3 and their three brackets
        return {pair: {3 + t: 1} for t, pair in enumerate(((0, 1), (0, 2), (1, 2)))}
    raise ValueError(f"unknown family {family!r}")


def _signs(rng, k):
    return [rng.choice((1, -1)) for _ in range(k)]


def _not_identity(draw):
    while True:
        g = draw()
        if any(img != j or s != 1 for j, (img, s) in enumerate(g)):
            return g


def _derangement_or_swap(rng, k):
    while True:
        p = list(range(k))
        rng.shuffle(p)
        if p != list(range(k)):
            return p


def _induced_free2step(perm, signs):
    """Extend a signed permutation of x_1..x_3 to the free 2-step algebra."""
    pairs = ((0, 1), (0, 2), (1, 2))
    g = [(perm[i], signs[i]) for i in range(3)]
    for i, j in pairs:
        a, b = perm[i], perm[j]
        s = signs[i] * signs[j] * (1 if a < b else -1)
        g.append((3 + pairs.index((min(a, b), max(a, b))), s))
    return tuple(g)


def automorphism(family, n, kind, rng):
    """A seeded signed-permutation automorphism of the given kind."""
    if family == "abelian":
        if kind == "diag":
            return _not_identity(lambda: tuple((j, s) for j, s in enumerate(_signs(rng, n))))
        p = _derangement_or_swap(rng, n)
        return tuple(zip(p, _signs(rng, n)))
    if family == "filiform":  # e_1 -> s e_1, e_2 -> t e_2, so e_k -> s^(k-2) t e_k
        def draw():
            s, t = _signs(rng, 2)
            return ((0, s),) + tuple((k, s ** (k - 1) * t) for k in range(1, n))
        return _not_identity(draw)
    if family == "heisenberg":
        m = (n - 1) // 2

        def draw(permute):
            ez = rng.choice((1, -1))
            p = _derangement_or_swap(rng, m) if permute and m > 1 else list(range(m))
            swaps = [rng.random() < 0.5 for _ in range(m)] if permute else [False] * m
            if permute and p == list(range(m)) and not any(swaps):
                swaps[rng.randrange(m)] = True
            g = [None] * n
            for i in range(m):
                a = rng.choice((1, -1))
                if swaps[i]:  # x_i -> a y_p, y_i -> b x_p with [a y, b x] = -ab z
                    g[i], g[m + i] = (m + p[i], a), (p[i], -ez * a)
                else:  # x_i -> a x_p, y_i -> b y_p with [a x, b y] = ab z
                    g[i], g[m + i] = (p[i], a), (m + p[i], ez * a)
            g[n - 1] = (n - 1, ez)
            return tuple(g)
        if kind == "diag":
            return _not_identity(lambda: draw(False))
        return draw(True)
    if family == "free2step":
        if kind == "diag":
            return _not_identity(lambda: _induced_free2step([0, 1, 2], _signs(rng, 3)))
        return _induced_free2step(_derangement_or_swap(rng, 3), _signs(rng, 3))
    raise ValueError(f"unknown family {family!r}")


def generate(seed):
    """The seeded inputs of one round: a list of dicts, one per stratum."""
    rng = random.Random(seed)
    out = []
    for family, n, kind in STRATA:
        if kind == "none":
            gens = ()
        elif kind == "pair":
            gens = (automorphism(family, n, "diag", rng),
                    automorphism(family, n, "perm", rng))
        else:
            gens = (automorphism(family, n, kind, rng),)
        for g in gens:
            if not is_automorphism(family, n, g):
                raise AssertionError(f"generated map is no automorphism: {family} {n} {g}")
        out.append({"name": f"{family}{n}-{kind}", "family": family, "dim": n,
                    "kind": kind, "gens": gens})
    return out


def as_matrix_rows(g):
    """Rows of the matrix whose column j is the image of e_j."""
    n = len(g)
    rows = [[0] * n for _ in range(n)]
    for j, (img, s) in enumerate(g):
        rows[img][j] = s
    return rows


def build(inp):
    """The infrasolv objects of one input, through their constructors."""
    from infrasolv import NilpotentLieAlgebra, RationalMatrix
    n = inp["dim"]
    table = {pair: tuple(vec.get(k, 0) for k in range(n))
             for pair, vec in brackets(inp["family"], n).items()}
    alg = NilpotentLieAlgebra(dim=n, brackets=table)
    hols = [RationalMatrix(as_matrix_rows(g)) for g in inp["gens"]]
    return alg, hols


# ------------------------------------------------------------------ oracles

def _bracket(table, u, v):
    """Bracket of sparse vectors {index: coeff}."""
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            if i == j:
                continue
            key, sign = ((i, j), 1) if i < j else ((j, i), -1)
            for k, c in table.get(key, {}).items():
                out[k] = out.get(k, 0) + sign * a * b * c
    return {k: c for k, c in out.items() if c}


def is_automorphism(family, n, g):
    table = brackets(family, n)
    img = [{g[j][0]: g[j][1]} for j in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lhs = _bracket(table, img[i], img[j])
            rhs = {}
            for k, c in table.get((i, j), {}).items():
                t, s = g[k]
                rhs[t] = rhs.get(t, 0) + s * c
            if lhs != {k: c for k, c in rhs.items() if c}:
                return False
    return True


def _compose(a, b):
    """The signed permutation a after b."""
    return tuple((a[img][0], s * a[img][1]) for img, s in b)


def group(gens, n):
    """All elements of the finite group the generators generate."""
    ident = tuple((j, 1) for j in range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                x = _compose(g, h)
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
        frontier = nxt
    return sorted(seen)


def _exterior_traces(g):
    """Traces of g on each exterior power: coefficients of det(1 + t g).

    A cycle of length L whose signs multiply to s contributes the factor
    1 + (-1)^(L+1) s t^L.
    """
    n = len(g)
    poly = [1] + [0] * n
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        length, sign, j = 0, 1, start
        while not seen[j]:
            seen[j] = True
            sign *= g[j][1]
            j = g[j][0]
            length += 1
        c = (-1) ** (length + 1) * sign
        poly = [poly[k] + (c * poly[k - length] if k >= length else 0)
                for k in range(n + 1)]
    return poly


def invariant_form_dims(gens, n):
    """dim of the G-invariant k-forms, k = 0..n, by averaging characters.

    A signed permutation matrix is orthogonal, so its contragredient action
    on forms has the same traces as the matrix itself.
    """
    elems = group(gens, n)
    sums = [0] * (n + 1)
    for g in elems:
        for k, tr in enumerate(_exterior_traces(g)):
            sums[k] += tr
    dims = [Fraction(s, len(elems)) for s in sums]
    if any(d.denominator != 1 for d in dims):
        raise AssertionError("character average is not an integer")
    return [int(d) for d in dims]


def fixed_form_count(gens, n, k):
    """Orbits of basis k-forms whose stabiliser fixes the form, not negates it."""
    elems = group(gens, n)
    seen = set()
    count = 0
    for idx in combinations(range(n), k):
        if idx in seen:
            continue
        fixed = True
        for g in elems:
            images = [g[i][0] for i in idx]
            key = tuple(sorted(images))
            seen.add(key)
            if key == idx:
                sign = 1
                for i in idx:
                    sign *= g[i][1]
                inversions = sum(1 for a in range(k) for b in range(a + 1, k)
                                 if images[a] > images[b])
                if sign * (-1) ** inversions != 1:
                    fixed = False
        count += fixed
    return count


def orientation(g):
    """det of a signed permutation matrix: the sign of the permutation times its signs."""
    n = len(g)
    perm = [img for img, _ in g]
    inversions = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
    det = (-1) ** inversions
    for _, s in g:
        det *= s
    return det


def _rank(rows):
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def first_betti(family, n):
    """n minus the rank of the bracket map from pairs to the algebra."""
    table = brackets(family, n)
    rows = [[table.get(pair, {}).get(k, 0) for pair in combinations(range(n), 2)]
            for k in range(n)]
    return n - (_rank(rows) if table else 0)


def check(inp, betti, ranks, orientable, duality_ok):
    """Problems found in one forms result; an empty list means it is right."""
    family, n, gens = inp["family"], inp["dim"], inp["gens"]
    betti, ranks = list(betti), list(ranks)
    bad = []
    if len(betti) != n + 1 or len(ranks) != n + 1:
        return [f"expected {n + 1} Betti numbers, got {betti} and {ranks}"]
    if betti[0] != 1 or betti[n] != 1 or betti != betti[::-1]:
        bad.append(f"Betti numbers {betti} are not 1 at both ends and palindromic")
    if sum((-1) ** k * b for k, b in enumerate(betti)) != 0:
        bad.append(f"Euler characteristic of {betti} is not 0")
    if betti[1] != first_betti(family, n):
        bad.append(f"b1 = {betti[1]}, bracket map gives {first_betti(family, n)}")
    if family == "abelian" and betti != [comb(n, k) for k in range(n + 1)]:
        bad.append(f"abelian Betti numbers {betti} are not binomial")
    if family == "heisenberg":
        m = (n - 1) // 2
        want = [comb(2 * m, k) - (comb(2 * m, k - 2) if k >= 2 else 0)
                for k in range(m + 1)]
        if betti[:m + 1] != want:
            bad.append(f"Heisenberg Betti numbers {betti} do not start {want}")
    dims = invariant_form_dims(gens, n)
    euler = sum((-1) ** k * d for k, d in enumerate(dims))
    if sum((-1) ** k * b for k, b in enumerate(ranks)) != euler:
        bad.append(f"invariant Euler characteristic of {ranks} is not {euler}")
    if family == "abelian":
        fixed = [fixed_form_count(gens, n, k) for k in range(n + 1)]
        if ranks != fixed:
            bad.append(f"abelian invariant Betti numbers {ranks} != fixed forms {fixed}")
    if any(r > b for r, b in zip(ranks, betti)) or any(r > d for r, d in zip(ranks, dims)):
        bad.append(f"invariant Betti numbers {ranks} exceed {betti} or {dims}")
    own_orientable = all(orientation(g) == 1 for g in gens)
    if orientable != own_orientable:
        bad.append(f"orientable = {orientable}, determinants say {own_orientable}")
    if own_orientable and ranks != ranks[::-1]:
        bad.append(f"orientable holonomy but {ranks} is not palindromic")
    if not duality_ok:
        bad.append("duality_ok is false")
    return bad

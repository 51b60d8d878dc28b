import os
import pathlib
import random
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from math import comb, gcd

import pytest
from test_actions import _triangular_conjugation, _upper_algebra

from infrasolv import bundles
from infrasolv.actions import (AffineElement, GammaActionData,
                               is_lie_automorphism, right_translation_map)
from infrasolv.hull import (CosetExtension, FittingResult, InductionError,
                            SplitHullData, _euler_phi, alpha_T,
                            conjugacy_transport, fitting_radical_check,
                            hol_from_ambient, hull_axiom_check, induce_extension,
                            matrix_order, strong_radical_check)
from infrasolv.lie import (UnipotentGroupData, bracket_closure, lie_closure,
                           nilp_exp, unip_log)
from infrasolv.linalg import RationalMatrix, char_poly
from infrasolv.schema import load_bundle


def _elem(i, j, n):
    rows = [[0] * n for _ in range(n)]
    rows[i][j] = 1
    return RationalMatrix(rows)


def heisenberg():
    x = RationalMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    y = RationalMatrix([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    alg = lie_closure(UnipotentGroupData(generators=(x, y), dim_ambient=3))
    return alg, x, y


def abelian2():
    g1, g2 = nilp_exp(_elem(0, 2, 3)), nilp_exp(_elem(1, 2, 3))
    alg = lie_closure(UnipotentGroupData(generators=(g1, g2), dim_ambient=3))
    return alg, g1, g2


def exp_coords(alg, *coords):
    return nilp_exp(alg.matrix_from_coords(tuple(F(c) for c in coords)))


def klein_hull():
    alg, g1, g2 = abelian2()
    t = RationalMatrix([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    return SplitHullData(alg, UnipotentGroupData(generators=(g1, g2),
                                                 dim_ambient=3),
                         t_generators=(t,))


def klein_gamma(alg):
    glide = AffineElement(alg, exp_coords(alg, F(1, 2), 0),
                          RationalMatrix([[1, 0], [0, -1]]))
    b = AffineElement(alg, exp_coords(alg, 0, 1), RationalMatrix.identity(2))
    return GammaActionData(alg, {"b": b, "g": glide},
                           relators=("g b g^-1 b",), hirsch_rank=2,
                           fitting_labels=("b",))


# ------------------------------------------------------------------
# split data and holonomy extraction

def test_hol_from_ambient_oracle():
    alg, _, _ = abelian2()
    t = RationalMatrix([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    assert hol_from_ambient(alg, t) == RationalMatrix([[1, 0], [0, -1]])
    with pytest.raises(ValueError):
        hol_from_ambient(alg, RationalMatrix([[1, 0, 0], [0, 1, 0], [1, 0, 1]]))


def test_hol_matrices_are_lie_automorphisms():
    # SplitHullData does not check it: conjugation by an invertible t that
    # maps every basis matrix into u is a bracket-preserving bijection of u
    for name in bundles.builtin_names():
        hull = bundles.load(name).hull
        assert all(is_lie_automorphism(hull.algebra, h) for h in hull.hol_matrices)
    rng = random.Random(3)
    for n in (3, 4, 5):
        alg = _upper_algebra(n)
        for _ in range(4):
            assert is_lie_automorphism(alg, _triangular_conjugation(alg, n, rng))


def test_split_hull_validation():
    alg, g1, g2 = abelian2()
    u = UnipotentGroupData(generators=(g1, g2), dim_ambient=3)
    with pytest.raises(ValueError):  # not semisimple
        SplitHullData(alg, u, t_generators=(RationalMatrix(
            [[1, 0, 1], [0, 1, 0], [0, 0, 1]]),))
    with pytest.raises(ValueError):  # wrong hol matrix
        SplitHullData(alg, u,
                      t_generators=(RationalMatrix([[1, 0, 0], [0, -1, 0],
                                                    [0, 0, 1]]),),
                      hol_matrices=(RationalMatrix.identity(2),))
    hull = klein_hull()
    assert hull.hol_matrices[0] == RationalMatrix([[1, 0], [0, -1]])
    # U's generators span u exactly when their coordinates' bracket closure does
    coords = [alg.coords_of_matrix(unip_log(g)) for g in hull.u_data.generators]
    assert len(bracket_closure(coords, alg.bracket_coords)) == alg.dim
    partial = SplitHullData(alg, UnipotentGroupData(generators=(g1,),
                                                    dim_ambient=3))
    coords = [alg.coords_of_matrix(unip_log(g)) for g in partial.u_data.generators]
    assert len(bracket_closure(coords, alg.bracket_coords)) == 1


def test_split_hull_json_round_trip():
    hull = klein_hull()
    obj = {"name": "klein", "hull": hull.to_json(),
           "gamma": klein_gamma(hull.algebra).to_json()}
    back = load_bundle(obj).hull
    assert back.algebra.dim == 2
    assert back.t_generators == hull.t_generators
    assert back.hol_matrices == hull.hol_matrices
    assert back.u_data.generators == hull.u_data.generators


def test_alpha_t_heisenberg():
    alg, x, y = heisenberg()
    t = RationalMatrix([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    hull = SplitHullData(alg, UnipotentGroupData(generators=(x, y),
                                                 dim_ambient=3),
                         t_generators=(t,))
    act = alpha_T(hull, x, t_word=((0, 1),))
    assert act.hol == RationalMatrix([[-1, 0, 0], [0, 1, 0], [0, 0, -1]])
    assert act.translation == x
    plain = alpha_T(hull, y)
    assert plain.hol == RationalMatrix.identity(3)
    squared = alpha_T(hull, x, t_word=((0, 2),))
    assert squared.hol == RationalMatrix.identity(3)


# ------------------------------------------------------------------
# conjugacy transport

def test_conjugacy_transport_intertwines():
    alg, x, y = heisenberg()
    phi = RationalMatrix([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    action = AffineElement(alg, exp_coords(alg, F(1, 2), 0, 0), phi)
    rng = random.Random(5)
    for _ in range(20):
        coords = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)]
        v = exp_coords(alg, *coords)
        moved = conjugacy_transport(v, action)
        lhs = action.as_polynomial_map().after(right_translation_map(alg, v))
        rhs = right_translation_map(alg, v).after(moved.as_polynomial_map())
        assert lhs == rhs


def test_conjugacy_transport_identity_v():
    alg, x, _ = heisenberg()
    phi = RationalMatrix([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    action = AffineElement(alg, x, phi)
    moved = conjugacy_transport(RationalMatrix.identity(3), action)
    assert moved == action


# ------------------------------------------------------------------
# strong unipotent radical

def finite_order_bound(n: int) -> int:
    """lcm of all d with euler_phi(d) <= n: any finite-order element of
    GL_n(Q) has order dividing this (its minimal polynomial is a product
    of cyclotomics of degree <= n)."""
    acc = 1
    for d in range(1, 2 * n * n + 2):
        if _euler_phi(d) <= n:
            acc = acc * d // gcd(acc, d)
    return acc


def power_order(a, bound):
    """The order as `matrix_order` found it before the cyclotomic test: a
    binomial screen of the characteristic coefficients, then A^bound = I,
    then each prime divided out of the bound while the power stays I. The
    oracle for `matrix_order`; A^bound is too slow past n = 8."""
    n = a.rows
    cp = char_poly(a)
    if any(abs(cp.coeffs[k]) > comb(n, n - k) for k in range(n + 1)):
        return None
    ident = RationalMatrix.identity(n)
    if a ** bound != ident:
        return None
    order, rest, p = bound, bound, 2
    while rest > 1:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            while order % p == 0 and a ** (order // p) == ident:
                order //= p
        p += 1 if p == 2 else 2
    return order


def _block_diag(blocks):
    n = sum(b.rows for b in blocks)
    rows, at = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b.data):
            rows[at + i][at:at + b.rows] = row
        at += b.rows
    return RationalMatrix(rows)


def _companion(coeffs):
    """Companion matrix of the monic polynomial with these low coefficients."""
    n = len(coeffs)
    return RationalMatrix([[int(i == j + 1) for j in range(n - 1)] + [-coeffs[i]]
                           for i in range(n)])


# Phi_d for the d with euler_phi(d) <= 4, low coefficients (the leading 1 left out)
CYCLOTOMIC = {1: [-1], 2: [1], 3: [1, 1], 4: [1, 0], 5: [1, 1, 1, 1], 6: [1, -1],
              8: [1, 0, 0, 0], 10: [1, -1, 1, -1], 12: [1, 0, -1, 0]}
ROTATION = RationalMatrix([[F(3, 5), F(-4, 5)], [F(4, 5), F(3, 5)]])  # infinite order


def _order_cases(rng):
    """Seeded matrices of size <= 8: finite orders conjugated off the
    companion form, and infinite orders of each kind `matrix_order` rejects."""
    for _ in range(20):
        ds, size = [], 0
        while True:
            d = rng.choice(sorted(CYCLOTOMIC))
            if size + len(CYCLOTOMIC[d]) > 6:
                break
            ds.append(d)
            size += len(CYCLOTOMIC[d])
        block = _block_diag([_companion(CYCLOTOMIC[d]) for d in ds])
        n = block.rows
        p = RationalMatrix([[rng.choice((0, 0, 1, F(1, 2), -2)) if j > i else int(i == j)
                             for j in range(n)] for i in range(n)])
        yield p * block * p.inverse()
        yield _block_diag([block, RationalMatrix([[1, 1], [0, 1]])])  # not semisimple
        yield _block_diag([block, ROTATION])                            # not integral
    yield _companion([1, -3])                                           # x^2 - 3x + 1
    yield _companion([-1, -1])                                          # x^2 - x - 1


def test_finite_order_bound_small():
    assert finite_order_bound(1) == 2
    assert finite_order_bound(2) == 12


def test_matrix_order():
    rot = RationalMatrix([[0, -1], [1, 0]])
    assert matrix_order(rot) == 4
    shear = RationalMatrix([[1, 1], [0, 1]])
    assert matrix_order(shear) is None
    hyper = RationalMatrix([[2, 1], [1, 1]])
    assert matrix_order(hyper) is None
    assert matrix_order(RationalMatrix.identity(3)) == 1


def test_matrix_order_matches_the_power_oracle():
    rng = random.Random("matrix-order")
    orders = []
    for a in _order_cases(rng):
        got = matrix_order(a)
        assert got == power_order(a, finite_order_bound(a.rows))
        orders.append(got)
    assert len({o for o in orders if o is not None}) >= 5 and orders.count(None) > 40


SRC_ENV = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).parents[1] / "src")}


def test_matrix_order_of_a_large_rotation_needs_no_large_power():
    """Six copies of an infinite-order rotation: the power route raised
    this to the 720720th power. In a child process, so a regression fails
    at the timeout instead of hanging the suite."""
    script = textwrap.dedent("""
        import time
        from fractions import Fraction as F
        from infrasolv.hull import SplitHullData, matrix_order, strong_radical_check
        from infrasolv.lie import UnipotentGroupData, lie_closure, nilp_exp
        from infrasolv.linalg import RationalMatrix
        n = 12
        c, s = F(3, 5), F(4, 5)
        t = [[0] * (n + 1) for _ in range(n + 1)]
        for k in range(0, n, 2):
            t[k][k], t[k][k + 1], t[k + 1][k], t[k + 1][k + 1] = c, -s, s, c
        t[n][n] = 1
        gens = [nilp_exp(RationalMatrix([[int((i, j) == (k, n)) for j in range(n + 1)]
                                         for i in range(n + 1)])) for k in range(n)]
        hull = SplitHullData(lie_closure(UnipotentGroupData(generators=tuple(gens),
                                                            dim_ambient=n + 1)),
                             UnipotentGroupData(generators=tuple(gens), dim_ambient=n + 1),
                             t_generators=(RationalMatrix(t),))
        start = time.perf_counter()
        order = matrix_order(hull.hol_matrices[0])
        res = strong_radical_check(hull)
        print(order, res.ok, res.exact, time.perf_counter() - start)
        """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=20, env=SRC_ENV)
    assert proc.returncode == 0, proc.stderr
    order, ok, exact, seconds = proc.stdout.split()
    assert (order, ok, exact) == ("None", "True", "True")
    assert float(seconds) < 1


def test_strong_radical_passes_for_klein():
    res = strong_radical_check(klein_hull())
    assert res.ok and res.exact


def test_strong_radical_catches_scalar_torus():
    alg, g1, g2 = abelian2()
    res = strong_radical_check(SplitHullData(
        alg, UnipotentGroupData(generators=(g1, g2), dim_ambient=3),
        t_generators=(2 * RationalMatrix.identity(3),)))
    assert not res.ok and res.exact
    assert res.witness == 2 * RationalMatrix.identity(3)


def test_strong_radical_catches_joint_collision():
    # two reflections with identical holonomy but different ambient parts
    alg, g1, g2 = abelian2()
    t1 = RationalMatrix([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    t2 = RationalMatrix([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    hull = SplitHullData(alg, UnipotentGroupData(generators=(g1, g2),
                                                 dim_ambient=3),
                         t_generators=(t1, t2))
    assert hull.hol_matrices[0] == hull.hol_matrices[1]
    res = strong_radical_check(hull)
    assert not res.ok and res.exact
    assert res.witness is not None
    # the witness really does act trivially without being trivial
    assert hol_from_ambient(alg, res.witness) == RationalMatrix.identity(2)
    assert res.witness != RationalMatrix.identity(3)


def test_strong_radical_single_infinite_generator_is_exact():
    alg, g1, g2 = abelian2()
    t = RationalMatrix([[2, 1, 0], [1, 1, 0], [0, 0, 1]])
    hull = SplitHullData(alg, UnipotentGroupData(generators=(g1, g2),
                                                 dim_ambient=3),
                         t_generators=(t,))
    res = strong_radical_check(hull)
    assert res.ok and res.exact


def test_strong_radical_two_infinite_generators_is_bounded():
    alg, g1, g2 = abelian2()
    t = RationalMatrix([[2, 1, 0], [1, 1, 0], [0, 0, 1]])
    hull = SplitHullData(alg, UnipotentGroupData(generators=(g1, g2),
                                                 dim_ambient=3),
                         t_generators=(t, t * t))
    res = strong_radical_check(hull)
    assert res.ok and not res.exact
    assert any("word radius" in d for d in res.diagnostics)


def test_strong_radical_finite_enumeration_cap_is_reported():
    # two commuting reflections: a holonomy group of order 4
    alg, g1, g2 = abelian2()
    t1 = RationalMatrix([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    t2 = RationalMatrix([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    hull = SplitHullData(alg, UnipotentGroupData(generators=(g1, g2),
                                                 dim_ambient=3),
                         t_generators=(t1, t2))
    full = strong_radical_check(hull)
    assert full.ok and full.exact and full.diagnostics == ()
    capped = strong_radical_check(hull, joint_cap=2)
    assert capped.ok and not capped.exact
    assert capped.diagnostics == ("holonomy group enumeration capped at 2",)


def test_strong_radical_collision_in_the_infinite_order_walk():
    # t and 2t act alike on u; the holonomy has infinite order
    alg, g1, g2 = abelian2()
    t = RationalMatrix([[2, 1, 0], [1, 1, 0], [0, 0, 1]])
    hull = SplitHullData(alg, UnipotentGroupData(generators=(g1, g2),
                                                 dim_ambient=3),
                         t_generators=(t, 2 * t))
    assert matrix_order(hull.hol_matrices[0]) is None
    res = strong_radical_check(hull)
    assert not res.ok and res.exact
    assert res.witness == 2 * RationalMatrix.identity(3)
    assert "share a holonomy" in res.reason


# ------------------------------------------------------------------
# hull axioms and fitting labels

def test_hull_axioms_pass_for_klein():
    hull = klein_hull()
    cert = hull_axiom_check(hull, klein_gamma(hull.algebra))
    assert cert.passed
    assert cert.density_label == "surrogate"
    obj = cert.to_json()
    assert obj["passed"] and obj["strong_radical_exact"]


def test_hull_axioms_fail_on_wrong_rank():
    hull = klein_hull()
    gamma = klein_gamma(hull.algebra)
    wrong = GammaActionData(hull.algebra, dict(gamma.generators),
                            relators=gamma.relators, hirsch_rank=3,
                            fitting_labels=gamma.fitting_labels)
    cert = hull_axiom_check(hull, wrong)
    assert not cert.passed and not cert.dim_rank_ok
    assert "dim_rank" in cert.diagnostics


def test_hull_axioms_fail_on_sparse_translations():
    hull = klein_hull()
    alg = hull.algebra
    b = AffineElement(alg, exp_coords(alg, 0, 1), RationalMatrix.identity(2))
    sparse = GammaActionData(alg, {"b": b}, hirsch_rank=2)
    cert = hull_axiom_check(hull, sparse)
    assert not cert.passed and not cert.density_surrogate_ok
    assert "density_translations" in cert.diagnostics


def _counted_everywhere(monkeypatch, func):
    """A list that grows by one for every call of func through any module
    of the package that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return func(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "infrasolv"
                and getattr(module, func.__name__, None) is func):
            monkeypatch.setattr(module, func.__name__, counted)
    return calls


def test_hull_axiom_check_takes_no_ambient_closure(monkeypatch):
    # density is a bracket closure of the translations' coordinates: no
    # translation matrix, no second matrix Lie closure
    loaded = [bundles.load(name) for name in bundles.builtin_names()]
    closures = _counted_everywhere(monkeypatch, lie_closure)
    exps = _counted_everywhere(monkeypatch, nilp_exp)
    for bundle in loaded:
        hull_axiom_check(bundle.hull, bundle.gamma)
    assert closures == [] and exps == []


def test_hull_axioms_fail_on_scalar_torus():
    alg, g1, g2 = abelian2()
    hull = SplitHullData(alg, UnipotentGroupData(generators=(g1, g2),
                                                 dim_ambient=3),
                         t_generators=(2 * RationalMatrix.identity(3),))
    x = AffineElement(alg, g1, RationalMatrix.identity(2))
    y = AffineElement(alg, g2, RationalMatrix.identity(2))
    gamma = GammaActionData(alg, {"x": x, "y": y}, hirsch_rank=2)
    cert = hull_axiom_check(hull, gamma)
    assert not cert.passed and not cert.strong_radical_ok
    assert cert.to_json()["strong_radical_witness"] is not None


def test_fitting_radical_check():
    hull = klein_hull()
    gamma = klein_gamma(hull.algebra)
    assert fitting_radical_check(gamma, hull) == FittingResult(ok=True)
    bad = GammaActionData(hull.algebra, dict(gamma.generators),
                          relators=gamma.relators, hirsch_rank=2,
                          fitting_labels=("b", "g"))
    res = fitting_radical_check(bad, hull)
    assert not res.ok and res.offender == "g"


# ------------------------------------------------------------------
# induced embeddings

def I(n):
    return RationalMatrix.identity(n)


def test_induce_infinite_dihedral():
    a = RationalMatrix([[1, 1], [0, 1]])
    c = RationalMatrix([[1, 0], [0, -1]])
    ext = CosetExtension(conjugators=(I(2), c), table=((0, 1), (1, 0)),
                         cocycles=((I(2), I(2)), (I(2), I(2))))
    emb = induce_extension((a,), ext)
    assert emb.gamma_images[0] == RationalMatrix(
        [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, -1], [0, 0, 0, 1]])
    assert emb.coset_images[1] == RationalMatrix(
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    assert emb.check_word_ball(3) == 39


def test_induce_klein_from_z2():
    x = RationalMatrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    y = RationalMatrix([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    g = RationalMatrix([[1, 0, F(1, 2)], [0, -1, 0], [0, 0, 1]])
    ext = CosetExtension(conjugators=(I(3), g), table=((0, 1), (1, 0)),
                         cocycles=((I(3), I(3)), (I(3), x)))
    emb = induce_extension((x, y), ext)
    assert emb.check_word_ball(3) == 155
    # psi(r)^2 = psi(x): the glide squares to the translation
    r = emb.coset_images[1]
    assert r * r == emb.gamma_images[0]
    # y conjugated across the glide inverts
    assert r * emb.gamma_images[1] * r.inverse() == emb.gamma_images[1].inverse()


def test_coset_extension_rejects_bad_tables():
    c = RationalMatrix([[1, 0], [0, -1]])
    with pytest.raises(InductionError):  # conjugator 0 not identity
        CosetExtension(conjugators=(c, c), table=((0, 1), (1, 0)),
                       cocycles=((I(2), I(2)), (I(2), I(2))))
    with pytest.raises(InductionError):  # row not a permutation
        CosetExtension(conjugators=(I(2), c), table=((0, 1), (1, 1)),
                       cocycles=((I(2), I(2)), (I(2), I(2))))
    with pytest.raises(InductionError):  # trivial row 0 violated
        CosetExtension(conjugators=(I(2), c), table=((1, 0), (0, 1)),
                       cocycles=((I(2), I(2)), (I(2), I(2))))


def test_coset_extension_rejects_bad_cocycle():
    x = RationalMatrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    y = RationalMatrix([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    g = RationalMatrix([[1, 0, F(1, 2)], [0, -1, 0], [0, 0, 1]])
    with pytest.raises(InductionError, match="associativity"):
        CosetExtension(conjugators=(I(3), g), table=((0, 1), (1, 0)),
                       cocycles=((I(3), I(3)), (I(3), y)))


def test_induction_rejects_incompatible_conjugators():
    # Heisenberg lattice; the cocycle says the representative squares to the
    # central z, but the conjugator squares to y, and those act differently
    x = RationalMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    y = RationalMatrix([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    z = RationalMatrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    half_y = RationalMatrix([[1, 0, 0], [0, 1, F(1, 2)], [0, 0, 1]])
    ext = CosetExtension(conjugators=(I(3), half_y), table=((0, 1), (1, 0)),
                         cocycles=((I(3), I(3)), (I(3), z)))
    with pytest.raises(InductionError, match="identity \\(1\\)"):
        induce_extension((x, y), ext)


def test_word_ball_detects_sabotaged_image():
    a = RationalMatrix([[1, 1], [0, 1]])
    c = RationalMatrix([[1, 0], [0, -1]])
    ext = CosetExtension(conjugators=(I(2), c), table=((0, 1), (1, 0)),
                         cocycles=((I(2), I(2)), (I(2), I(2))))
    emb = induce_extension((a,), ext)
    emb.gamma_images = (emb.embed_gamma(a * a),)
    with pytest.raises(InductionError):
        emb.check_word_ball(2)

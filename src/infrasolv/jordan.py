"""Exact additive and multiplicative Jordan decomposition over the rationals.

The semisimple part is produced by the Newton lift: with q the squarefree
part of the characteristic polynomial, gcd(q, q') = 1 in characteristic 0,
so q' is invertible mod q and the iteration x <- x - q(x) * inv(q')(x)
converges quadratically inside the nilpotent ideal. ceil(log2(dim)) + 1
steps always suffice; we stop as soon as q(x) = 0 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (RationalMatrix, char_poly, poly_ext_gcd, rank,
                     squarefree_part)


@dataclass(frozen=True)
class AdditiveJordan:
    semisimple: RationalMatrix
    nilpotent: RationalMatrix


@dataclass(frozen=True)
class MultiplicativeJordan:
    semisimple: RationalMatrix
    unipotent: RationalMatrix


def additive_jordan(m: RationalMatrix) -> AdditiveJordan:
    """m = s + n with s semisimple, n nilpotent, sn = ns, both in Q[m]."""
    if not m.is_square():
        raise ValueError("Jordan decomposition needs a square matrix")
    q = squarefree_part(char_poly(m))
    g, _, t = poly_ext_gcd(q, q.derivative())
    if g.degree() != 0:
        raise ArithmeticError("squarefree part not coprime to its derivative")
    # t * q' = 1 (mod q); use u = t mod q as the inverse of q'
    u = t % q
    x = m
    limit = max(m.rows, 1).bit_length() + 1
    for _ in range(limit + 1):
        qx = q.eval_matrix(x)
        if qx.is_zero():
            break
        x = x - qx * u.eval_matrix(x)
    else:
        raise ArithmeticError("Newton iteration failed to terminate")
    return AdditiveJordan(semisimple=x, nilpotent=m - x)


def multiplicative_jordan(g: RationalMatrix) -> MultiplicativeJordan:
    """g = g_s * g_u = g_u * g_s with g_s semisimple and g_u unipotent.

    Only defined for invertible g; g_s is the additive semisimple part and
    g_u = I + g_s^-1 n.
    """
    if not g.is_square():
        raise ValueError("Jordan decomposition needs a square matrix")
    if rank(g) < g.rows:
        raise ValueError("multiplicative Jordan decomposition needs an invertible matrix")
    add = additive_jordan(g)
    s = add.semisimple
    gu = (s.inverse() * add.nilpotent).shift(1)
    return MultiplicativeJordan(semisimple=s, unipotent=gu)


def is_semisimple(m: RationalMatrix) -> bool:
    """True iff the squarefree part of the characteristic polynomial kills m.

    The minimal polynomial has the same roots as the characteristic one, so
    it is squarefree exactly when it divides that squarefree part: the
    step-0 exit of `additive_jordan`'s Newton loop, with no solve.
    """
    return squarefree_part(char_poly(m)).eval_matrix(m).is_zero()


def is_unipotent(m: RationalMatrix) -> bool:
    """True iff (m - I)^dim = 0."""
    if not m.is_square():
        raise ValueError("unipotence is a property of square matrices")
    n = m.shift(-1)
    return (n ** m.rows).is_zero()

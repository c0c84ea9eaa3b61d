"""Reference routines that tests use as oracles.

No program path needs them, so they live with the tests rather than in
the package.
"""
from __future__ import annotations

from dataclasses import dataclass

from zclasskit.errors import ConsistencyError
from zclasskit.matfq import Mat, is_semisimple, is_unipotent, mat_order


@dataclass(frozen=True)
class JordanPair:
    """Commuting factorization g = g_s * g_u into semisimple and unipotent parts."""

    g_s: Mat
    g_u: Mat


def jordan_decomposition(g: Mat) -> JordanPair:
    """Split g by element order: the prime-to-p power is the semisimple part.

    With ord(g) = p^a * t, the exponent e = 0 mod p^a, 1 mod t gives
    g_s = g^e and g_u = g * g_s^-1; both are powers of g, so they commute
    with everything commuting with g.
    """
    if g.det() == 0:
        raise ValueError("singular matrices admit no multiplicative Jordan split")
    p = g.ctx.p
    order = mat_order(g)
    a = 0
    t = order
    while t % p == 0:
        t //= p
        a += 1
    if a == 0:
        gs, gu = g, Mat.identity(g.ctx, g.n)
    elif t == 1:
        gs, gu = Mat.identity(g.ctx, g.n), g
    else:
        pa = p**a
        e = pa * pow(pa, -1, t)
        gs = g**e
        gu = g ** (1 - e)
    if gs * gu != g or gu * gs != g:
        raise ConsistencyError("Jordan parts do not multiply back")
    if not is_semisimple(gs) or not is_unipotent(gu):
        raise ConsistencyError("Jordan parts fail their defining predicates")
    return JordanPair(gs, gu)

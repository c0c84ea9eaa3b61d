"""Reference routines that tests use as oracles.

No program path needs them, so they live with the tests rather than in
the package.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from zclasskit import grpcore
from zclasskit.errors import ConsistencyError
from zclasskit.ff import FieldCtx, FqElem, _as_code, _embed_code, make_field, mult_generator
from zclasskit.grpcore import (
    DIHEDRAL,
    GL,
    SL,
    FamilySpec,
    _additive_basis,
    _transvection,
    dihedral_generators,
)
from zclasskit.matfq import Mat, _apply, is_semisimple, is_unipotent, mat_order


def standard_generators(spec: FamilySpec, ctx: FieldCtx) -> list[Mat]:
    """A generating set of any built-in family, independent of the pair
    the engine walks GL_n/SL_n under: every elementary transvection over an
    additive basis of F_q, with diag(w, 1, ..., 1) for GL; the dihedral
    rotation and flip; the engine's own triangular generators."""
    n = spec.matrix_dim
    basis = _additive_basis(ctx)
    if spec.kind == DIHEDRAL:
        return list(dihedral_generators(spec.n, ctx))
    gens: list[Mat] = []
    if spec.kind in (GL, SL):
        for i in range(n):
            for j in range(n):
                if i != j:
                    gens.extend(_transvection(ctx, n, i, j, b) for b in basis)
        if spec.kind == GL and ctx.q > 2:
            g = mult_generator(ctx).code
            gens.append(Mat.diagonal(ctx, [g] + [1] * (n - 1)))
        return gens
    return grpcore.standard_generators(spec, ctx)


def closure_walk(start, gens, within=None) -> list[Mat]:
    """FIFO closure of the start elements under right multiplication by
    gens, the walk closure_generate made before it ran on key_orbits.

    Returns start followed by the new elements in discovery order. A
    product outside within (a set or dict of encodings) means the member
    set is not closed.
    """
    out = list(start)
    seen = {m.data for m in out}
    head = 0
    while head < len(out):
        cur = out[head]
        head += 1
        for g in gens:
            nxt = cur * g
            d = nxt.data
            if d in seen:
                continue
            if within is not None and d not in within:
                raise ConsistencyError("member set is not closed")
            seen.add(d)
            out.append(nxt)
    return out


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


def frobenius(ctx: FieldCtx, base_degree: int, x) -> FqElem:
    """x -> x^(p^base_degree), the Frobenius fixing the degree-r subfield."""
    if base_degree < 1 or ctx.m % base_degree:
        raise ValueError(f"base degree {base_degree} does not divide {ctx.m}")
    code = _as_code(ctx, x)
    return FqElem(ctx, ctx.pow(code, ctx.p**base_degree))


@lru_cache(maxsize=None)
def _subfield_decode_map(ext: FieldCtx, r: int) -> dict[int, int]:
    sub = make_field(ext.p, r, max_order=ext.q)
    return {_embed_code(sub, ext, c): c for c in range(sub.q)}


def norm(ext: FieldCtx, r: int, x) -> FqElem:
    """Relative norm F_{p^m} -> F_{p^r} for r | m: product of conjugates."""
    if r < 1 or ext.m % r:
        raise ValueError(f"degree {r} does not divide {ext.m}")
    code = _as_code(ext, x)
    sub = make_field(ext.p, r, max_order=ext.q)
    q_sub = ext.p**r
    acc = code
    t = code
    for _ in range(ext.m // r - 1):
        t = ext.pow(t, q_sub)
        acc = ext.mul(acc, t)
    decode = _subfield_decode_map(ext, r)
    if acc not in decode:
        raise ConsistencyError("norm value landed outside the subfield")
    return FqElem(sub, decode[acc])


@lru_cache(maxsize=None)
def _weil_basis_inverse(K: FieldCtx, r: int) -> tuple[FieldCtx, FieldCtx, Mat]:
    base = make_field(K.p, r, max_order=K.q)
    prime = make_field(K.p, 1)
    m = K.m
    n = m // r
    theta = K.p if n > 1 else 1
    theta_b = base.p if r > 1 else 1
    cols = []
    for j in range(n):
        tj = K.pow(theta, j) if n > 1 else 1
        for i in range(r):
            bi = base.pow(theta_b, i) if r > 1 else 1
            elt = K.mul(tj, _embed_code(base, K, bi))
            cols.append(K.coeffs(elt))
    M = Mat(prime, m, [cols[c][row] for row in range(m) for c in range(m)])
    return base, prime, M.inverse()


def weil_embed(K: FieldCtx, r: int, x) -> Mat:
    """Left-multiplication matrix of x on K over its degree-r subfield.

    The basis is the power basis of the canonical modulus root, with each
    coordinate an element of the subfield; the map is multiplicative and
    det(weil_embed(x)) is the relative norm of x.
    """
    if r < 1 or K.m % r:
        raise ValueError(f"base degree {r} does not divide {K.m}")
    code = _as_code(K, x)
    if code == 0:
        raise ValueError("only units embed into the matrix group")
    base, prime, Minv = _weil_basis_inverse(K, r)
    m = K.m
    n = m // r
    theta = K.p if n > 1 else 1
    data = [0] * (n * n)
    for j in range(n):
        y = K.mul(code, K.pow(theta, j)) if n > 1 else code
        digits = K.coeffs(y)
        coords = _apply(Minv, tuple(digits))
        for block in range(n):
            sub_code = base.encode(coords[block * r : (block + 1) * r])
            data[block * n + j] = sub_code
    return Mat(base, n, data)

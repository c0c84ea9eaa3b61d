"""Reference routines that tests use as oracles.

No program path needs them, so they live with the tests rather than in
the package.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from zclasskit import grpcore, limits
from zclasskit.errors import BoundExceeded, ConsistencyError
from zclasskit.ff import (
    FieldCtx,
    FqElem,
    _as_code,
    _embed_code,
    _factorize,
    _field,
    make_field,
    mult_generator,
    poly_add,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mod,
    poly_monic,
    poly_mul,
    poly_pow_mod,
    poly_sub,
    poly_trim,
)
from zclasskit.grpcore import (
    BOREL_GL,
    BOREL_SL,
    DIHEDRAL,
    GL,
    HEISENBERG,
    SL,
    UNIPOTENT,
    FamilySpec,
    GroupTable,
    Subgroup,
    _additive_basis,
    _transvection,
    conjugacy_classes,
    dihedral_generators,
    subgroup_from_members,
    whole_group,
)
from zclasskit.matfq import (
    Mat,
    RcfResult,
    _apply,
    _ech_insert,
    _gl_witness,
    centralizer_algebra,
    gl_conjugate_test,
    invariant_factors,
    is_semisimple,
    is_unipotent,
    kernel_basis,
    mat_embed,
    mat_order,
    poly_of_matrix,
    rref,
    sl_conjugate_test,
    span_step,
    span_walk,
    transporter_space,
)


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


def big_field(p: int, m: int) -> FieldCtx:
    """make_field(p, m) with the field bound raised to p^m for this call,
    as `--max-field p^m` would raise it for a command."""
    token = limits.INVOCATION.set({**limits.INVOCATION.get(), "ZK_MAX_FIELD": p**m})
    try:
        return make_field(p, m)
    finally:
        limits.INVOCATION.reset(token)


@lru_cache(maxsize=None)
def _subfield_decode_map(ext: FieldCtx, r: int) -> dict[int, int]:
    sub = big_field(ext.p, r)
    return {_embed_code(sub, ext, c): c for c in range(sub.q)}


def norm(ext: FieldCtx, r: int, x) -> FqElem:
    """Relative norm F_{p^m} -> F_{p^r} for r | m: product of conjugates."""
    if r < 1 or ext.m % r:
        raise ValueError(f"degree {r} does not divide {ext.m}")
    code = _as_code(ext, x)
    sub = big_field(ext.p, r)
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
    base = big_field(K.p, r)
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


def check_span_size(ctx: FieldCtx, dim: int) -> None:
    """Refuse, before any work, a span of dim vectors with more than
    SPAN_CAP elements: the check of a caller that lists every element."""
    total = ctx.q**dim
    if total > limits.SPAN_CAP:
        raise BoundExceeded(
            f"span of {dim} vectors over F_{ctx.name} has {total} elements, "
            f"above SPAN_CAP {limits.SPAN_CAP}"
        )


def span_vectors(ctx: FieldCtx, basis) -> list[tuple[int, ...]]:
    """Every linear combination of the basis vectors, listed at once in
    span_step's order; refused up front when there are more than SPAN_CAP."""
    check_span_size(ctx, len(basis))
    return list(span_walk(ctx, basis, len(basis[0]) if basis else 0))


def sl_witness_scan(A: Mat, B: Mat) -> Mat | None:
    """The unit scan sl_conjugate_test made before its determinant test:
    with equal invariant factors, the first determinant-1 element of the
    whole transporter space T(A, B), listed at once."""
    if A == B:
        return Mat.identity(A.ctx, A.n)
    if invariant_factors(A) != invariant_factors(B):
        return None
    return next((X for X in transporter_space(A, B).elements() if X.det() == 1), None)


def rcf_backtracking(A: Mat, facs=None) -> RcfResult:
    """Rational canonical form and a conjugating transform by the
    backtracking chain search matfq.rcf made before its greedy pick: the
    search recurses over the factors and would retry an earlier pick if a
    later factor found no fit.

    form is block-diagonal with companion blocks of the invariant factors
    in divisibility order; transform * A * transform^-1 = form. The
    module generators behind transform are chosen least-encoding-first
    (largest factor first), so the output is deterministic: each kernel
    of f(A) is walked lazily and ascending, and the chain search stops at
    its first fit. facs, when given, are A's invariant factors.
    """
    ctx, n = A.ctx, A.n
    if facs is None:
        facs = invariant_factors(A)
    data = [0] * (n * n)
    offset = 0
    for f in facs:
        B = Mat.companion(ctx, f)
        d = B.n
        for i in range(d):
            for j in range(d):
                data[(offset + i) * n + (offset + j)] = B.data[i * d + j]
        offset += d
    form = Mat(ctx, n, data)

    order = sorted(range(len(facs)), key=lambda i: len(facs[i]), reverse=True)
    kernels = {f: kernel_basis(ctx, poly_of_matrix(ctx, f, A).rows(), n) for f in set(facs)}

    def search(pos: int, ech, chains):
        if pos == len(order):
            return chains
        f = facs[order[pos]]
        deg = len(f) - 1
        for w in span_walk(ctx, kernels[f], n):
            if not any(w):
                continue
            trial = list(ech)
            chain = []
            v = w
            ok = True
            for _ in range(deg):
                chain.append(v)
                if not _ech_insert(ctx, trial, v):
                    ok = False
                    break
                v = _apply(A, v)
            if not ok:
                continue
            found = search(pos + 1, trial, chains + [(order[pos], chain)])
            if found is not None:
                return found
        return None

    chains = search(0, [], [])
    if chains is None:
        raise ConsistencyError("no module generators found for the rational form")
    columns: list[tuple[int, ...]] = []
    for _, chain in sorted(chains):
        columns.extend(chain)
    Y = Mat(ctx, n, [columns[j][i] for i in range(n) for j in range(n)])
    transform = Y.inverse()
    if transform * A * Y != form:
        raise ConsistencyError("rational-form transform failed verification")
    return RcfResult(form, transform)


def poly_divmod_by_ctx(ctx: FieldCtx, f: tuple[int, ...], g: tuple[int, ...]):
    """ff.poly_divmod through the context's arithmetic, one ctx.mul/ctx.sub
    call per coefficient: the route every field took before prime fields
    moved to plain integers."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    dg = len(g) - 1
    lead_inv = ctx.inv(g[-1])
    quo = [0] * max(len(f) - dg, 0)
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        factor = ctx.mul(c, lead_inv)
        quo[i - dg] = factor
        for j in range(dg + 1):
            rem[i - dg + j] = ctx.sub(rem[i - dg + j], ctx.mul(factor, g[j]))
    return poly_trim(tuple(quo)), poly_trim(tuple(rem))


def poly_gcd_by_ctx(ctx: FieldCtx, f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """ff.poly_gcd through the context's arithmetic; gcd(f, 0) = monic(f)."""
    while g:
        f, g = g, poly_divmod_by_ctx(ctx, f, g)[1]
    return poly_monic(ctx, f)


def mu_generator_by_scan(big: FieldCtx, n: int) -> int:
    """galh1._mu_generator before it skipped the prime field: x^((q-1)/n)
    for x = 2, 3, ... until one has exact order n."""
    cof = (big.q - 1) // n
    primes = _factorize(n)
    for x in range(2, big.q):
        z = big.pow(x, cof)
        if z == 0 or big.pow(z, n) != 1:
            continue
        if all(big.pow(z, n // pr) != 1 for pr in primes):
            return z
    raise ConsistencyError(f"no element of order {n} found in F_{big.name}")


def irreducible_by_pow_mod(prime_ctx: FieldCtx, f: tuple[int, ...]) -> bool:
    """The modulus search's test before it moved to the packed ring: monic f
    of degree m is irreducible iff gcd(f, x^(p^i) - x) = 1 for i <= m/2, each
    x^(p^i) mod f taken by poly_pow_mod over the prime field."""
    m = len(f) - 1
    p = prime_ctx.p
    t = (0, 1)  # x
    for _ in range(m // 2):
        t = poly_pow_mod(prime_ctx, t, p, f)
        g = poly_gcd(prime_ctx, f, poly_sub(prime_ctx, t, (0, 1)))
        if g != (1,):
            return False
    return True


def _scan(ctx: FieldCtx, f: tuple[int, ...]):
    return (a for a in range(ctx.q) if poly_eval(ctx, f, a) == 0)


def roots_by_scan(ctx: FieldCtx, f: tuple[int, ...]) -> list[int]:
    """ff.poly_roots before equal-degree splitting: f evaluated at every
    element of the field, the roots kept in ascending code order."""
    return list(_scan(ctx, f))


@lru_cache(maxsize=None)
def embedding_root_by_scan(src: FieldCtx, dst: FieldCtx) -> int:
    """ff._embedding_root before equal-degree splitting: the first root of
    src's modulus in dst by a scan, its Frobenius orbit, and the least root of
    the orbit that restricts to this oracle's embedding on every proper
    subfield of src."""
    if src.m == 1:
        return 0
    r = next(_scan(dst, src.modulus))
    roots = []
    for _ in range(src.m):
        roots.append(r)
        r = dst.pow(r, dst.p)
    if len(set(roots)) != src.m:
        raise ConsistencyError("Frobenius orbit of a root is too small")
    # the residue class theta of x in a subfield embeds as the subfield's root
    subfields = [_field(src.p, d) for d in range(2, src.m) if src.m % d == 0]
    constraints = [
        (poly_trim(src.coeffs(embedding_root_by_scan(sub, src))), embedding_root_by_scan(sub, dst))
        for sub in subfields
    ]
    for rho in sorted(roots):
        if all(poly_eval(dst, rep, rho) == expected for rep, expected in constraints):
            return rho
    raise ConsistencyError("no subfield-compatible embedding root")


def monic_irreducibles(ctx: FieldCtx, top: int) -> list[tuple[int, ...]]:
    """Every monic irreducible of degree 1..top, by trial division."""
    out: list[tuple[int, ...]] = []
    for d in range(1, top + 1):
        for low in itertools.product(range(ctx.q), repeat=d):
            f = low + (1,)
            if not any(2 * (len(g) - 1) <= d and not poly_mod(ctx, f, g) for g in out):
                out.append(f)
    return out


def brute_type(A: Mat) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The type of A from ranks: for each monic irreducible f, the number of
    parts of lambda_f that are >= k is (dim ker f(A)^k - dim ker f(A)^(k-1)) / deg f."""
    ctx, n = A.ctx, A.n
    out = []
    for f in monic_irreducibles(ctx, n):
        deg, fa = len(f) - 1, poly_of_matrix(ctx, f, A)
        power, nullity, at_least = Mat.identity(ctx, n), 0, []
        for _ in range(n // deg):
            power = power * fa
            grown = n - len(rref(ctx, power.rows())[1])
            if grown == nullity:
                break
            at_least.append((grown - nullity) // deg)
            nullity = grown
        if at_least:  # lambda_f is the conjugate of at_least
            lam = tuple(sum(1 for c in at_least if c > i) for i in range(at_least[0]))
            out.append((deg, lam))
    return tuple(sorted(out))


def pairwise_structural_z_equivalent(kind: str, g: Mat, h: Mat) -> Mat | None:
    """The structural route before either ambient answered by type (and in
    SL a determinant class), the oracle of structural_z_equivalent in GL
    and SL alike: for regular g, h, h's whole commutant solved as an
    n^2 x n^2 system and walked ascending, refused up front above SPAN_CAP,
    trying each element that shares g's invariant factors in turn."""
    if kind not in (GL, SL):
        raise ValueError(f"structural route supports gl/sl ambients, not {kind!r}")
    if g.ctx is not h.ctx or g.n != h.n:
        raise ValueError("elements live in different ambient groups")
    if kind == SL and (g.det() != 1 or h.det() != 1):
        raise ValueError("sl ambient needs determinant-1 elements")
    if g.is_scalar() or h.is_scalar():
        return Mat.identity(g.ctx, g.n) if g.is_scalar() and h.is_scalar() else None
    target = invariant_factors(g)
    alg_h = centralizer_algebra(h)
    if len(target) != 1 or alg_h.dim != h.n:
        raise ValueError("structural route supports scalar or regular elements only")
    check_span_size(h.ctx, alg_h.dim)
    tr, dt = g.trace(), g.det()
    for y in alg_h.walk():
        if y.trace() != tr or y.det() != dt or invariant_factors(y) != target:
            continue
        w = _gl_witness(y, g) if kind == GL else sl_conjugate_test(y, g)
        if w is not None:
            return w
    return None


def fusion_by_witness(family: FamilySpec, r: int, g: Mat, table: GroupTable) -> tuple[int, ...]:
    """The class reps of a GL or SL table fusing with g over F_{q^r}, by the
    route zclass.fusion_count took before it decided without witnesses:
    g and each class rep embedded, then gl_conjugate_test or
    sl_conjugate_test, keeping the reps with a witness."""
    ext = make_field(table.ctx.p, table.ctx.m * r)
    test = gl_conjugate_test if family.kind == GL else sl_conjugate_test
    g_up = mat_embed(g, ext)
    return tuple(c.rep_id for c in conjugacy_classes(table)
                 if test(g_up, mat_embed(table.mat_of(c.rep_id), ext)) is not None)


# ---------------------------------------------------------------------------
# invariant factors from the Smith normal form of xI - A over F_q[x]: the
# route matfq took before its Krylov chains over F_q


def _char_matrix(A: Mat) -> list[list[tuple[int, ...]]]:
    ctx, n = A.ctx, A.n
    P = []
    for i in range(n):
        row = []
        for j in range(n):
            c = ctx.neg(A.data[i * n + j])
            if i == j:
                row.append(poly_trim((c, 1)))
            else:
                row.append((c,) if c else ())
        P.append(row)
    return P


def _smith_diagonal(ctx: FieldCtx, P: list[list[tuple[int, ...]]], n: int):
    P = [row[:] for row in P]
    k = 0
    while k < n:
        piv = None
        best = None
        for i in range(k, n):
            for j in range(k, n):
                e = P[i][j]
                if e and (best is None or len(e) < best):
                    best = len(e)
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        P[k], P[i0] = P[i0], P[k]
        for row in P:
            row[k], row[j0] = row[j0], row[k]
        pivot = P[k][k]
        progress = True
        for i in range(k + 1, n):
            if P[i][k]:
                quo, rem = poly_divmod(ctx, P[i][k], pivot)
                P[i] = [poly_sub(ctx, P[i][c], poly_mul(ctx, quo, P[k][c])) for c in range(n)]
                if rem:
                    progress = False
        for j in range(k + 1, n):
            if P[k][j]:
                quo, rem = poly_divmod(ctx, P[k][j], pivot)
                for i in range(n):
                    P[i][j] = poly_sub(ctx, P[i][j], poly_mul(ctx, quo, P[i][k]))
                if rem:
                    progress = False
        if not progress:
            continue
        if any(P[i][k] for i in range(k + 1, n)) or any(P[k][j] for j in range(k + 1, n)):
            continue
        bad = None
        for i in range(k + 1, n):
            if any(P[i][j] and poly_mod(ctx, P[i][j], pivot) for j in range(k + 1, n)):
                bad = i
                break
        if bad is not None:
            P[k] = [poly_add(ctx, P[k][c], P[bad][c]) for c in range(n)]
            continue
        P[k][k] = poly_monic(ctx, pivot)
        k += 1
    return [P[i][i] for i in range(n)]


def _snf_diagonal(A: Mat) -> list[tuple[int, ...]]:
    diag = _smith_diagonal(A.ctx, _char_matrix(A), A.n)
    total = sum(len(d) - 1 for d in diag)
    if total != A.n or any(not d for d in diag):
        raise ConsistencyError("Smith diagonal degrees do not sum to n")
    for a, b in zip(diag, diag[1:]):
        if poly_mod(A.ctx, b, a):
            raise ConsistencyError("Smith diagonal is not divisibility-ordered")
    return diag


def smith_invariant_factors(A: Mat) -> tuple[tuple[int, ...], ...]:
    """Nonconstant invariant factors in divisibility order, read off the
    Smith diagonal of xI - A."""
    return tuple(d for d in _snf_diagonal(A) if len(d) >= 2)


# ---------------------------------------------------------------------------
# whole-table enumerators and the center scan: oracles of the ranked tables


def _build_rows(ctx: FieldCtx, n: int, det_one: bool) -> list[Mat]:
    """GL_n, or SL_n when det_one, by rank-respecting row enumeration.

    Each row runs over the vectors outside the span S of the rows before
    it, S grown one row at a time. For SL the last row is c*r0 + s with
    r0 the least vector outside S and s in S: det is linear in the last
    row and vanishes on S, so c = det(rows, r0)^-1.
    """
    q, add, mul = ctx.q, ctx.add, ctx.mul
    vecs = list(itertools.product(range(q), repeat=n))
    out: list[Mat] = []
    todo = [((), [(0,) * n])]  # (the first rows, concatenated; their span)
    while todo:
        prefix, span = todo.pop()
        inside = set(span)
        last = len(prefix) == n * (n - 1)
        if last and det_one:
            r0 = next(v for v in vecs if v not in inside)
            c = ctx.inv(Mat._trusted(ctx, n, prefix + r0).det())
            cr0 = [mul(c, x) for x in r0]
            out.extend(Mat._trusted(ctx, n, prefix + tuple(map(add, cr0, s))) for s in span)
            continue
        rows = [v for v in vecs if v not in inside]
        if last:
            out.extend(Mat._trusted(ctx, n, prefix + r) for r in rows)
            continue
        todo.extend((prefix + r, list(span_step(ctx, span, r))) for r in rows)
    return out


def _build_triangular(ctx: FieldCtx, n: int, kind: str) -> list[Mat]:
    q = ctx.q
    units = list(range(1, q))
    out = []
    if kind in (UNIPOTENT, HEISENBERG):
        diag_choices = [(1,)] * n
    elif kind == BOREL_GL:
        diag_choices = [tuple(units)] * n
    else:  # BOREL_SL: last diagonal entry fixed by the others
        diag_choices = [tuple(units)] * (n - 1)
    upper_positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for diag in itertools.product(*diag_choices):
        if kind == BOREL_SL:
            prod = 1
            for d in diag:
                prod = ctx.mul(prod, d)
            diag = diag + (ctx.inv(prod),)
        for uppers in itertools.product(range(q), repeat=len(upper_positions)):
            data = [0] * (n * n)
            for i in range(n):
                data[i * n + i] = diag[i]
            for (i, j), v in zip(upper_positions, uppers):
                data[i * n + j] = v
            out.append(Mat(ctx, n, data))
    return out


def family_elements(spec: FamilySpec, ctx: FieldCtx) -> list[Mat]:
    """Every element of a GL, SL, Borel, unitriangular or Heisenberg
    family, enumerated and sorted by encoding, so that each element's
    position is its id in the ranked table."""
    if spec.kind in (GL, SL):
        elements = _build_rows(ctx, spec.n, det_one=spec.kind == SL)
    else:
        elements = _build_triangular(ctx, spec.n, spec.kind)
    elements.sort(key=lambda m: m.data)
    return elements


def center_scan(table: GroupTable) -> Subgroup:
    """Z(G) by scanning every element against every certified generator,
    the route grpcore.center keeps for explicit-list tables."""
    table._certify_generators()
    members = [m for m in table.elements if all(m * g == g * m for g in table.gens)]
    if len(members) == table.order:
        return whole_group(table)
    return subgroup_from_members(table, members)

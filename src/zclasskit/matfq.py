"""Matrix algebra over a FieldCtx.

Matrices are immutable: a context, a dimension n, and a flat row-major
tuple of n*n element codes. The data tuple doubles as the canonical
encoding, so tuple comparison of .data is the canonical matrix order.

Linear algebra runs through one rref: inverses above 3x3 reduce [A | I],
kernels and solves reduce their systems (only the rational form's greedy
chain pick keeps an incremental echelon). Determinants above 3x3 use forward
elimination alone, smaller ones closed forms. Spans grow one vector at a
time through span_step, which fixes their one order; kernel bases are in
reduced row echelon form, so every kernel and transporter space walks in
ascending order and the least element with a property is the first hit.
Searches walk spans lazily with span_walk. A first-hit search whose hit
is known to exist (the rational form's chains, the SL witness once the
determinant test has passed, the structural witness of a same-type pair)
stops at SPAN_CAP elements tried; TransporterSpace.elements, which lists
every element, is refused up front by check_span_size above SPAN_CAP.

Canonical-form machinery (charpoly, minpoly, invariant factors, rational
form) runs through one Smith-normal-form routine over F_q[x]. The
rational form keeps, for each factor, the first kernel vector whose
chain extends the chains before it, and never revisits that pick: a
cyclic submodule of largest order is a direct summand. An
element's type (the degree and exponent partition of each irreducible
factor) comes from the invariant factors without factoring them, and
gives the closed-form centralizer order. Conjugacy tests build on the
rational form: GL-conjugacy compares invariant factors, and SL-conjugacy
adds a determinant test on the rational-form witness, then takes the
first determinant-1 unit of the transporter space. Deterministic rule
throughout: when a choice is free, the object with the least canonical
encoding wins.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

from . import limits
from .errors import BoundExceeded, ConsistencyError
from .ff import (
    FieldCtx,
    FqElem,
    _as_code,
    _embed_code,
    poly_add,
    poly_deriv,
    poly_divmod,
    poly_gcd,
    poly_is_squarefree,
    poly_mod,
    poly_monic,
    poly_mul,
    poly_pow_mod,
    poly_sub,
    poly_trim,
)


class Mat:
    """Immutable n x n matrix over a field context; entries are codes."""

    __slots__ = ("ctx", "n", "data", "_hash")

    def __init__(self, ctx: FieldCtx, n: int, data):
        self.ctx = ctx
        self.n = n
        tup = tuple(_as_code(ctx, v) for v in data)
        if len(tup) != n * n:
            raise ValueError(f"need {n * n} entries, got {len(tup)}")
        self.data = tup
        self._hash = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def _trusted(cls, ctx: FieldCtx, n: int, data: tuple[int, ...]) -> "Mat":
        """Wrap n*n codes already valid in ctx, skipping the per-entry check."""
        m = cls.__new__(cls)
        m.ctx, m.n, m.data, m._hash = ctx, n, data, None
        return m

    @classmethod
    def from_rows(cls, ctx: FieldCtx, rows) -> "Mat":
        rows = [list(r) for r in rows]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("rows must form a square matrix")
        return cls(ctx, n, [v for row in rows for v in row])

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "Mat":
        return cls(ctx, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, ctx: FieldCtx, n: int) -> "Mat":
        return cls(ctx, n, [0] * (n * n))

    @classmethod
    def diagonal(cls, ctx: FieldCtx, entries) -> "Mat":
        ents = [_as_code(ctx, v) for v in entries]
        n = len(ents)
        return cls(ctx, n, [ents[i] if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def scalar(cls, ctx: FieldCtx, n: int, value) -> "Mat":
        return cls.diagonal(ctx, [value] * n)

    @classmethod
    def companion(cls, ctx: FieldCtx, f: tuple[int, ...]) -> "Mat":
        """Companion of monic f: 1s on the subdiagonal, -coeffs in the last column."""
        if len(f) < 2 or f[-1] != 1:
            raise ValueError("companion needs a monic polynomial of degree >= 1")
        d = len(f) - 1
        data = [0] * (d * d)
        for i in range(1, d):
            data[i * d + (i - 1)] = 1
        for i in range(d):
            data[i * d + (d - 1)] = ctx.neg(f[i])
        return cls(ctx, d, data)

    # -- basic protocol ------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and other.ctx is self.ctx
            and other.n == self.n
            and other.data == self.data
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.ctx.q, self.n, self.data))
            self._hash = h
        return h

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.data[i * self.n + j]

    def entry(self, i: int, j: int) -> FqElem:
        return FqElem(self.ctx, self.data[i * self.n + j])

    def rows(self) -> tuple[tuple[int, ...], ...]:
        n = self.n
        return tuple(self.data[i * n : (i + 1) * n] for i in range(n))

    def __repr__(self) -> str:
        return f"Mat({self.ctx.name}, {mat_literal(self)})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Mat") -> "Mat":
        self._compat(other)
        ctx = self.ctx
        return Mat(ctx, self.n, [ctx.add(a, b) for a, b in zip(self.data, other.data)])

    def __sub__(self, other: "Mat") -> "Mat":
        self._compat(other)
        ctx = self.ctx
        return Mat(ctx, self.n, [ctx.sub(a, b) for a, b in zip(self.data, other.data)])

    def __neg__(self) -> "Mat":
        ctx = self.ctx
        return Mat(ctx, self.n, [ctx.neg(a) for a in self.data])

    def __mul__(self, other: "Mat") -> "Mat":
        self._compat(other)
        ctx = self.ctx
        n = self.n
        a = self.data
        b = other.data
        mt = ctx._mul_tab
        out = [0] * (n * n)
        if mt is not None:
            at = ctx._add_tab
            q = ctx.q
            for i in range(n):
                ro = i * n
                for j in range(n):
                    acc = 0
                    for l in range(n):
                        acc = at[acc * q + mt[a[ro + l] * q + b[l * n + j]]]
                    out[ro + j] = acc
        else:
            add, mul = ctx.add, ctx.mul
            for i in range(n):
                ro = i * n
                for j in range(n):
                    acc = 0
                    for l in range(n):
                        acc = add(acc, mul(a[ro + l], b[l * n + j]))
                    out[ro + j] = acc
        return Mat._trusted(ctx, n, tuple(out))

    def scale(self, value) -> "Mat":
        c = _as_code(self.ctx, value)
        ctx = self.ctx
        return Mat(ctx, self.n, [ctx.mul(c, a) for a in self.data])

    def __pow__(self, e: int) -> "Mat":
        base = self
        if e < 0:
            base = self.inverse()
            e = -e
        result = Mat.identity(self.ctx, self.n)
        while e > 0:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def _compat(self, other: "Mat") -> None:
        if not isinstance(other, Mat):
            raise TypeError(f"expected Mat, got {type(other).__name__}")
        if other.ctx is not self.ctx or other.n != self.n:
            raise ValueError("matrix shapes or field contexts differ")

    # -- determinant and inverse ---------------------------------------------

    def det(self) -> int:
        ctx, n, a = self.ctx, self.n, self.data
        if n == 1:
            return a[0]
        if n == 2:
            return ctx.sub(ctx.mul(a[0], a[3]), ctx.mul(a[1], a[2]))
        if n == 3:
            m0 = ctx.sub(ctx.mul(a[4], a[8]), ctx.mul(a[5], a[7]))
            m1 = ctx.sub(ctx.mul(a[3], a[8]), ctx.mul(a[5], a[6]))
            m2 = ctx.sub(ctx.mul(a[3], a[7]), ctx.mul(a[4], a[6]))
            t = ctx.sub(ctx.mul(a[0], m0), ctx.mul(a[1], m1))
            return ctx.add(t, ctx.mul(a[2], m2))
        # forward elimination on A alone: det is the signed product of pivots
        mul, sub = ctx.mul, ctx.sub
        rows = [list(r) for r in self.rows()]
        det = 1
        for c in range(n):
            piv = next((i for i in range(c, n) if rows[i][c]), None)
            if piv is None:
                return 0
            if piv != c:
                rows[c], rows[piv] = rows[piv], rows[c]
                det = ctx.neg(det)
            top = rows[c]
            det = mul(det, top[c])
            inv = ctx.inv(top[c])
            for row in rows[c + 1 :]:
                if row[c]:
                    f = mul(inv, row[c])
                    for k in range(c + 1, n):
                        row[k] = sub(row[k], mul(f, top[k]))
        return det

    def det_inv(self) -> tuple[int, "Mat | None"]:
        """Determinant and inverse; inverse is None exactly when singular."""
        ctx, n, a = self.ctx, self.n, self.data
        if n <= 3:
            d = self.det()
            if d == 0:
                return 0, None
            dinv = ctx.inv(d)
            if n == 1:
                return d, Mat(ctx, 1, [dinv])
            if n == 2:
                adj = [a[3], ctx.neg(a[1]), ctx.neg(a[2]), a[0]]
            else:
                adj = [0] * 9
                idx = [(1, 2), (0, 2), (0, 1)]
                for i in range(3):
                    for j in range(3):
                        r0, r1 = idx[j]
                        c0, c1 = idx[i]
                        minor = ctx.sub(
                            ctx.mul(a[r0 * 3 + c0], a[r1 * 3 + c1]),
                            ctx.mul(a[r0 * 3 + c1], a[r1 * 3 + c0]),
                        )
                        adj[i * 3 + j] = minor if (i + j) % 2 == 0 else ctx.neg(minor)
            return d, Mat(ctx, n, [ctx.mul(dinv, v) for v in adj])
        d = self.det()
        if d == 0:
            return 0, None
        aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(self.rows())]
        red, _ = rref(ctx, aug)
        return d, Mat._trusted(ctx, n, tuple(v for row in red for v in row[n:]))

    def inverse(self) -> "Mat":
        d, inv = self.det_inv()
        if inv is None:
            raise ZeroDivisionError("matrix is singular")
        return inv

    def trace(self) -> int:
        ctx = self.ctx
        acc = 0
        for i in range(self.n):
            acc = ctx.add(acc, self.data[i * self.n + i])
        return acc

    def is_scalar(self) -> bool:
        n = self.n
        c = self.data[0]
        return all(
            self.data[i * n + j] == (c if i == j else 0) for i in range(n) for j in range(n)
        )

    def map_entries(self, fn: Callable[[int], int]) -> "Mat":
        return Mat(self.ctx, self.n, [fn(v) for v in self.data])


def mat_literal(A: Mat) -> str:
    """Bracket literal with code entries: '[1,1;0,1]'."""
    return "[" + ";".join(",".join(str(v) for v in row) for row in A.rows()) + "]"


def mat_parse(ctx: FieldCtx, text: str) -> Mat:
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    rows = [[int(v) for v in part.split(",")] for part in body.split(";") if part.strip()]
    return Mat.from_rows(ctx, rows)


def mat_frobenius(A: Mat, base_degree: int) -> Mat:
    """Entrywise x -> x^(p^r)."""
    ctx = A.ctx
    if base_degree < 1 or ctx.m % base_degree:
        raise ValueError(f"base degree {base_degree} does not divide {ctx.m}")
    e = ctx.p**base_degree
    return A.map_entries(lambda v: ctx.pow(v, e) if v else 0)


def mat_embed(A: Mat, dst: FieldCtx) -> Mat:
    """Entrywise canonical embedding into an extension context."""
    src = A.ctx
    if src.p != dst.p or dst.m % src.m:
        raise ValueError(f"F_{src.name} is not a subfield of F_{dst.name}")
    return Mat(dst, A.n, [_embed_code(src, dst, v) for v in A.data])


def mat_order(A: Mat) -> int:
    """Multiplicative order, at most q^n - 1 (a Singer cycle's); raises on
    singular input."""
    if A.det() == 0:
        raise ValueError("singular matrix has no multiplicative order")
    acc = A
    k = 1
    ident, top = Mat.identity(A.ctx, A.n), A.ctx.q**A.n - 1
    while acc != ident:
        acc = acc * A
        k += 1
        if k > top:
            raise ConsistencyError("runaway order computation")
    return k


# ---------------------------------------------------------------------------
# linear algebra over F_q on plain code rows


def rref(ctx: FieldCtx, rows) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form and pivot column indices."""
    mul, sub = ctx.mul, ctx.sub
    rows = [list(r) for r in rows]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ctx.inv(rows[r][c])
        top = rows[r] = [mul(inv, v) for v in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = [sub(x, mul(f, y)) for x, y in zip(row, top)]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return rows, pivots


def kernel_basis(ctx: FieldCtx, rows, ncols: int) -> list[tuple[int, ...]]:
    """Canonical kernel basis in reduced row echelon form: span_walk walks
    its span ascending, each coefficient being the entry at a pivot column."""
    red, pivots = rref(ctx, rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = ctx.neg(red[r][free])
        basis.append(vec)
    return [tuple(v) for v in rref(ctx, basis)[0]]


def span_step(ctx: FieldCtx, span, vec) -> Iterator[tuple[int, ...]]:
    """The span grown by vec, walked lazily as s + c*vec for s in span, then
    c in F_q: the one listing order of every span."""
    add, mul = ctx.add, ctx.mul
    mults = [tuple([mul(c, x) for x in vec]) for c in ctx.elements()]
    return (tuple(map(add, s, t)) for s in span for t in mults)


def span_walk(ctx: FieldCtx, basis, width: int) -> Iterator[tuple[int, ...]]:
    """Every linear combination of the basis vectors (each of length width),
    lazily in span_step's order, so a reduced echelon basis walks ascending.

    The walk counts what it yields: a caller still asking after SPAN_CAP
    elements gets BoundExceeded naming SPAN_CAP, whatever the span's size.
    """
    walk = iter([(0,) * width])
    for b in basis:
        walk = span_step(ctx, walk, b)
    cap, total = limits.SPAN_CAP, ctx.q ** len(basis)
    if total <= cap:
        return walk
    message = (
        f"span of {len(basis)} vectors over F_{ctx.name} has {total} elements; "
        f"the walk stopped after SPAN_CAP {cap}"
    )
    return _capped_walk(walk, cap, message)


def _capped_walk(walk, cap: int, message: str):
    yield from itertools.islice(walk, cap)
    raise BoundExceeded(message)


def check_span_size(ctx: FieldCtx, dim: int) -> None:
    """Refuse, before any work, a span of dim vectors with more than
    SPAN_CAP elements: the check of a caller that lists every element."""
    total = ctx.q**dim
    if total > limits.SPAN_CAP:
        raise BoundExceeded(
            f"span of {dim} vectors over F_{ctx.name} has {total} elements, "
            f"above SPAN_CAP {limits.SPAN_CAP}"
        )


# ---------------------------------------------------------------------------
# canonical forms via Smith normal form over F_q[x]


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


def charpoly(A: Mat) -> tuple[int, ...]:
    """Monic characteristic polynomial, constant term first."""
    ctx = A.ctx
    out = (1,)
    for d in _snf_diagonal(A):
        out = poly_mul(ctx, out, d)
    return out


def minpoly(A: Mat) -> tuple[int, ...]:
    """Monic minimal polynomial (the largest invariant factor)."""
    return _snf_diagonal(A)[-1]


def invariant_factors(A: Mat) -> tuple[tuple[int, ...], ...]:
    """Nonconstant invariant factors in divisibility order (last = minpoly)."""
    return tuple(d for d in _snf_diagonal(A) if len(d) >= 2)


def poly_of_matrix(ctx: FieldCtx, f: tuple[int, ...], A: Mat) -> Mat:
    acc = Mat.zero(ctx, A.n)
    for c in reversed(f):
        acc = acc * A + Mat.scalar(ctx, A.n, c)
    return acc


def is_semisimple(g: Mat) -> bool:
    """Diagonalizable over the algebraic closure: squarefree minimal polynomial."""
    return poly_is_squarefree(g.ctx, minpoly(g))


def is_unipotent(g: Mat) -> bool:
    """All eigenvalues 1: (g - I)^n vanishes."""
    d = g - Mat.identity(g.ctx, g.n)
    return (d**g.n) == Mat.zero(g.ctx, g.n)


# ---------------------------------------------------------------------------
# element types


def _squarefree_parts(ctx: FieldCtx, f: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
    """{i: s_i} with monic f = prod s_i^i, each s_i squarefree, nonconstant
    and coprime to the others. F_q is perfect, so where the derivative
    vanishes f is a p-th power and its p-th root is decomposed instead."""
    p = ctx.p
    parts: dict[int, tuple[int, ...]] = {}
    c = f
    d = poly_deriv(ctx, f)
    if d:
        c = poly_gcd(ctx, f, d)
        w = poly_divmod(ctx, f, c)[0]
        i = 1
        while len(w) > 1:  # w: the factors of multiplicity >= i, prime to p
            y = poly_gcd(ctx, w, c)
            s = poly_divmod(ctx, w, y)[0]
            if len(s) > 1:
                parts[i] = s
            w, c, i = y, poly_divmod(ctx, c, y)[0], i + 1
    if len(c) > 1:  # c now holds the factors whose multiplicity p divides
        root = tuple(ctx.pow(a, ctx.q // p) for a in c[::p])
        parts.update((i * p, s) for i, s in _squarefree_parts(ctx, root).items())
    return parts


def _degree_counts(ctx: FieldCtx, h: tuple[int, ...]) -> dict[int, int]:
    """{d: how many irreducible factors of degree d} of a squarefree monic h,
    by distinct-degree splitting: gcd(h, x^(q^d) - x) holds those of degree d."""
    x = (0, 1)
    xq, d, out = x, 0, {}
    while len(h) - 1 >= 2 * (d + 1):
        d += 1
        xq = poly_pow_mod(ctx, xq, ctx.q, h)
        g = poly_gcd(ctx, h, poly_sub(ctx, xq, x))
        if len(g) > 1:
            out[d] = (len(g) - 1) // d
            h = poly_divmod(ctx, h, g)[0]
            xq = poly_mod(ctx, xq, h)
    if len(h) > 1:  # what is left is one irreducible
        out[len(h) - 1] = out.get(len(h) - 1, 0) + 1
    return out


def factors_type(ctx: FieldCtx, facs) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The type of an element with invariant factors facs: one
    (deg f, lambda_f) per irreducible factor f of its characteristic
    polynomial, sorted, where lambda_f lists f's exponents in the invariant
    factors, largest first.

    Nothing is factored into irreducibles: the squarefree parts of each
    invariant factor, refined by gcds along the chain, group the factors
    that share an exponent vector, and distinct-degree splitting counts
    each group's factors by degree.
    """
    chain = [_squarefree_parts(ctx, d) for d in facs]
    radical = (1,)
    for s in chain[-1].values():
        radical = poly_mul(ctx, radical, s)
    pieces = [(radical, ())]  # (product of the factors, their exponent vector)
    for parts in chain:
        refined = []
        for h, vec in pieces:
            for i, s in parts.items():
                g = poly_gcd(ctx, h, s)
                if len(g) > 1:
                    refined.append((g, vec + (i,)))
                    h = poly_divmod(ctx, h, g)[0]
            if len(h) > 1:
                refined.append((h, vec + (0,)))
        pieces = refined
    out = []
    for h, vec in pieces:
        lam = tuple(sorted((e for e in vec if e), reverse=True))
        for deg, count in _degree_counts(ctx, h).items():
            out.extend([(deg, lam)] * count)
    return tuple(sorted(out))


def type_exponent(typ) -> int:
    """The gcd e of every part of every lambda_f: det maps C_GL(g) onto the
    e-th powers of F_q^* (finite-field norms are onto)."""
    return math.gcd(*(part for _, lam in typ for part in lam))


def det_class(typ, X: Mat) -> int:
    """det(X) modulo det(N_GL(F_q[g])) for g regular of type typ, as
    det(X)^((q-1)/gcd(D, q-1)): D = gcd of a (odd) or a/2 (even) over the
    exponents a of typ, since units give the a-th powers, scaling the
    radical the a(a-1)/2-th, and Galois twists and factor swaps only signs
    that are D-th powers or have determinant 1."""
    q = X.ctx.q
    D = math.gcd(*(a if a % 2 else a // 2 for _, (a,) in typ))
    return X.ctx.pow(X.det(), (q - 1) // math.gcd(D, q - 1))


def centralizer_order(typ, q: int, special: bool = False) -> int:
    """|C_GL(g)| from g's type over F_q, or |C_SL(g)| when special (Green):
    prod_f Q^(sum lambda'_i^2) prod_i prod_(k <= m_i) (1 - Q^-k), Q = q^deg f,
    with m_i the multiplicity of the part i in lambda_f; C_SL is the kernel
    of det on C_GL, whose image has (q - 1)/gcd(e, q - 1) elements."""
    order = 1
    for deg, lam in typ:
        Q = q**deg
        conj = [sum(1 for part in lam if part > i) for i in range(lam[0])]
        mults = [lam.count(part) for part in set(lam)]
        order *= Q ** (sum(c * c for c in conj) - sum(m * (m + 1) // 2 for m in mults))
        order *= math.prod(Q**k - 1 for m in mults for k in range(1, m + 1))
    if special:
        order = order * math.gcd(type_exponent(typ), q - 1) // (q - 1)
    return order


# ---------------------------------------------------------------------------
# rational canonical form and conjugacy


class RcfResult(NamedTuple):
    form: Mat
    transform: Mat


def _ech_insert(ctx: FieldCtx, ech: list[tuple[int, list[int]]], vec) -> bool:
    """Reduce vec against the echelon rows in place; True if rank grew."""
    v = list(vec)
    for pcol, row in ech:
        c = v[pcol]
        if c:
            v = [ctx.sub(v[k], ctx.mul(c, row[k])) for k in range(len(v))]
    pcol = next((k for k, c in enumerate(v) if c), None)
    if pcol is None:
        return False
    inv = ctx.inv(v[pcol])
    ech.append((pcol, [ctx.mul(inv, c) for c in v]))
    return True


def _apply(A: Mat, vec: tuple[int, ...]) -> tuple[int, ...]:
    ctx, n = A.ctx, A.n
    out = []
    for i in range(n):
        acc = 0
        ro = i * n
        for j in range(n):
            acc = ctx.add(acc, ctx.mul(A.data[ro + j], vec[j]))
        out.append(acc)
    return tuple(out)


def rcf(A: Mat, facs=None) -> RcfResult:
    """Rational canonical form and a conjugating transform.

    form is block-diagonal with companion blocks of the invariant factors
    in divisibility order; transform * A * transform^-1 = form. The
    module generators behind transform are chosen least-encoding-first
    (largest factor first), so the output is deterministic: each kernel
    of f(A) is walked lazily and ascending, and the first vector whose
    chain w, Aw, ..., A^(deg f - 1) w extends the echelon of the chains
    so far is kept. No later factor can fail on that choice: the chains
    so far span a direct summand M whose complement C has the remaining
    factors, the new chain is independent of M, so the projection of its
    cyclic module into C is cyclic of C's largest order, and a cyclic
    submodule of largest order is a direct summand. facs, when given,
    are A's invariant factors.
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

    kernels = {f: kernel_basis(ctx, poly_of_matrix(ctx, f, A).rows(), n) for f in set(facs)}

    def chain_of(ech, w, deg: int):
        """(ech grown by the chain w, Aw, ..., A^(deg-1) w, the chain), or
        None when the chain is not independent of ech."""
        grown, chain = list(ech), []
        for _ in range(deg):
            if not _ech_insert(ctx, grown, w):
                return None
            chain.append(w)
            w = _apply(A, w)
        return grown, chain

    ech: list = []
    chains: list = [None] * len(facs)
    for i in sorted(range(len(facs)), key=lambda i: len(facs[i]), reverse=True):
        f = facs[i]
        fits = (chain_of(ech, w, len(f) - 1) for w in span_walk(ctx, kernels[f], n))
        fit = next(filter(None, fits), None)
        if fit is None:
            raise ConsistencyError("no module generators found for the rational form")
        ech, chains[i] = fit
    columns = [v for chain in chains for v in chain]
    Y = Mat(ctx, n, [columns[j][i] for i in range(n) for j in range(n)])
    transform = Y.inverse()
    if transform * A * Y != form:
        raise ConsistencyError("rational-form transform failed verification")
    return RcfResult(form, transform)


def gl_conjugate_test(A: Mat, B: Mat) -> Mat | None:
    """Invertible X with X B X^-1 = A, or None; decided by rational forms."""
    A._compat(B)
    if A == B:
        return Mat.identity(A.ctx, A.n)
    facs = invariant_factors(A)
    return _gl_witness(A, B, facs) if invariant_factors(B) == facs else None


def _gl_witness(A: Mat, B: Mat, facs) -> Mat:
    """The rational-form witness X with X B X^-1 = A, for A and B that
    share the invariant factors facs."""
    X = rcf(A, facs).transform.inverse() * rcf(B, facs).transform
    if X * B != A * X:
        raise ConsistencyError("conjugacy witness failed verification")
    return X


@dataclass(frozen=True)
class TransporterSpace:
    """Basis of {X : X B = A X}; the centralizer algebra when A = B."""

    ctx: FieldCtx
    n: int
    basis: tuple[Mat, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def walk(self) -> Iterator[Mat]:
        """Every element, lazily and ascending (the basis is in reduced
        echelon form); bounded as span_walk is, by SPAN_CAP elements tried."""
        ctx, n = self.ctx, self.n
        vecs = span_walk(ctx, [m.data for m in self.basis], n * n)
        return (Mat._trusted(ctx, n, v) for v in vecs)

    def elements(self) -> list[Mat]:
        """Every element, ascending, listed at once; refused up front when
        there are more than SPAN_CAP."""
        check_span_size(self.ctx, self.dim)
        return list(self.walk())

    def units(self, det: int | None = None) -> Iterator[Mat]:
        """The invertible elements, lazily and ascending; only those of
        determinant det when det is given."""
        for X in self.walk():
            d = X.det()
            if d and (det is None or d == det):
                yield X


def transporter_space(A: Mat, B: Mat) -> TransporterSpace:
    """Solve the intertwining system X B = A X entrywise."""
    A._compat(B)
    ctx, n = A.ctx, A.n
    rows = []
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            for l in range(n):
                row[i * n + l] = ctx.add(row[i * n + l], B.data[l * n + j])
            for k in range(n):
                row[k * n + j] = ctx.sub(row[k * n + j], A.data[i * n + k])
            rows.append(row)
    basis = kernel_basis(ctx, rows, n * n)
    return TransporterSpace(ctx, n, tuple(Mat._trusted(ctx, n, v) for v in basis))


def centralizer_algebra(A: Mat) -> TransporterSpace:
    return transporter_space(A, A)


def polynomial_algebra(A: Mat) -> TransporterSpace:
    """F_q[A], with the reduced echelon basis of I, A, ..., A^(n-1). For
    regular A this is A's commutant, and since a space has one reduced
    echelon basis it is the basis centralizer_algebra(A) solves its
    n^2 x n^2 system for."""
    ctx, n = A.ctx, A.n
    powers = [Mat.identity(ctx, n)]
    while len(powers) < n:
        powers.append(powers[-1] * A)
    rows = [tuple(r) for r in rref(ctx, [P.data for P in powers])[0] if any(r)]
    return TransporterSpace(ctx, n, tuple(Mat._trusted(ctx, n, r) for r in rows))


def sl_conjugate_test(A: Mat, B: Mat) -> Mat | None:
    """Determinant-1 witness X with X B X^-1 = A, or None.

    Route: a rational-form witness X0 decides GL-conjugacy. Every other
    witness is X0 U with U a unit of C(B), and det maps those units onto
    the e-th powers of F_q^*, e the gcd of every part of every lambda_f in
    B's type, which is the gcd of the exponents in the squarefree
    decompositions of B's invariant factors; so a determinant-1
    witness exists iff det(X0)^((q-1)/gcd(e, q-1)) = 1, and no element is
    tried when it does not. When it does, the transporter space T(A, B)
    holds every witness and walks ascending, so its first determinant-1
    unit is the least witness by canonical encoding; the walk raises
    BoundExceeded (SPAN_CAP) when that unit is not among the first SPAN_CAP
    elements. For A == B the witness is the identity, not the least
    determinant-1 element of C(A).
    """
    A._compat(B)
    if A.det() != 1 or B.det() != 1:
        raise ValueError("inputs must have determinant 1")
    if A == B:
        return Mat.identity(A.ctx, A.n)
    facs = invariant_factors(A)
    if invariant_factors(B) != facs:
        return None
    X0 = _gl_witness(A, B, facs)
    ctx = A.ctx
    e = math.gcd(ctx.q - 1, *(i for f in facs for i in _squarefree_parts(ctx, f)))
    if ctx.pow(X0.det(), (ctx.q - 1) // e) != 1:
        return None
    X = next(transporter_space(A, B).units(1), None)
    if X is None or X.det() != 1 or X * B != A * X:
        raise ConsistencyError("unit-determinant witness failed verification")
    return X


# ---------------------------------------------------------------------------
# explicit element constructors


def regular_unipotent(n: int, lead, ctx: FieldCtx) -> Mat:
    """Upper unitriangular with superdiagonal (lead, 1, ..., 1), zeros elsewhere."""
    c = _as_code(ctx, lead)
    if c == 0:
        raise ValueError("leading superdiagonal entry must be nonzero")
    if n < 2:
        raise ValueError("need n >= 2")
    data = [0] * (n * n)
    for i in range(n):
        data[i * n + i] = 1
    data[1] = c
    for i in range(1, n - 1):
        data[i * n + (i + 1)] = 1
    return Mat(ctx, n, data)


def heisenberg_element(top, ctx: FieldCtx) -> Mat:
    """The 3x3 unitriangular matrix with (0,1) entry top and (1,2) entry 1."""
    c = _as_code(ctx, top)
    if c == 0:
        raise ValueError("entry must be nonzero")
    return Mat.from_rows(ctx, [[1, c, 0], [0, 1, 1], [0, 0, 1]])

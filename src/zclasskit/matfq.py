"""Matrix algebra over a FieldCtx.

Matrices are immutable: a context, a dimension n, and a flat row-major
tuple of n*n element codes. The data tuple doubles as the canonical
encoding, so tuple comparison of .data is the canonical matrix order.

Linear algebra runs through one rref: inverses above 3x3 reduce [A | I],
kernels and solves reduce their systems (only the rational form's chain
search keeps an incremental echelon). Determinants above 3x3 use forward
elimination alone, smaller ones closed forms. Spans grow one vector at a
time through span_step, which fixes their listing order; kernel bases are
in reduced row echelon form, so every kernel and transporter space lists
in ascending order and the least element with a property is the first hit.

Canonical-form machinery (charpoly, minpoly, invariant factors, rational
form) runs through one Smith-normal-form routine over F_q[x]; conjugacy
tests and witness searches are built on top of it plus transporter
spaces. Deterministic rule throughout: when a choice is free, the object
with the least canonical encoding wins.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

from . import limits
from .errors import BoundExceeded, ConsistencyError
from .ff import (
    FieldCtx,
    FqElem,
    _as_code,
    _embed_code,
    make_field,
    poly_add,
    poly_divmod,
    poly_is_squarefree,
    poly_mod,
    poly_monic,
    poly_mul,
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
    """Multiplicative order; raises on singular input."""
    if A.det() == 0:
        raise ValueError("singular matrix has no multiplicative order")
    acc = A
    k = 1
    ident = Mat.identity(A.ctx, A.n)
    while acc != ident:
        acc = acc * A
        k += 1
        if k > 10_000_000:
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
    """Canonical kernel basis in reduced row echelon form: span_vectors lists
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


def span_vectors(ctx: FieldCtx, basis, cap: int | None = None) -> list[tuple[int, ...]]:
    """Every linear combination of the basis vectors; at most cap of them
    (default limits.SPAN_CAP)."""
    total = ctx.q ** len(basis)
    knob = "SPAN_CAP" if cap is None else "cap"
    cap = limits.SPAN_CAP if cap is None else cap
    if total > cap:
        raise BoundExceeded(
            f"span of {len(basis)} vectors over F_{ctx.name} has {total} elements, "
            f"above {knob} {cap}"
        )
    if not basis:
        return [()]
    span = [(0,) * len(basis[0])]
    for b in basis:
        span = span_step(ctx, span, b)
    return span


def span_step(ctx: FieldCtx, span, vec) -> list[tuple[int, ...]]:
    """The span grown by vec, listed as s + c*vec for s in span, then c in F_q."""
    add, mul = ctx.add, ctx.mul
    mults = [tuple([mul(c, x) for x in vec]) for c in ctx.elements()]
    return [tuple(map(add, s, t)) for s in span for t in mults]


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


def rcf(A: Mat) -> RcfResult:
    """Rational canonical form and a conjugating transform.

    form is block-diagonal with companion blocks of the invariant factors
    in divisibility order; transform * A * transform^-1 = form. The
    module generators behind transform are chosen least-encoding-first
    (largest factor first), so the output is deterministic.
    """
    ctx, n = A.ctx, A.n
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
    kernels = {
        f: span_vectors(ctx, kernel_basis(ctx, poly_of_matrix(ctx, f, A).rows(), n))
        for f in set(facs)
    }

    def search(pos: int, ech, chains):
        if pos == len(order):
            return chains
        f = facs[order[pos]]
        deg = len(f) - 1
        for w in kernels[f]:
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


def gl_conjugate_test(A: Mat, B: Mat) -> Mat | None:
    """Invertible X with X B X^-1 = A, or None; decided by rational forms."""
    A._compat(B)
    if A == B:
        return Mat.identity(A.ctx, A.n)
    ra = rcf(A)
    rb = rcf(B)
    if ra.form != rb.form:
        return None
    X = ra.transform.inverse() * rb.transform
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

    def elements(self, cap: int | None = None) -> list[Mat]:
        """Every element, ascending (the basis is in reduced echelon form)."""
        vecs = span_vectors(self.ctx, [m.data for m in self.basis], cap)
        if not self.basis:
            vecs = [(0,) * (self.n * self.n)]
        return [Mat._trusted(self.ctx, self.n, v) for v in vecs]

    def units(self, det: int | None = None, cap: int | None = None):
        """The invertible elements, ascending; only those of determinant det
        when det is given."""
        for X in self.elements(cap):
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


def sl_conjugate_test(A: Mat, B: Mat) -> Mat | None:
    """Determinant-1 witness X with X B X^-1 = A, or None.

    Route: with equal invariant factors, the transporter space T(A, B) holds
    every conjugating X and lists ascending, so its first determinant-1 unit
    is the least witness by canonical encoding. For A == B the witness is
    the identity, not the least determinant-1 element of C(A).
    """
    A._compat(B)
    if A.det() != 1 or B.det() != 1:
        raise ValueError("inputs must have determinant 1")
    if A == B:
        return Mat.identity(A.ctx, A.n)
    if invariant_factors(A) != invariant_factors(B):
        return None
    X = next(transporter_space(A, B).units(1), None)
    if X is not None and (X.det() != 1 or X * B != A * X):
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

"""Matrix layer: canonical forms, conjugacy tests, constructors."""
from __future__ import annotations

import hashlib
import itertools
import random
from functools import lru_cache

import pytest

from zclasskit.ff import make_field, mult_generator, norm, poly_mul, poly_sub, poly_trim
from zclasskit.matfq import (
    Mat,
    centralizer_algebra,
    charpoly,
    gl_conjugate_test,
    heisenberg_element,
    invariant_factors,
    is_semisimple,
    is_unipotent,
    kernel_basis,
    mat_embed,
    mat_frobenius,
    mat_literal,
    mat_order,
    mat_parse,
    minpoly,
    poly_of_matrix,
    rcf,
    regular_unipotent,
    rref,
    sl_conjugate_test,
    span_vectors,
    transporter_space,
    weil_embed,
)

from reference import jordan_decomposition

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)
F5 = make_field(5, 1)
F7 = make_field(7, 1)
F9 = make_field(3, 2)


@lru_cache(maxsize=None)
def _general_linear(p: int, m: int, n: int) -> tuple[Mat, ...]:
    ctx = make_field(p, m)
    out = []
    for data in itertools.product(range(ctx.q), repeat=n * n):
        A = Mat(ctx, n, data)
        if A.det() != 0:
            out.append(A)
    return tuple(out)


@lru_cache(maxsize=None)
def _special_linear(p: int, m: int, n: int) -> tuple[Mat, ...]:
    return tuple(A for A in _general_linear(p, m, n) if A.det() == 1)


def _random_invertible(rng, ctx, n: int, det: int | None = None) -> Mat:
    """A seeded random invertible matrix; with det given, its first row is
    rescaled to reach that determinant."""
    while True:
        X = Mat(ctx, n, [rng.randrange(ctx.q) for _ in range(n * n)])
        d = X.det()
        if d:
            break
    if det is None:
        return X
    c = ctx.mul(det, ctx.inv(d))
    return Mat(ctx, n, [ctx.mul(c, v) if k < n else v for k, v in enumerate(X.data)])


def _ascending(items) -> bool:
    return all(a < b for a, b in zip(items, items[1:]))


def _conjugacy_partition(group: tuple[Mat, ...]) -> list[list[Mat]]:
    seen: set[Mat] = set()
    classes = []
    for g in group:
        if g in seen:
            continue
        orbit = {x * g * x.inverse() for x in group}
        seen |= orbit
        classes.append(sorted(orbit, key=lambda m: m.data))
    return classes


# ---------------------------------------------------------------------------
# arithmetic basics


def test_constructors_and_access():
    A = Mat.from_rows(F5, [[1, 2], [3, 4]])
    assert A[0, 1] == 2 and A[1, 0] == 3
    assert A.rows() == ((1, 2), (3, 4))
    assert Mat.scalar(F5, 2, 3) == Mat.diagonal(F5, [3, 3])
    assert Mat.scalar(F5, 2, 3).is_scalar()
    with pytest.raises(ValueError):
        Mat.from_rows(F5, [[1, 2], [3]])


def test_mul_agrees_with_schoolbook():
    rng = random.Random(33)
    for ctx in (F3, F4, F5, make_field(2, 10)):
        for n in (1, 2, 3, 4):
            A = Mat(ctx, n, [rng.randrange(ctx.q) for _ in range(n * n)])
            B = Mat(ctx, n, [rng.randrange(ctx.q) for _ in range(n * n)])
            C = A * B
            for i in range(n):
                for j in range(n):
                    acc = 0
                    for l in range(n):
                        acc = ctx.add(acc, ctx.mul(A[i, l], B[l, j]))
                    assert C[i, j] == acc


def _det_leibniz(A: Mat) -> int:
    ctx, n = A.ctx, A.n
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        prod = 1
        for i in range(n):
            prod = ctx.mul(prod, A[i, perm[i]])
        total = ctx.add(total, prod if inversions % 2 == 0 else ctx.neg(prod))
    return total


@pytest.mark.parametrize("ctx", [F3, F5, F4], ids=lambda c: c.name)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_det_matches_permutation_expansion(ctx, n):
    rng = random.Random(7 + n)
    for _ in range(25):
        A = Mat(ctx, n, [rng.randrange(ctx.q) for _ in range(n * n)])
        assert A.det() == _det_leibniz(A)


def test_det_inv_examples():
    ident = Mat.identity(F5, 3)
    d, inv = ident.det_inv()
    assert d == 1 and inv == ident
    rank1 = Mat.from_rows(F5, [[1, 2], [2, 4]])
    d, inv = rank1.det_inv()
    assert d == 0 and inv is None
    rng = random.Random(2)
    found = 0
    while found < 20:
        A = Mat(F5, 3, [rng.randrange(5) for _ in range(9)])
        d, inv = A.det_inv()
        if inv is None:
            assert d == 0
            continue
        found += 1
        assert A * inv == Mat.identity(F5, 3)
        assert inv * A == Mat.identity(F5, 3)
    # n >= 4 goes through elimination instead of the closed forms
    for ctx in (F5, F4):
        for n in (4, 5):
            ident = Mat.identity(ctx, n)
            for _ in range(10):
                A = Mat(ctx, n, [rng.randrange(ctx.q) for _ in range(n * n)])
                d, inv = A.det_inv()
                assert d == A.det()
                if inv is None:
                    assert d == 0
                    continue
                assert A * inv == ident and inv * A == ident
            rows = [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(n - 1)]
            rows.append([ctx.add(a, b) for a, b in zip(rows[0], rows[1])])
            assert Mat.from_rows(ctx, rows).det_inv() == (0, None)


def test_pow_and_inverse():
    A = Mat.from_rows(F5, [[1, 1], [0, 1]])
    assert A**5 == Mat.identity(F5, 2)
    assert A**-1 * A == Mat.identity(F5, 2)
    assert A**0 == Mat.identity(F5, 2)
    assert mat_order(A) == 5
    with pytest.raises(ValueError):
        mat_order(Mat.zero(F5, 2))


def test_literal_roundtrip():
    A = Mat.from_rows(F5, [[1, 2, 0], [0, 3, 1], [4, 0, 2]])
    assert mat_literal(A) == "[1,2,0;0,3,1;4,0,2]"
    assert mat_parse(F5, mat_literal(A)) == A
    assert mat_parse(F5, "1,1;0,1") == Mat.from_rows(F5, [[1, 1], [0, 1]])


def test_rref_solve_kernel():
    rows = [[1, 2, 3], [0, 0, 1]]
    red, pivots = rref(F5, rows)
    assert pivots == [0, 2]
    assert red[0][:3] == [1, 2, 0]
    ker = kernel_basis(F5, rows, 3)
    assert len(ker) == 1
    for vec in ker:
        for row in rows:
            acc = 0
            for c, v in zip(row, vec):
                acc = F5.add(acc, F5.mul(c, v))
            assert acc == 0


def test_span_vectors_counts():
    vecs = span_vectors(F3, [(1, 0), (0, 1)])
    assert len(vecs) == 9
    assert len(set(vecs)) == 9
    # the order is canonical: s + c*b for s in the span so far, then c
    assert vecs == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
    assert span_vectors(F4, [(1, 2, 0), (3, 0, 1)]) == [
        (0, 0, 0), (3, 0, 1), (1, 0, 2), (2, 0, 3), (1, 2, 0), (2, 2, 1), (0, 2, 2), (3, 2, 3),
        (2, 3, 0), (1, 3, 1), (3, 3, 2), (0, 3, 3), (3, 1, 0), (0, 1, 1), (2, 1, 2), (1, 1, 3),
    ]


def _is_reduced_echelon(vecs) -> bool:
    if not all(any(v) for v in vecs):
        return False
    pivots = [next(k for k, x in enumerate(v) if x) for v in vecs]
    return _ascending(pivots) and all(
        v[p] == int(i == j) for j, v in enumerate(vecs) for i, p in enumerate(pivots)
    )


@pytest.mark.parametrize("ctx", [F3, F4, F5, F9], ids=lambda c: c.name)
def test_kernels_and_transporter_spaces_list_ascending(ctx):
    # the least element with a property is the first one listed
    rng = random.Random(ctx.q)
    for n in (2, 3, 4):
        for _ in range(4):
            A = Mat(ctx, n, [rng.randrange(ctx.q) for _ in range(n * n)])
            rows = A.rows()[: rng.randrange(n)]
            basis = kernel_basis(ctx, rows, n)
            assert _is_reduced_echelon(basis)
            assert _ascending(span_vectors(ctx, basis))
            X = _random_invertible(rng, ctx, n)
            other = Mat(ctx, n, [rng.randrange(ctx.q) for _ in range(n * n)])
            for B in (X * A * X.inverse(), other):
                T = transporter_space(A, B)
                assert _is_reduced_echelon([M.data for M in T.basis])
                if ctx.q**T.dim <= 10_000:
                    assert _ascending([M.data for M in T.elements()])


# ---------------------------------------------------------------------------
# characteristic and minimal polynomials against Leibniz/brute oracles


def _charpoly_leibniz(A: Mat) -> tuple[int, ...]:
    ctx, n = A.ctx, A.n
    P = [
        [
            poly_trim(((ctx.neg(A[i, j]),) if i != j else (ctx.neg(A[i, j]), 1)))
            for j in range(n)
        ]
        for i in range(n)
    ]
    total: tuple[int, ...] = ()
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        prod: tuple[int, ...] = (1,)
        for i in range(n):
            prod = poly_mul(ctx, prod, P[i][perm[i]])
        if inversions % 2:
            prod = poly_sub(ctx, (), prod)
        total = poly_sub(ctx, total, poly_sub(ctx, (), prod))
    return total


def _minpoly_brute(A: Mat) -> tuple[int, ...]:
    ctx, n = A.ctx, A.n
    zero = Mat.zero(ctx, n)
    for deg in range(1, n + 1):
        for tail in itertools.product(range(ctx.q), repeat=deg):
            f = tail + (1,)
            if poly_of_matrix(ctx, f, A) == zero:
                return f
    raise AssertionError("no annihilator up to degree n")


@pytest.mark.parametrize("ctx", [F2, F3, F4, F5], ids=lambda c: c.name)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_charpoly_and_minpoly_against_oracles(ctx, n):
    rng = random.Random(13 * n + ctx.q)
    mats = [Mat(ctx, n, [rng.randrange(ctx.q) for _ in range(n * n)]) for _ in range(15)]
    mats.append(Mat.identity(ctx, n))
    if n >= 2:
        mats.append(regular_unipotent(n, 1, ctx))
    for A in mats:
        cp = charpoly(A)
        assert cp == _charpoly_leibniz(A)
        assert len(cp) == n + 1 and cp[-1] == 1
        mp = minpoly(A)
        assert mp == _minpoly_brute(A)
        assert poly_of_matrix(ctx, mp, A) == Mat.zero(ctx, n)


def test_charpoly_examples():
    assert charpoly(Mat.identity(F5, 2)) == (1, 3, 1)  # (x-1)^2 = x^2+3x+1 over F_5
    assert minpoly(Mat.identity(F5, 2)) == (4, 1)  # x - 1
    u = regular_unipotent(3, 1, F5)
    assert minpoly(u) == poly_mul(F5, poly_mul(F5, (4, 1), (4, 1)), (4, 1))
    f = (2, 1, 0, 1)  # irreducible cubic x^3 + x + 2 over F_3
    C = Mat.companion(F3, f)
    assert charpoly(C) == f
    assert minpoly(C) == f


def test_invariant_factors_structure():
    facs = invariant_factors(Mat.identity(F3, 2))
    assert facs == ((2, 1), (2, 1))  # x - 1 twice
    C = Mat.companion(F5, (3, 1, 2, 1))
    assert invariant_factors(C) == ((3, 1, 2, 1),)
    # divisibility chain on a mixed example
    A = Mat.diagonal(F5, [1, 1, 2])
    facs = invariant_factors(A)
    assert len(facs) == 2
    from zclasskit.ff import poly_mod

    assert poly_mod(F5, facs[1], facs[0]) == ()


# ---------------------------------------------------------------------------
# rational canonical form


def test_rcf_diag_example():
    A = Mat.diagonal(F5, [1, 2])
    form, transform = rcf(A)
    # cyclic with invariant factor (x-1)(x-2) = x^2 + 2x + 2 over F_5
    assert form == Mat.from_rows(F5, [[0, 3], [1, 3]])
    assert transform * A * transform.inverse() == form


@pytest.mark.parametrize("ctx", [F3, F4, F5], ids=lambda c: c.name)
def test_rcf_idempotent_and_conjugates(ctx):
    rng = random.Random(ctx.q)
    count = 0
    while count < 12:
        A = Mat(ctx, 3, [rng.randrange(ctx.q) for _ in range(9)])
        form, transform = rcf(A)
        assert transform * A * transform.inverse() == form
        assert rcf(form).form == form
        count += 1


def test_rcf_regular_unipotent_forms_agree():
    # every choice of nonzero leading entry is conjugate over the base field
    forms = {rcf(regular_unipotent(3, b, F4)).form for b in range(1, 4)}
    assert len(forms) == 1


def test_rcf_transforms_and_gl_witnesses_pinned():
    # the chain search tries each kernel in ascending order; these values
    # pin the least-encoding module generators it picks
    cases = [
        (regular_unipotent(3, 1, F4), "[1,1,1;0,1,0;1,0,0]"),
        (Mat.diagonal(F5, [1, 1, 2]), "[1,0,0;0,2,4;0,4,1]"),
        (Mat.diagonal(F3, [2, 1, 2, 1]), "[0,0,2,2;0,0,1,2;2,2,0,0;1,2,0,0]"),
        (mat_parse(F3, "[1,1,0,0;0,1,0,0;0,0,1,0;0,0,0,2]"), "[0,0,1,0;1,0,0,1;0,2,0,1;2,2,0,1]"),
    ]
    for A, transform in cases:
        assert mat_literal(rcf(A).transform) == transform
    W = gl_conjugate_test(regular_unipotent(3, 1, F5), regular_unipotent(3, 2, F5))
    assert mat_literal(W) == "[3,0,0;0,1,0;0,0,1]"
    digest = hashlib.sha256()
    rng = random.Random(7)
    for ctx in (F3, F4, F5):
        for n in (2, 3, 4):
            for _ in range(10):
                A = Mat(ctx, n, [rng.randrange(ctx.q) for _ in range(n * n)])
                while True:
                    X = Mat(ctx, n, [rng.randrange(ctx.q) for _ in range(n * n)])
                    if X.det():
                        break
                digest.update(mat_literal(gl_conjugate_test(A, X * A * X.inverse())).encode())
    assert digest.hexdigest() == "e47fe3e90ae6137ef9424609388f5e662b243a9803ef1b4844b9810b54fdf51b"


# ---------------------------------------------------------------------------
# GL-conjugacy against brute force


def test_gl_conjugate_reflexive_and_witness():
    A = Mat.from_rows(F5, [[1, 1], [0, 1]])
    assert gl_conjugate_test(A, A) == Mat.identity(F5, 2)
    B = Mat.diagonal(F5, [1, 2])
    C = Mat.diagonal(F5, [2, 1])
    X = gl_conjugate_test(B, C)
    assert X is not None
    assert X * C * X.inverse() == B


def test_gl_conjugate_regular_unipotents_f4():
    mats = [regular_unipotent(3, b, F4) for b in range(1, 4)]
    for A in mats:
        for B in mats:
            X = gl_conjugate_test(A, B)
            assert X is not None
            assert X * B * X.inverse() == A


@pytest.mark.parametrize("p,m,n", [(2, 1, 2), (3, 1, 2)])
def test_gl_conjugacy_matches_brute_force_on_class_reps(p, m, n):
    group = _general_linear(p, m, n)
    classes = _conjugacy_partition(group)
    reps = [cls[0] for cls in classes]
    membership = {g: i for i, cls in enumerate(classes) for g in cls}
    for A in reps:
        for B in reps:
            X = gl_conjugate_test(A, B)
            if membership[A] == membership[B]:
                assert X is not None and X * B * X.inverse() == A
            else:
                assert X is None


def test_gl2_f3_class_count_frozen():
    classes = _conjugacy_partition(_general_linear(3, 1, 2))
    assert len(classes) == 8


# ---------------------------------------------------------------------------
# transporter spaces


def test_transporter_identity_full():
    T = transporter_space(Mat.identity(F5, 2), Mat.identity(F5, 2))
    assert T.dim == 4


def test_transporter_regular_dimension_and_polynomial_span():
    u = regular_unipotent(3, 1, F5)
    Z = centralizer_algebra(u)
    assert Z.dim == 3
    powers = [Mat.identity(F5, 3), u, u * u]
    span_powers = sorted(span_vectors(F5, [m.data for m in powers]))
    span_basis = sorted(span_vectors(F5, [m.data for m in Z.basis]))
    assert span_powers == span_basis


def test_transporter_disjoint_spectra_trivial():
    A = Mat.diagonal(F5, [1, 1])
    B = Mat.diagonal(F5, [2, 2])
    assert transporter_space(A, B).dim == 0


def test_transporter_solutions_and_invariance():
    rng = random.Random(4)
    for _ in range(10):
        A = Mat(F3, 2, [rng.randrange(3) for _ in range(4)])
        B = Mat(F3, 2, [rng.randrange(3) for _ in range(4)])
        T = transporter_space(A, B)
        for M in T.basis:
            assert M * B == A * M
        X = None
        while X is None or X.det() == 0:
            X = Mat(F3, 2, [rng.randrange(3) for _ in range(4)])
        conj = X * A * X.inverse()
        assert transporter_space(conj, B).dim == T.dim


# ---------------------------------------------------------------------------
# SL-conjugacy: splitting detected, brute-force agreement


def test_sl_conjugacy_matches_brute_force_sl2_f3():
    group = _special_linear(3, 1, 2)
    assert len(group) == 24
    classes = _conjugacy_partition(group)
    assert len(classes) == 7
    reps = [cls[0] for cls in classes]
    membership = {g: i for i, cls in enumerate(classes) for g in cls}
    for A in reps:
        for B in reps:
            X = sl_conjugate_test(A, B)
            if membership[A] == membership[B]:
                assert X is not None
                assert X.det() == 1 and X * B * X.inverse() == A
            else:
                assert X is None


def test_sl2_f5_unipotent_split():
    # 2 is not a square mod 5: the two regular unipotents split into
    # distinct SL-classes even though GL merges them
    u1 = regular_unipotent(2, 1, F5)
    u2 = regular_unipotent(2, 2, F5)
    assert gl_conjugate_test(u1, u2) is not None
    assert sl_conjugate_test(u1, u2) is None
    group = _special_linear(5, 1, 2)
    assert len(group) == 120
    assert not any(X * u2 * X.inverse() == u1 for X in group)
    u4 = regular_unipotent(2, 4, F5)
    X = sl_conjugate_test(u1, u4)
    assert X is not None and X.det() == 1


def test_sl2_f25_unipotent_fusion():
    # over the quadratic extension every unit is a square, so the split heals
    f25 = make_field(5, 2)
    u1 = mat_embed(regular_unipotent(2, 1, F5), f25)
    u2 = mat_embed(regular_unipotent(2, 2, F5), f25)
    X = sl_conjugate_test(u1, u2)
    assert X is not None
    assert X.det() == 1 and X * u2 * X.inverse() == u1
    brute = None
    for data in itertools.product(range(25), repeat=4):
        M = Mat(f25, 2, data)
        if M.det() == 1 and M * u2 == u1 * M:
            brute = M
            break
    assert brute is not None


def test_sl_conjugate_rejects_non_sl_input():
    with pytest.raises(ValueError):
        sl_conjugate_test(Mat.diagonal(F5, [2, 1]), Mat.diagonal(F5, [1, 2]))


def _sl_witness_reference(A: Mat, B: Mat) -> Mat | None:
    """The coset route: a GL witness X0 from rational forms, then the least
    X0 * U over units U of C(B) with det U = det(X0)^-1."""
    if A == B:
        return Mat.identity(A.ctx, A.n)
    X0 = gl_conjugate_test(A, B)
    if X0 is None:
        return None
    target = A.ctx.inv(X0.det())
    cands = [X0 * U for U in centralizer_algebra(B).elements() if U.det() == target]
    return min(cands, key=lambda M: M.data, default=None)


@pytest.mark.parametrize("ctx", [F3, F4, F5, F7], ids=lambda c: c.name)
def test_sl_witness_matches_coset_route(ctx):
    rng = random.Random(100 + ctx.q)
    for n in (2, 3, 4):
        for kind in ("unipotent", "conjugate", "random"):
            for _ in range(4):
                X = _random_invertible(rng, ctx, n)  # any determinant
                if kind == "unipotent":
                    A = regular_unipotent(n, rng.randrange(1, ctx.q), ctx)
                    B = X * regular_unipotent(n, rng.randrange(1, ctx.q), ctx) * X.inverse()
                elif kind == "conjugate":
                    A = _random_invertible(rng, ctx, n, det=1)
                    B = X * A * X.inverse()
                else:
                    A = _random_invertible(rng, ctx, n, det=1)
                    B = _random_invertible(rng, ctx, n, det=1)
                W = sl_conjugate_test(A, B)
                assert W == _sl_witness_reference(A, B)
                T = transporter_space(A, B)
                units = [M for M in T.elements() if M.det() != 0]
                assert list(T.units()) == units
                for d in (1, rng.randrange(1, ctx.q)):
                    assert list(T.units(d)) == [M for M in units if M.det() == d]


# ---------------------------------------------------------------------------
# Jordan decomposition


def test_jordan_trivial_cases():
    u = regular_unipotent(2, 1, F3)
    pair = jordan_decomposition(u)
    assert pair.g_s == Mat.identity(F3, 2) and pair.g_u == u
    s = Mat.diagonal(F5, [2, 3])
    pair = jordan_decomposition(s)
    assert pair.g_s == s and pair.g_u == Mat.identity(F5, 2)


def test_jordan_scalar_times_unipotent_f4():
    scalar = Mat.scalar(F4, 3, 2)
    u = regular_unipotent(3, 1, F4)
    g = scalar * u
    pair = jordan_decomposition(g)
    assert pair.g_s == scalar
    assert pair.g_u == u
    assert pair.g_s * pair.g_u == g == pair.g_u * pair.g_s


def test_jordan_uniqueness_by_exhaustive_search():
    group = _general_linear(3, 1, 2)
    rng = random.Random(8)
    sample = rng.sample(list(group), 12)
    for g in sample:
        pair = jordan_decomposition(g)
        factorizations = []
        for s in group:
            u = s.inverse() * g
            if s * u != u * s:
                continue
            if is_semisimple(s) and is_unipotent(u):
                factorizations.append((s, u))
        assert factorizations == [(pair.g_s, pair.g_u)]


def test_jordan_centralizer_intersection():
    group = _general_linear(3, 1, 2)
    g = Mat.from_rows(F3, [[2, 1], [0, 2]])
    pair = jordan_decomposition(g)
    z_g = {x for x in group if x * g == g * x}
    z_s = {x for x in group if x * pair.g_s == pair.g_s * x}
    z_u = {x for x in group if x * pair.g_u == pair.g_u * x}
    assert z_g == z_s & z_u


def test_jordan_rejects_singular():
    with pytest.raises(ValueError):
        jordan_decomposition(Mat.zero(F3, 2))


def test_semisimple_unipotent_predicates():
    assert is_semisimple(Mat.identity(F3, 2))
    assert is_unipotent(Mat.identity(F3, 2))
    u = regular_unipotent(3, 1, F4)
    assert is_unipotent(u) and not is_semisimple(u)
    C = Mat.companion(F3, (2, 1, 0, 1))
    assert is_semisimple(C)


# ---------------------------------------------------------------------------
# explicit constructors


def test_regular_unipotent_shape():
    u = regular_unipotent(2, 1, F5)
    assert u == Mat.from_rows(F5, [[1, 1], [0, 1]])
    u3 = regular_unipotent(3, 3, F5)
    assert u3 == Mat.from_rows(F5, [[1, 3, 0], [0, 1, 1], [0, 0, 1]])
    assert u3.det() == 1
    with pytest.raises(ValueError):
        regular_unipotent(3, 0, F5)
    with pytest.raises(ValueError):
        regular_unipotent(1, 1, F5)


def test_regular_unipotent_minpoly_degree():
    for n in (2, 3, 4):
        for b in (1, 2):
            u = regular_unipotent(n, b, F3)
            mp = minpoly(u)
            assert len(mp) == n + 1
            assert is_unipotent(u)


def test_heisenberg_element_shape():
    h = heisenberg_element(3, F5)
    assert h == Mat.from_rows(F5, [[1, 3, 0], [0, 1, 1], [0, 0, 1]])
    with pytest.raises(ValueError):
        heisenberg_element(0, F5)


def test_heisenberg_centralizer_in_full_unitriangular():
    # inside the full upper unitriangular group the centralizer has size q^2
    q = 5
    h = heisenberg_element(1, F5)
    members = []
    for a, b, c in itertools.product(range(q), repeat=3):
        members.append(Mat.from_rows(F5, [[1, a, b], [0, 1, c], [0, 0, 1]]))
    cent = [m for m in members if m * h == h * m]
    assert len(cent) == q * q
    for m in cent:
        # (0,1) entry is the (1,2) entry scaled by the top parameter
        assert m[0, 1] == F5.mul(1, m[1, 2])


def test_regular_unipotent_order_in_char2():
    u = regular_unipotent(3, 2, F4)
    assert mat_order(u) == 4


# ---------------------------------------------------------------------------
# Weil restriction


def test_weil_embed_identity_and_hom():
    f9 = make_field(3, 2)
    assert weil_embed(f9, 1, 1) == Mat.identity(F3, 2)
    for x in f9.units():
        for y in f9.units():
            assert weil_embed(f9, 1, f9.mul(x, y)) == weil_embed(f9, 1, x) * weil_embed(
                f9, 1, y
            )
    images = {weil_embed(f9, 1, x) for x in f9.units()}
    assert len(images) == 8


def test_weil_embed_det_is_norm():
    f9 = make_field(3, 2)
    for x in f9.units():
        assert weil_embed(f9, 1, x).det() == norm(f9, 1, x).code
    f16 = make_field(2, 4)
    f4 = make_field(2, 2)
    for x in f16.units():
        W = weil_embed(f16, 2, x)
        assert W.ctx is f4
        assert W.det() == norm(f16, 2, x).code


def test_weil_embed_generator_charpoly():
    f4 = make_field(2, 2)
    g = mult_generator(f4)
    W = weil_embed(f4, 1, g)
    assert charpoly(W) == (1, 1, 1)
    assert is_semisimple(W)
    f9 = make_field(3, 2)
    Wg = weil_embed(f9, 1, mult_generator(f9))
    cp = charpoly(Wg)
    assert cp == minpoly(Wg)
    assert len(cp) == 3


def test_weil_embed_norm_one_lands_in_sl():
    f9 = make_field(3, 2)
    norm_one = [x for x in f9.units() if norm(f9, 1, x).code == 1]
    assert len(norm_one) == 4
    for x in norm_one:
        assert weil_embed(f9, 1, x).det() == 1


def test_weil_embed_rejects_zero_and_bad_degree():
    f9 = make_field(3, 2)
    with pytest.raises(ValueError):
        weil_embed(f9, 1, 0)
    with pytest.raises(ValueError):
        weil_embed(f9, 3, 1)


# ---------------------------------------------------------------------------
# entrywise maps


def test_mat_frobenius_and_embed():
    f4 = make_field(2, 2)
    f16 = make_field(2, 4)
    A = Mat.from_rows(f4, [[2, 1], [3, 0]])
    B = mat_frobenius(A, 1)
    for i in range(2):
        for j in range(2):
            assert B[i, j] == f4.pow(A[i, j], 2)
    E = mat_embed(A, f16)
    assert E.ctx is f16
    from zclasskit.ff import embed

    for i in range(2):
        for j in range(2):
            assert E[i, j] == embed(f4, f16, A[i, j]).code
    with pytest.raises(ValueError):
        mat_embed(A, make_field(2, 3))

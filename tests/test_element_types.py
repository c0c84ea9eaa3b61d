"""Element types, the closed-form centralizer order, the determinant test
for SL-conjugacy and the lazy span walk, each against the route it
replaced or an independent oracle."""
from __future__ import annotations

import itertools
import math
import random
import time
import warnings

import pytest

from reference import brute_type, sl_witness_scan, span_vectors
from zclasskit import limits
from zclasskit.errors import BoundExceeded
from zclasskit.ff import make_field
from zclasskit.grpcore import GL, SL, FamilySpec, conjugacy_classes, family_order, instantiate
from zclasskit.matfq import (
    Mat,
    centralizer_order,
    factors_type,
    gl_conjugate_test,
    invariant_factors,
    regular_unipotent,
    sl_conjugate,
    sl_conjugate_test,
    span_walk,
    transporter_space,
    type_exponent,
)
from zclasskit.zclass import growth_degree

F5 = make_field(5, 1)

# every GL_n/SL_n table of order at most 12 000
SMALL_TABLES = [
    (kind, n, p, m)
    for kind, n, qs in (
        (GL, 2, ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))),
        (GL, 3, ((2, 1), (3, 1))),
        (SL, 2, ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
                 (13, 1), (2, 4), (17, 1), (19, 1))),
        (SL, 3, ((2, 1), (3, 1))),
    )
    for p, m in qs
]


def _type(A: Mat):
    return factors_type(A.ctx, invariant_factors(A))


def _block_diagonal(ctx, blocks) -> Mat:
    n = sum(b.n for b in blocks)
    data = [0] * (n * n)
    at = 0
    for b in blocks:
        for i in range(b.n):
            for j in range(b.n):
                data[(at + i) * n + at + j] = b.data[i * b.n + j]
        at += b.n
    return Mat(ctx, n, data)


def test_small_tables_are_every_table_up_to_12000():
    for kind, n, p, m in SMALL_TABLES:
        assert family_order(FamilySpec(kind, n), make_field(p, m)) <= 12_000
    assert family_order(FamilySpec(GL, 2), make_field(11, 1)) > 12_000
    assert family_order(FamilySpec(SL, 2), make_field(23, 1)) > 12_000
    assert family_order(FamilySpec(GL, 4), make_field(2, 1)) > 12_000


@pytest.mark.parametrize(
    "kind,n,p,m", SMALL_TABLES, ids=lambda v: v if isinstance(v, str) else str(v)
)
def test_type_and_centralizer_order_on_class_reps(kind, n, p, m):
    ctx = make_field(p, m)
    with warnings.catch_warnings():  # SL_n with p | n is built on purpose
        warnings.simplefilter("ignore")
        table = instantiate(FamilySpec(kind, n, allow_bad_characteristic=True), ctx)
    for cls in conjugacy_classes(table):
        g = table.elements[cls.rep_id]
        typ = _type(g)
        assert typ == brute_type(g)
        assert centralizer_order(typ, ctx.q, kind == SL) == table.order // cls.size


def test_type_of_repeated_and_inseparable_factors():
    # characteristic 2: (x + 1)^2, (x + 1)^4 and (x^2 + x + 1)^2 = x^4 + x^2 + 1
    # have derivative 0, so their squarefree parts come from p-th roots
    f2, f4 = make_field(2, 1), make_field(2, 2)
    cases = [
        (f2, [(1, 0, 0, 0, 1), (1, 0, 1), (1, 0, 1)], ((1, (4, 2, 2)),), 2),
        (f2, [(1, 0, 1, 0, 1), (1, 1, 1)], ((2, (2, 1)),), 1),
        (f4, [(1, 0, 1), (1, 0, 1)], ((1, (2, 2)),), 2),
    ]
    for ctx, polys, typ, e in cases:
        A = _block_diagonal(ctx, [Mat.companion(ctx, f) for f in polys])
        assert _type(A) == brute_type(A) == typ
        assert type_exponent(typ) == e


def _random_invertible(rng, ctx, n, det=None):
    while True:
        M = Mat(ctx, n, [rng.randrange(ctx.q) for _ in range(n * n)])
        d = M.det()
        if d:
            if det is not None:
                M = Mat.diagonal(ctx, [ctx.mul(det, ctx.inv(d))] + [1] * (n - 1)) * M
            return M


def _jordan(ctx, value, size, lead=1) -> Mat:
    data = [value if i == j else 0 for i in range(size) for j in range(size)]
    if size > 1:
        data[1] = lead
    for i in range(1, size - 1):
        data[i * size + i + 1] = 1
    return Mat(ctx, size, data)


def _det_one_shape(rng, ctx, n) -> Mat:
    """A determinant-1 element with repeated eigenvalues: Jordan blocks of
    random sizes, eigenvalues drawn from a few units, the last fixing det."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(rng.randint(1, n - sum(sizes)))
    units = [rng.randrange(1, ctx.q) for _ in range(2)]
    blocks = [_jordan(ctx, rng.choice(units), s, rng.randrange(1, ctx.q)) for s in sizes]
    M = _block_diagonal(ctx, blocks)
    return Mat.diagonal(ctx, [ctx.inv(M.det())] + [1] * (n - 1)) * M if M.det() != 1 else M


@pytest.mark.parametrize("p,m", [(3, 1), (2, 2), (5, 1), (7, 1)], ids=["3", "2^2", "5", "7"])
def test_determinant_test_matches_the_scan(p, m):
    ctx = make_field(p, m)
    rng = random.Random(1200 + ctx.q)
    decided = 0
    for n in (2, 3, 4):
        for _ in range(12):
            A = _det_one_shape(rng, ctx, n)
            X = _random_invertible(rng, ctx, n)  # any determinant
            for B in (X * A * X.inverse(), _det_one_shape(rng, ctx, n)):
                Y = _random_invertible(rng, ctx, n, det=1)
                A1 = Y * A * Y.inverse()
                if ctx.q ** transporter_space(A1, B).dim > 20_000:  # keeps the scan small
                    continue
                W = sl_conjugate_test(A1, B)
                assert W == sl_witness_scan(A1, B)
                assert sl_conjugate(A1, B) == (W is not None)
                X0 = gl_conjugate_test(A1, B)
                if X0 is not None and A1 != B:
                    e = type_exponent(_type(B))
                    unit = ctx.pow(X0.det(), (ctx.q - 1) // math.gcd(e, ctx.q - 1))
                    assert (W is not None) == (unit == 1)
                decided += 1
    assert decided >= 40


def test_span_walk_is_the_listing_order():
    rng = random.Random(12)
    for ctx in (make_field(3, 1), make_field(2, 2), F5):
        for k in range(4):
            basis = [tuple(rng.randrange(ctx.q) for _ in range(5)) for _ in range(k)]
            walked = list(span_walk(ctx, basis, 5))
            if basis:
                assert walked == span_vectors(ctx, basis)
            # the order is lexicographic in the coefficients, each in code order
            lex = [
                tuple(_dot(ctx, cs, col) for col in zip(*basis)) if basis else (0,) * 5
                for cs in itertools.product(range(ctx.q), repeat=k)
            ]
            assert walked == lex


def _dot(ctx, cs, col) -> int:
    acc = 0
    for c, x in zip(cs, col):
        acc = ctx.add(acc, ctx.mul(c, x))
    return acc


def test_span_walk_counts_what_it_tries(monkeypatch):
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    whole = list(span_walk(F5, basis, 3))  # 125 elements, within SPAN_CAP
    monkeypatch.setattr(limits, "SPAN_CAP", 124)
    walk = span_walk(F5, basis, 3)
    assert list(itertools.islice(walk, 124)) == whole[:124]
    with pytest.raises(BoundExceeded) as exc:
        next(walk)
    assert str(exc.value) == (
        "span of 3 vectors over F_5 has 125 elements; the walk stopped after SPAN_CAP 124"
    )


def _j2_pair_element(b: int) -> Mat:
    return _block_diagonal(F5, [regular_unipotent(2, b, F5), regular_unipotent(2, 1, F5)])


def _first_det_one_by_coefficients(A: Mat, B: Mat) -> Mat | None:
    T = transporter_space(A, B)
    for cs in itertools.product(range(F5.q), repeat=T.dim):
        X = Mat(F5, 4, [_dot(F5, cs, col) for col in zip(*(M.data for M in T.basis))])
        if X.det() == 1:
            return X
    return None


def test_sl4_f5_j2_pairs_get_verdicts():
    # J2(b)+J2 and J2(b')+J2: diag(b/b', 1, 1, 1) conjugates the second onto
    # the first, and every part of the type is 2, so det(C(g)) is the squares
    # of F_5^*; SL-conjugate iff b/b' is a square. T(A, B) has dimension 8
    # (5^8 = 390 625 elements, above SPAN_CAP): the listing refused these.
    rng = random.Random(40)
    verdicts = set()
    for _ in range(40):
        b, b2 = rng.randrange(1, 5), rng.randrange(1, 5)
        X, Y = _random_invertible(rng, F5, 4, det=1), _random_invertible(rng, F5, 4, det=1)
        A = X * _j2_pair_element(b) * X.inverse()
        B = Y * _j2_pair_element(b2) * Y.inverse()
        assert transporter_space(A, B).dim == 8
        W = sl_conjugate_test(A, B)
        assert sl_conjugate(A, B) == (W is not None)
        square = F5.mul(b, F5.inv(b2)) in (1, 4)
        assert (W is not None) == square
        if W is not None and A != B:
            assert W.det() == 1 and W * B == A * W
            assert W == _first_det_one_by_coefficients(A, B)
        verdicts.add(square)
    assert verdicts == {True, False}


def test_sl4_f7_diagonal_conjugates_are_decided_without_a_walk():
    # diag(2,2,2,1) has type exponent 1, so every GL-conjugate in SL4(F7) is
    # SL-conjugate to it; T(A, B) has dimension 10, and its first
    # determinant-1 unit lies past SPAN_CAP in the ascending walk
    F7 = make_field(7, 1)
    A = Mat.diagonal(F7, [2, 2, 2, 1])
    rng = random.Random(12)
    pairs = [X * A * X.inverse() for X in (_random_invertible(rng, F7, 4) for _ in range(20))]
    start = time.perf_counter()
    assert all(sl_conjugate(A, B) for B in pairs)
    assert time.perf_counter() - start < 0.5
    assert all(transporter_space(A, B).dim == 10 for B in pairs)


def test_growth_of_an_irreducible_quadratic_is_arithmetic():
    # x^2 + x + 1 over F_2 stays irreducible over F_(2^r), r odd, and splits
    # for r even: |C| = 2^(2r) - 1, respectively (2^r - 1)^2
    F2 = make_field(2, 1)
    g = Mat.companion(F2, (1, 1, 1))
    growth = growth_degree(FamilySpec(GL, 2), F2, g, [1, 2, 3, 9])
    assert growth.orders == (3, 9, 63, 2**18 - 1)
    assert growth.stable and growth.degree == 2

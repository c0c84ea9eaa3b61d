"""Invariant factors from Krylov chains over F_q against the Smith normal
form of xI - A over F_q[x] (reference.smith_invariant_factors), and the
rational form's transforms against the route that solved every factor's
kernel (reference.rcf_backtracking)."""
from __future__ import annotations

import random
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from reference import monic_irreducibles, rcf_backtracking, smith_invariant_factors
from zclasskit.ff import make_field, poly_mul
from zclasskit.matfq import Mat, charpoly, invariant_factors, minpoly, rcf

# F_2 to F_9
FIELDS = [make_field(p, m) for p, m in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))]


def _random_invertible(rng, ctx, n: int) -> Mat:
    while True:
        X = Mat(ctx, n, [rng.randrange(ctx.q) for _ in range(n * n)])
        if X.det():
            return X


def _power(ctx, f, e: int):
    out = (1,)
    for _ in range(e):
        out = poly_mul(ctx, out, f)
    return out


def _random_chain(rng, ctx, k: int, irr) -> tuple[tuple[int, ...], ...]:
    """k invariant factors d_1 | ... | d_k of total degree at most 6, in
    divisibility order: d_1 is an irreducible of degree <= 2 and each
    d_(i+1) is d_i, or d_i times one more such irreducible. Equal steps give
    repeated factors (d_1 = ... = d_k of degree 1: a scalar block), and
    repeated irreducibles powers f^e, inseparable when p divides e."""
    while True:
        chain = [rng.choice(irr)]
        for _ in range(k - 1):
            step = rng.choice((None, rng.choice(irr)))
            chain.append(chain[-1] if step is None else poly_mul(ctx, chain[-1], step))
        if sum(len(f) - 1 for f in chain) <= 6:
            return tuple(chain)


def _frobenius_block(ctx, chain) -> Mat:
    """Block diagonal of the companion matrices of chain."""
    n = sum(len(f) - 1 for f in chain)
    data, offset = [0] * (n * n), 0
    for f in chain:
        C = Mat.companion(ctx, f)
        for i in range(C.n):
            for j in range(C.n):
                data[(offset + i) * n + offset + j] = C.data[i * C.n + j]
        offset += C.n
    return Mat(ctx, n, data)


def _seeded_noncyclic(ctx, count: int, seed: int):
    """(chain, a conjugate of its Frobenius block) for count seeded chains of
    two to four invariant factors, n <= 6."""
    rng = random.Random(seed)
    irr = monic_irreducibles(ctx, 2)
    out = []
    for i in range(count):
        chain = _random_chain(rng, ctx, 2 + i % 3, irr)
        X = _random_invertible(rng, ctx, sum(len(f) - 1 for f in chain))
        out.append((chain, X * _frobenius_block(ctx, chain) * X.inverse()))
    return out


def test_seeded_noncyclic_matrices_match_the_smith_oracle():
    repeats = set()  # the characteristics in which a factor repeated
    for ctx in FIELDS:
        for chain, A in _seeded_noncyclic(ctx, 40, ctx.q):
            assert invariant_factors(A) == chain == smith_invariant_factors(A)
            assert minpoly(A) == chain[-1]
            cp = (1,)
            for f in chain:
                cp = poly_mul(ctx, cp, f)
            assert charpoly(A) == cp
            if len(set(chain)) < len(chain):
                repeats.add(ctx.p)
    assert repeats == {2, 3, 5, 7}


def test_inseparable_factors_over_f2_and_f4():
    # f(x)^2 has zero derivative in characteristic 2: the squares of x + 1
    # and x^2 + x + 1, and their products with each other
    for ctx in (make_field(2, 1), make_field(2, 2)):
        rng = random.Random(ctx.q)
        a, b = (1, 1), (1, 1, 1)
        chains = [
            (_power(ctx, a, 2), _power(ctx, a, 2)),
            (b, _power(ctx, b, 2)),
            (poly_mul(ctx, a, b), poly_mul(ctx, _power(ctx, a, 2), _power(ctx, b, 2))),
            (a, a, _power(ctx, a, 4)),
        ]
        for chain in chains:
            n = sum(len(f) - 1 for f in chain)
            X = _random_invertible(rng, ctx, n)
            A = X * _frobenius_block(ctx, chain) * X.inverse()
            assert invariant_factors(A) == chain == smith_invariant_factors(A)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_random_matrices_match_the_smith_oracle(data):
    ctx = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(1, 5))
    top = data.draw(st.sampled_from((1, ctx.q - 1)))  # 0/1 entries are often not cyclic
    A = Mat(ctx, n, data.draw(st.lists(st.integers(0, top), min_size=n * n, max_size=n * n)))
    assert invariant_factors(A) == smith_invariant_factors(A)


def test_an_eigenspace_no_short_walk_leaves_returns_at_once():
    # every vector among the first q^2 = 390 625 of F_625^3 lies in the
    # 2-eigenspace, so a walk of F_q^n for a vector of the full minimal
    # polynomial would stop at SPAN_CAP
    ctx = make_field(5, 4)
    start = time.perf_counter()
    facs = invariant_factors(Mat.diagonal(ctx, [1, 2, 2]))
    assert time.perf_counter() - start < 0.05
    assert facs == ((3, 1), poly_mul(ctx, (4, 1), (3, 1)))


def test_rcf_transform_is_the_all_kernels_route():
    # rcf takes the identity rows as the kernel of the largest factor, which
    # is the minimal polynomial; rcf_backtracking solves kernel_basis of f(A)
    # for every factor f and picks the same first fits
    for ctx in FIELDS[:5]:
        rng = random.Random(100 + ctx.q)
        irr = monic_irreducibles(ctx, 2)
        for i in range(24):
            chain = _random_chain(rng, ctx, 1 + i % 4, irr)
            X = _random_invertible(rng, ctx, sum(len(f) - 1 for f in chain))
            A = X * _frobenius_block(ctx, chain) * X.inverse()
            facs = smith_invariant_factors(A)
            assert rcf(A).transform == rcf_backtracking(A, facs).transform


def test_canonical_forms_are_computed_once_and_kept_on_the_matrix():
    for ctx in FIELDS:
        for _, A in _seeded_noncyclic(ctx, 10, ctx.q):
            facs, form = invariant_factors(A), rcf(A)
            assert invariant_factors(A) is facs
            assert rcf(A) is form
            fresh = Mat(ctx, A.n, A.data)
            assert rcf(fresh) == form
            assert invariant_factors(fresh) == facs

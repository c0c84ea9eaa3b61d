"""Field layer: moduli, arithmetic tiers, embeddings, norms, power classes."""
from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zclasskit.errors import BoundExceeded
from zclasskit.ff import (
    FqElem,
    _factorize,
    embed,
    frobenius,
    make_field,
    mult_generator,
    norm,
    parse_field,
    poly_gcd,
    poly_mod,
    poly_mul,
    power_class_count,
)

SMALL_Q = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3), (2, 4), (5, 2), (3, 3)]


# ---------------------------------------------------------------------------
# modulus selection, against a trial-division oracle


def _all_monics(p: int, deg: int):
    for k in range(p**deg):
        coeffs = []
        kk = k
        for _ in range(deg):
            coeffs.append(kk % p)
            kk //= p
        yield tuple(coeffs) + (1,)


def _irreducible_by_trial_division(p: int, f: tuple[int, ...]) -> bool:
    prime = make_field(p, 1)
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for g in _all_monics(p, d):
            if poly_mod(prime, f, g) == ():
                return False
    return True


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_modulus_is_lex_least_irreducible(p, m):
    ctx = make_field(p, m)
    # the scan order encodes high-degree coefficients as high base-p digits,
    # matching integer order on the candidate index
    least = None
    for f in _all_monics(p, m):
        if _irreducible_by_trial_division(p, f):
            least = f
            break
    assert ctx.modulus == least


def test_known_moduli_frozen():
    assert make_field(2, 2).modulus == (1, 1, 1)
    assert make_field(2, 3).modulus == (1, 1, 0, 1)
    assert make_field(2, 4).modulus == (1, 1, 0, 0, 1)
    assert make_field(3, 2).modulus == (1, 0, 1)
    assert make_field(3, 3).modulus == (1, 2, 0, 1)
    assert make_field(5, 2).modulus == (2, 0, 1)
    assert make_field(7, 1).modulus == (0, 1)


def test_make_field_is_cached_singleton():
    assert make_field(3, 2) is make_field(3, 2)
    assert make_field(2, 1) is not make_field(2, 2)


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(6, 2)
    with pytest.raises(ValueError):
        make_field(3, 0)


def test_make_field_bound(monkeypatch):
    with pytest.raises(BoundExceeded):
        make_field(2, 21)
    monkeypatch.setenv("ZK_MAX_FIELD", str(2**22))
    ctx = make_field(2, 21)
    assert ctx.q == 2**21
    assert make_field(2, 21, max_order=2**21).q == 2**21


def test_parse_field():
    assert parse_field("3^2") is make_field(3, 2)
    assert parse_field("9") is make_field(3, 2)
    assert parse_field("7") is make_field(7, 1)
    with pytest.raises(ValueError):
        parse_field("12")


# ---------------------------------------------------------------------------
# arithmetic: axioms and cross-tier agreement


@pytest.mark.parametrize("p,m", SMALL_Q)
def test_field_axioms_exhaustive(p, m):
    ctx = make_field(p, m)
    q = ctx.q
    for a in range(q):
        assert ctx.add(a, 0) == a
        assert ctx.mul(a, 1) == a
        assert ctx.add(a, ctx.neg(a)) == 0
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
    rng = random.Random(20260816)
    triples = (
        [(a, b, c) for a in range(q) for b in range(q) for c in range(q)]
        if q <= 9
        else [(rng.randrange(q), rng.randrange(q), rng.randrange(q)) for _ in range(400)]
    )
    for a, b, c in triples:
        assert ctx.add(a, b) == ctx.add(b, a)
        assert ctx.mul(a, b) == ctx.mul(b, a)
        assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))


@pytest.mark.parametrize(
    "p,m",
    [(2, 2), (3, 2), (2, 4), (5, 2), (2, 10), (5, 4), (2, 17)],
    ids=lambda v: str(v),
)
def test_mul_agrees_with_polynomial_reduction(p, m):
    # independent route: multiply coefficient tuples over the prime field
    # and reduce by the modulus explicitly
    ctx = make_field(p, m)
    prime = make_field(p, 1)
    rng = random.Random(97)
    q = ctx.q
    pairs = (
        [(a, b) for a in range(q) for b in range(q)]
        if q <= 32
        else [(rng.randrange(q), rng.randrange(q)) for _ in range(300)]
    )
    for a, b in pairs:
        fa = tuple(c for c in ctx.coeffs(a))
        fb = tuple(c for c in ctx.coeffs(b))
        prod = poly_mod(prime, poly_mul(prime, fa, fb), ctx.modulus)
        expected = ctx.encode(prod + (0,) * (m - len(prod)))
        assert ctx.mul(a, b) == expected
        if b:
            assert ctx.mul(ctx.mul(a, b), ctx.inv(b)) == a


@pytest.mark.parametrize("p,m", [(2, 10), (5, 4), (2, 17)])
def test_pow_matches_repeated_multiplication(p, m):
    ctx = make_field(p, m)
    rng = random.Random(5)
    for _ in range(40):
        a = rng.randrange(1, ctx.q)
        e = rng.randrange(0, 50)
        acc = 1
        for _ in range(e):
            acc = ctx.mul(acc, a)
        assert ctx.pow(a, e) == acc
    a = rng.randrange(1, ctx.q)
    assert ctx.mul(ctx.pow(a, -1), a) == 1


# ---------------------------------------------------------------------------
# raw arithmetic: the packed multiply against tables and polynomial reduction

# fields with full tables: every prime power up to 512 with m >= 2, every
# prime below 100, and the primes either side of 128 and 256 plus the
# largest, where the slot width of the packed multiply changes. Primes
# above 100 meet a sample of partners: a prime field near 512 takes 0.2 s
# to build, and all pairs of all 97 prime fields are 8M products.
TABLE_FIELDS = [
    (p, m)
    for fac in map(_factorize, range(2, 513))
    if len(fac) == 1
    for p, m in fac.items()
    if p < 100 or p in (127, 131, 251, 257, 509)
]

# the raw fields the h1 grid multiplies in
RAW_FIELDS = [(2, 30), (2, 60), (3, 12), (3, 20), (7, 20), (11, 12), (13, 8)]


def _reference_mul(ctx, a, b):
    prime = make_field(ctx.p, 1)
    prod = poly_mod(prime, poly_mul(prime, ctx.coeffs(a), ctx.coeffs(b)), ctx.modulus)
    return ctx.encode(prod + (0,) * (ctx.m - len(prod)))


@pytest.mark.parametrize("p,m", TABLE_FIELDS, ids=lambda v: str(v))
def test_raw_mul_agrees_with_tables(p, m):
    ctx = make_field(p, m)
    q = ctx.q
    raw, table = ctx._mul_raw, ctx._mul_tab
    if m == 1 and p > 100:
        partners = sorted({0, 1, 2, p - 2, p - 1} | set(random.Random(p).sample(range(q), 11)))
    else:
        partners = range(q)
    for a in range(q):
        assert [raw(a, b) for b in partners] == [table[a * q + b] for b in partners], a


@pytest.mark.parametrize("p,m", [f for f in TABLE_FIELDS if f[1] >= 2 or f[0] < 20],
                         ids=lambda v: str(v))
def test_add_and_neg_tables_agree_with_raw(p, m):
    ctx = make_field(p, m)
    q = ctx.q
    for a in range(q):
        assert [ctx._add_raw(a, b) for b in range(q)] == ctx._add_tab[a * q:(a + 1) * q], a
    assert [ctx._neg_raw(a) for a in range(q)] == ctx._neg_tab


@pytest.mark.parametrize("p,m", RAW_FIELDS, ids=lambda v: str(v))
def test_raw_mul_agrees_with_polynomial_reduction(p, m):
    ctx = make_field(p, m, max_order=p**m)
    assert ctx._exp is None and ctx._mul_tab is None
    rng = random.Random(p * 100 + m)
    top = ctx.q - 1  # all digits p - 1: the largest slot sums
    pairs = [(top, top), (top, 1), (0, top)]
    pairs += [(rng.randrange(ctx.q), rng.randrange(ctx.q)) for _ in range(60)]
    for a, b in pairs:
        assert ctx._mul_raw(a, b) == _reference_mul(ctx, a, b)


@pytest.mark.parametrize(
    "p,m", [(2, 10), (2, 16), (3, 7), (3, 10), (5, 6), (7, 5), (11, 4), (13, 4)],
    ids=lambda v: str(v),
)
def test_exp_table_is_the_generator_walk(p, m):
    ctx = make_field(p, m)
    assert ctx._exp is not None and ctx._mul_tab is None
    g = mult_generator(ctx).code
    cur = 1
    for i, code in enumerate(ctx._exp):
        assert code == cur, i
        assert ctx._log[code] == i
        cur = ctx._mul_raw(cur, g)
    assert cur == 1
    rng = random.Random(m)
    for i in rng.sample(range(ctx.q - 1), 20):
        assert ctx._mul_raw(ctx._exp[i], g) == _reference_mul(ctx, ctx._exp[i], g)


@pytest.mark.parametrize("p,m", [(3, 20), (2, 60)], ids=lambda v: str(v))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_raw_field_axioms(p, m, data):
    ctx = make_field(p, m, max_order=p**m)
    a, b, c = (data.draw(st.integers(0, ctx.q - 1)) for _ in range(3))
    assert ctx.mul(a, b) == ctx.mul(b, a)
    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    if a:
        assert ctx.mul(a, ctx.inv(a)) == 1
    # x -> x^p is additive
    assert ctx.pow(ctx.add(a, b), p) == ctx.add(ctx.pow(a, p), ctx.pow(b, p))


def test_element_wrapper_operations():
    ctx = make_field(3, 2)
    a = FqElem(ctx, 4)
    b = FqElem(ctx, 7)
    assert (a + b).code == ctx.add(4, 7)
    assert (a - b).code == ctx.sub(4, 7)
    assert (a * b).code == ctx.mul(4, 7)
    assert (a / b) * b == a
    assert (a**0).code == 1
    assert (a**-1 * a).code == 1
    assert (-a + a).code == 0
    assert bool(FqElem(ctx, 0)) is False
    with pytest.raises(ZeroDivisionError):
        a / FqElem(ctx, 0)
    other = make_field(2, 2)
    with pytest.raises(ValueError):
        a + FqElem(other, 1)
    with pytest.raises(ValueError):
        FqElem(ctx, 9)


# ---------------------------------------------------------------------------
# Frobenius


@pytest.mark.parametrize("p,m,r", [(2, 4, 1), (2, 4, 2), (2, 4, 4), (3, 2, 1), (2, 6, 3)])
def test_frobenius_fixed_points_count(p, m, r):
    ctx = make_field(p, m)
    fixed = [x for x in ctx.elements() if frobenius(ctx, r, x).code == x]
    assert len(fixed) == p**r


@pytest.mark.parametrize("p,m", [(2, 4), (3, 2), (5, 2)])
def test_frobenius_is_ring_automorphism(p, m):
    ctx = make_field(p, m)
    for a in ctx.elements():
        for b in ctx.elements():
            fa, fb = frobenius(ctx, 1, a), frobenius(ctx, 1, b)
            assert frobenius(ctx, 1, ctx.add(a, b)).code == ctx.add(fa.code, fb.code)
            assert frobenius(ctx, 1, ctx.mul(a, b)).code == ctx.mul(fa.code, fb.code)


def test_frobenius_rejects_non_divisor_degree():
    ctx = make_field(2, 4)
    with pytest.raises(ValueError):
        frobenius(ctx, 3, 1)


# ---------------------------------------------------------------------------
# embeddings


@pytest.mark.parametrize(
    "src_pm,dst_pm",
    [((2, 1), (2, 2)), ((2, 2), (2, 4)), ((2, 1), (2, 4)), ((3, 1), (3, 2)),
     ((5, 1), (5, 2)), ((2, 2), (2, 6)), ((3, 2), (3, 4))],
)
def test_embed_is_injective_ring_hom(src_pm, dst_pm):
    src = make_field(*src_pm)
    dst = make_field(*dst_pm)
    images = {}
    for a in src.elements():
        images[a] = embed(src, dst, a).code
    assert len(set(images.values())) == src.q
    assert images[0] == 0
    assert images[1] == 1
    for a in src.elements():
        for b in src.elements():
            assert images[src.add(a, b)] == dst.add(images[a], images[b])
            assert images[src.mul(a, b)] == dst.mul(images[a], images[b])


@pytest.mark.parametrize(
    "p,low,mid,high",
    [(2, 2, 4, 8), (3, 2, 4, 8), (2, 3, 6, 12), (2, 2, 6, 12)],
)
def test_embed_tower_compatibility(p, low, mid, high):
    # the triangle low -> mid -> high must equal the direct arrow
    f_low = make_field(p, low)
    f_mid = make_field(p, mid)
    f_high = make_field(p, high, max_order=p**high)
    for a in f_low.elements():
        via = embed(f_mid, f_high, embed(f_low, f_mid, a))
        direct = embed(f_low, f_high, a)
        assert via.code == direct.code


def test_embed_image_is_frobenius_fixed_subfield():
    f4 = make_field(2, 2)
    f16 = make_field(2, 4)
    image = {embed(f4, f16, a).code for a in f4.elements()}
    fixed = {x for x in f16.elements() if frobenius(f16, 2, x).code == x}
    assert image == fixed


def test_embed_rejects_non_subfield():
    with pytest.raises(ValueError):
        embed(make_field(2, 2), make_field(2, 3), 1)
    with pytest.raises(ValueError):
        embed(make_field(2, 1), make_field(3, 1), 1)


# ---------------------------------------------------------------------------
# norms


def test_norm_f9_to_f3_values_and_fibers():
    f9 = make_field(3, 2)
    f3 = make_field(3, 1)
    values = [norm(f9, 1, x) for x in f9.units()]
    assert all(v.ctx is f3 for v in values)
    # norm is x^(1+3) here; the unit-group image has index 1
    counts = {c: 0 for c in range(1, 3)}
    for v in values:
        counts[v.code] += 1
    assert counts == {1: 4, 2: 4}
    assert norm(f9, 1, 0).code == 0


@pytest.mark.parametrize("p,m,r", [(2, 4, 2), (2, 4, 1), (2, 6, 3), (3, 4, 2), (5, 2, 1)])
def test_norm_is_multiplicative_and_surjective(p, m, r):
    ext = make_field(p, m)
    sub = make_field(p, r)
    rng = random.Random(11)
    for _ in range(60):
        a = rng.randrange(1, ext.q)
        b = rng.randrange(1, ext.q)
        na, nb = norm(ext, r, a), norm(ext, r, b)
        assert norm(ext, r, ext.mul(a, b)).code == sub.mul(na.code, nb.code)
    image = {norm(ext, r, x).code for x in ext.units()}
    assert image == set(sub.units())
    kernel = [x for x in ext.units() if norm(ext, r, x).code == 1]
    assert len(kernel) == (ext.q - 1) // (sub.q - 1)


def test_norm_fixes_subfield_elements():
    ext = make_field(2, 4)
    sub = make_field(2, 2)
    for a in sub.elements():
        lifted = embed(sub, ext, a)
        # norm multiplies m/r conjugates, all equal to a on the subfield
        expected = sub.pow(a, ext.m // sub.m)
        assert norm(ext, sub.m, lifted).code == expected


# ---------------------------------------------------------------------------
# multiplicative generators and power classes


@pytest.mark.parametrize("p,m", SMALL_Q)
def test_mult_generator_is_least_full_order(p, m):
    ctx = make_field(p, m)
    g = mult_generator(ctx)

    def order_of(u: int) -> int:
        k, acc = 1, u
        while acc != 1:
            acc = ctx.mul(acc, u)
            k += 1
        return k

    assert order_of(g.code) == ctx.q - 1
    for smaller in range(1, g.code):
        assert order_of(smaller) < ctx.q - 1


@pytest.mark.parametrize("p,m", [(2, 2), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (2, 4)])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 12])
def test_power_classes_match_enumeration(p, m, n):
    ctx = make_field(p, m)
    pc = power_class_count(ctx, n)
    nth_powers = frozenset(ctx.pow(u, n) for u in ctx.units())
    cosets = {frozenset(ctx.mul(u, s) for s in nth_powers) for u in ctx.units()}
    assert pc.size == len(cosets) == math.gcd(n, ctx.q - 1)
    # representatives are the least member of each coset, listed ascending
    assert list(pc.reps) == sorted(min(c) for c in cosets)


def test_power_classes_rejects_bad_n():
    with pytest.raises(ValueError):
        power_class_count(make_field(3, 1), 0)


# ---------------------------------------------------------------------------
# polynomial helpers


def test_poly_gcd_basics():
    f3 = make_field(3, 1)
    f = poly_mul(f3, (1, 1), (2, 1))  # (x+1)(x+2) = x^2 + 2
    g = poly_mul(f3, (1, 1), (1, 1))  # (x+1)^2
    assert f == (2, 0, 1)
    assert poly_gcd(f3, f, g) == (1, 1)


def test_poly_gcd_with_zero_is_monic():
    f3 = make_field(3, 1)
    assert poly_gcd(f3, (2, 0, 2), ()) == (1, 0, 1)
    assert poly_gcd(f3, (2, 2), ()) == (1, 1)
    assert poly_gcd(f3, (), (0, 2)) == (0, 1)

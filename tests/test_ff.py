"""Field layer: moduli, arithmetic tiers, embeddings, norms, power classes."""
from __future__ import annotations

import math
import random
import time
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zclasskit import ff
from zclasskit.errors import BoundExceeded
from zclasskit.ff import (
    FqElem,
    _factorize,
    embed,
    make_field,
    mult_generator,
    parse_field,
    poly_eval,
    poly_gcd,
    poly_mod,
    poly_mul,
    poly_roots,
    power_class_count,
)
from zclasskit.matfq import Mat

from reference import (
    big_field,
    embedding_root_by_scan,
    frobenius,
    irreducible_by_pow_mod,
    norm,
    poly_divmod_by_ctx,
    poly_gcd_by_ctx,
    roots_by_scan,
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


# every field the benchmark workloads build above the full tables: the
# exp/log tier, then the raw tier
SEARCHED_FIELDS = [
    (2, 10), (2, 12), (3, 6), (3, 8), (3, 10), (5, 4), (5, 5), (5, 6), (7, 4),
    (11, 3), (11, 4), (13, 3), (13, 4),
    (2, 20), (2, 24), (2, 30), (2, 40), (2, 60), (3, 12), (3, 20), (5, 8), (5, 10),
    (5, 12), (7, 6), (7, 8), (7, 10), (7, 20), (11, 6), (11, 8), (11, 12), (13, 6), (13, 8),
]


@pytest.mark.parametrize("p,m", SEARCHED_FIELDS, ids=lambda v: str(v))
def test_packed_search_agrees_with_pow_mod_route(p, m):
    # every monic candidate up to and including the least irreducible
    prime = make_field(p, 1)
    for f in _all_monics(p, m):
        expected = irreducible_by_pow_mod(prime, f)
        assert ff._irreducible(p, f) == expected, f
        if expected:
            break
    assert f == big_field(p, m).modulus


@pytest.mark.parametrize("p,m", [(2, 6), (2, 8), (3, 4), (3, 6), (5, 4), (7, 3), (11, 2)],
                         ids=lambda v: str(v))
def test_packed_search_agrees_with_pow_mod_route_on_every_monic(p, m):
    prime = make_field(p, 1)
    for f in _all_monics(p, m):
        assert ff._irreducible(p, f) == irreducible_by_pow_mod(prime, f), f


# the prime fields of the integer gcd kernel: p = 2 bit-packed, odd p on
# lists, and primes either side of the 8-bit and 9-bit lines
GCD_PRIMES = [2, 3, 5, 7, 13, 251, 509]


def _random_poly(rng: random.Random, p: int, top: int) -> tuple[int, ...]:
    return ff.poly_trim(tuple(rng.randrange(p) for _ in range(rng.randrange(top + 1))))


def _gcd_cases(p: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Seeded pairs (f, g) over F_p, a third of them with g | f, then the edges:
    zero, constants, equal degrees, a non-monic divisor, exact division."""
    prime = make_field(p, 1)
    rng = random.Random(1000 + p)
    cases = []
    for k in range(150):
        f, g = _random_poly(rng, p, 14), _random_poly(rng, p, 9)
        if k % 3 == 0:
            f = poly_mul(prime, f, g)
        cases.append((f, g))
    lead = p - 1 if p > 2 else 1
    cases += [
        ((), ()), ((), (1,)), ((1,), ()), ((), (0, 1)), ((0, 1), ()),
        ((lead,), (1,)), ((1,), (lead,)), ((lead,), (lead,)),
        ((1, 2 % p, 1), (1, 1, 1)), ((lead, 1, lead), (1, lead, 1)),
        ((1, 0, 0, 1), (1, 1)), ((0, 0, 1), (0, lead)),
        (poly_mul(prime, (1, 1), (lead, 0, lead)), (lead, 0, lead)),
        (poly_mul(prime, (2 % p, 1, 1), (1, 1)), (1, 1)),
    ]
    return cases


@pytest.mark.parametrize("p", GCD_PRIMES)
def test_integer_gcd_kernel_agrees_with_the_context_route(p, monkeypatch):
    prime = make_field(p, 1)
    cases = _gcd_cases(p)
    expected = [
        (poly_divmod_by_ctx(prime, f, g) if g else None, poly_gcd_by_ctx(prime, f, g))
        for f, g in cases
    ]

    # the kernel makes no context call at all
    def refused(*args):
        raise AssertionError("a prime-field gcd called the field context")

    for name in ("add", "sub", "neg", "mul", "inv", "pow"):
        monkeypatch.setattr(ff.FieldCtx, name, refused)
    for (f, g), (divmod_, gcd_) in zip(cases, expected):
        if g:
            assert ff.poly_divmod(prime, f, g) == divmod_, (f, g)
            assert poly_mod(prime, f, g) == divmod_[1], (f, g)
        else:
            with pytest.raises(ZeroDivisionError):
                ff.poly_divmod(prime, f, g)
        assert poly_gcd(prime, f, g) == gcd_, (f, g)


def test_known_remainders_trim_to_nothing():
    F5 = make_field(5, 1)
    # x^2 - 1 = (x - 1)(x + 1) with a non-monic divisor 2x + 2
    assert ff.poly_divmod(F5, (4, 0, 1), (2, 2)) == ((2, 3), ())
    assert poly_gcd(F5, (4, 0, 1), (2, 2)) == (1, 1)
    F2 = make_field(2, 1)
    assert ff.poly_divmod(F2, (1, 0, 0, 1), (1, 1)) == ((1, 1, 1), ())
    assert ff.poly_divmod(F2, (1, 1), (1, 0, 1)) == ((), (1, 1))


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


def test_prime_field_is_built_once(monkeypatch):
    built = []
    init = ff.FieldCtx.__init__

    def counted(self, *args):
        built.append(args[:2])
        init(self, *args)

    monkeypatch.setattr(ff, "_FIELDS", {})
    monkeypatch.setattr(ff.FieldCtx, "__init__", counted)
    ctx = make_field(509, 1)
    assert built == [(509, 1)]
    assert make_field(509, 1) is ctx and ctx.modulus == (0, 1)


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


def _fresh(p: int, m: int):
    """A context of F_{p^m} on the canonical modulus, outside the field cache."""
    return ff.FieldCtx(p, m, make_field(p, m).modulus)


def _with_tables(p: int, m: int):
    """A fresh context of F_{p^m} whose q*q tables are built up front."""
    ctx = _fresh(p, m)
    ctx._build_small_tables()
    return ctx


@pytest.mark.parametrize("p,m", TABLE_FIELDS, ids=lambda v: str(v))
def test_raw_mul_agrees_with_tables(p, m):
    ctx = _with_tables(p, m)
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
    ctx = _with_tables(p, m)
    q = ctx.q
    for a in range(q):
        assert [ctx._add_raw(a, b) for b in range(q)] == ctx._add_tab[a * q:(a + 1) * q], a
    assert [ctx._neg_raw(a) for a in range(q)] == ctx._neg_tab


# table fields on both sides of the p = 2 / odd split and of m = 1, up to
# F_121, whose q*q = 14641 operations keep a crossing sequence short
LAZY_TABLE_FIELDS = [(2, 1), (3, 1), (2, 3), (3, 2), (5, 1), (13, 1), (2, 5), (3, 3), (11, 2)]


@pytest.mark.parametrize("p,m", LAZY_TABLE_FIELDS, ids=lambda v: str(v))
def test_table_tier_builds_its_tables_after_q_squared_operations(p, m):
    ctx = _fresh(p, m)
    q = ctx.q
    assert ctx._mul_tab is None and ctx._add_tab is None and ctx._exp is None
    for k in range(q * q - 1):
        ctx.add(k % q, 1)
    assert ctx._mul_tab is None
    ctx.mul(1, 1)  # the q*q-th operation the tables would serve
    assert None not in (ctx._add_tab, ctx._mul_tab, ctx._neg_tab, ctx._inv_tab)


def _mixed_answers(ctx, steps: int):
    """One seeded sequence of add/sub/neg/mul/inv/pow calls and 3x3 Mat
    products, answer by answer."""
    rng = random.Random(ctx.q)
    q = ctx.q
    for _ in range(steps):
        a, u = rng.randrange(q), rng.randrange(1, q)
        kind = rng.randrange(7)
        if kind == 0:
            yield ctx.add(a, u)
        elif kind == 1:
            yield ctx.sub(a, u)
        elif kind == 2:
            yield ctx.neg(a)
        elif kind == 3:
            yield ctx.mul(a, u)
        elif kind == 4:
            yield ctx.inv(u)
        elif kind == 5:
            yield ctx.pow(u, rng.randrange(-q, 2 * q))
        else:
            A = Mat(ctx, 3, [rng.randrange(q) for _ in range(9)])
            B = Mat(ctx, 3, [rng.randrange(q) for _ in range(9)])
            yield (A * B).data


@pytest.mark.parametrize("p,m", LAZY_TABLE_FIELDS, ids=lambda v: str(v))
def test_answers_do_not_change_when_the_tables_are_built(p, m):
    lazy, eager = _fresh(p, m), _with_tables(p, m)
    q = lazy.q
    # a step charges about 12 operations on average (a Mat product 27 terms,
    # then 54 scalar calls), so the build falls well inside the sequence
    steps = q * q // 4 + 20
    built_at = None
    pairs = zip(_mixed_answers(lazy, steps), _mixed_answers(eager, steps))
    for i, (got, expected) in enumerate(pairs):
        assert got == expected, i
        if built_at is None and lazy._mul_tab is not None:
            built_at = i
    assert built_at is not None
    if q * q > 81:  # more than one Mat product's charge: some answers came first
        assert built_at > 0


@pytest.mark.parametrize("p,m", RAW_FIELDS, ids=lambda v: str(v))
def test_raw_mul_agrees_with_polynomial_reduction(p, m):
    ctx = big_field(p, m)
    assert ctx._exp is None and ctx._mul_tab is None
    rng = random.Random(p * 100 + m)
    top = ctx.q - 1  # all digits p - 1: the largest slot sums
    pairs = [(top, top), (top, 1), (0, top)]
    pairs += [(rng.randrange(ctx.q), rng.randrange(ctx.q)) for _ in range(60)]
    for a, b in pairs:
        assert ctx._mul_raw(a, b) == _reference_mul(ctx, a, b)


EXP_LOG_FIELDS = [(2, 10), (2, 16), (3, 7), (3, 10), (5, 6), (7, 5), (11, 4), (13, 4)]


def _walk_by_multiplying(ctx) -> int:
    """Multiply through ctx.mul until the exp/log table is walked, as bulk
    work would; the number of products it took."""
    a, steps = 1, 0
    while ctx._exp is None:
        assert steps < ctx.q, "the raw path never walked the exp/log table"
        a = ctx.mul(a, ctx.p)
        steps += 1
    return steps


@pytest.mark.parametrize("p,m", EXP_LOG_FIELDS, ids=lambda v: str(v))
def test_exp_log_tier_starts_without_tables(p, m):
    ctx = _fresh(p, m)
    assert ctx._exp is None and ctx._log is None and ctx._mul_tab is None
    mult_generator(ctx)  # finding the generator walks nothing
    assert ctx._exp is None
    # the raw path pays for the walk before it is taken: q - 1 products
    assert _walk_by_multiplying(ctx) == ctx.q - 1
    assert ctx._exp is not None and len(ctx._exp) == ctx.q - 1


@pytest.mark.parametrize("p,m", EXP_LOG_FIELDS, ids=lambda v: str(v))
def test_exp_log_tables_keep_the_raw_answers(p, m):
    ctx = _fresh(p, m)
    rng = random.Random(p * 100 + m)
    sample = [(rng.randrange(ctx.q), rng.randrange(1, ctx.q), rng.randrange(-ctx.q, 2 * ctx.q))
              for _ in range(12)]

    def answers():
        return [(ctx.mul(a, u), ctx.mul(u, a), ctx.inv(u), ctx.pow(u, e), ctx.pow(a, abs(e)))
                for a, u, e in sample]

    before = answers()
    assert ctx._exp is None  # the sample ran on the raw path
    _walk_by_multiplying(ctx)
    assert answers() == before


@pytest.mark.parametrize("p,m", EXP_LOG_FIELDS, ids=lambda v: str(v))
def test_exp_table_is_the_generator_walk(p, m):
    ctx = make_field(p, m)
    _walk_by_multiplying(ctx)
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
    ctx = big_field(p, m)
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
    f_high = big_field(p, high)
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


def _prime_powers(bound: int) -> list[int]:
    return [q for q in range(2, bound + 1) if len(_factorize(q)) == 1]


def test_embedding_root_matches_the_scan_on_every_tower_to_2_16():
    towers = [
        (p, a, b)
        for p, b in map(ff.prime_power, _prime_powers(2**16))
        for a in range(2, b)
        if b % a == 0
    ]
    assert len(towers) == 33
    for p, a, b in towers:
        src, dst = make_field(p, a), make_field(p, b)
        assert ff._embedding_root(src, dst) == embedding_root_by_scan(src, dst), (p, a, b)


def test_embedding_root_from_a_non_prime_field_is_fast():
    src, dst = make_field(2, 5), make_field(2, 20)
    ff._embedding_root.cache_clear()
    t0 = time.perf_counter()
    rho = ff._embedding_root(src, dst)
    elapsed = time.perf_counter() - t0
    assert poly_eval(dst, src.modulus, rho) == 0
    assert elapsed < 0.05, f"F_2^5 -> F_2^20 embedding root took {elapsed:.3f} s"


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


def _seeded_poly(ctx, kind: int, rng: random.Random):
    """A seeded polynomial and its roots by the scan. Kind 0-5: random of
    degree kind + 1; 6: five linear factors, two of them repeated; 7: a
    quadratic with no root."""
    q = ctx.q
    while True:
        if kind < 6:
            f = tuple(rng.randrange(q) for _ in range(kind + 1)) + (rng.randrange(1, q),)
        elif kind == 6:
            rs = [rng.randrange(q) for _ in range(3)]
            f = reduce(lambda g, r: poly_mul(ctx, g, (ctx.neg(r), 1)), rs + rs[:2], (1,))
        else:
            f = (rng.randrange(q), rng.randrange(q), 1)
        roots = roots_by_scan(ctx, f)
        if kind < 7 or not roots:
            return f, roots


def test_poly_roots_match_the_scan_on_every_field_to_2_12():
    # every kind up to order 256; above it one random quadratic per field
    # (two roots, one or none), so that the scans of 534 fields stay short
    for q in _prime_powers(2**12):
        p, m = ff.prime_power(q)
        # prime fields are built outside the field cache, so that their
        # q*q tables do not outlive the test
        ctx = ff.FieldCtx(p, 1, (0, 1)) if m == 1 else make_field(p, m)
        rng = random.Random(q)
        for kind in range(8) if q <= 256 else (1,):
            f, roots = _seeded_poly(ctx, kind, rng)
            assert poly_roots(ctx, f) == roots, (q, f)
    assert poly_roots(make_field(3, 2), (2,)) == []


def test_poly_roots_above_the_old_scan_bound():
    # F_4 lies in F_2^22 (4.19M elements), and x^2 + x + 1 has both its cube
    # roots of unity there; under a split by a = 0, 1, 2, ... every a below
    # theta^21 has trace 0 for the modulus x^22 + x + 1, and the search hangs
    F = ff._field(2, 22)
    assert F.modulus == (1, 1) + (0,) * 20 + (1,)
    t0 = time.perf_counter()
    roots = poly_roots(F, (1, 1, 1))
    elapsed = time.perf_counter() - t0
    assert len(roots) == 2 and roots == sorted(roots)
    assert all(r != 1 and F.pow(r, 3) == 1 for r in roots)
    assert elapsed < 0.1, f"roots of x^2 + x + 1 over F_2^22 took {elapsed:.3f} s"

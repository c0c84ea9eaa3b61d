"""GL and SL z-classes by type: the type-key seed partition against the
table route and a type census (in SL the key adds a determinant class),
the structural route against the pairwise route it replaced, and F_q[h]
against the solved commutant."""
from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from reference import monic_irreducibles, pairwise_structural_z_equivalent
from zclasskit import limits, zclass
from zclasskit.errors import BoundExceeded
from zclasskit.ff import make_field, poly_mul
from zclasskit.grpcore import GL, SL, FamilySpec, conjugacy_classes, family_order, instantiate
from zclasskit.matfq import (
    Mat,
    TransporterSpace,
    centralizer_algebra,
    det_class,
    factors_type,
    invariant_factors,
    polynomial_algebra,
    regular_unipotent,
)
from zclasskit.zclass import geometric_stabilize, structural_z_equivalent, z_equivalent, z_partition

F5 = make_field(5, 1)

# every GL_n table within FULL_TABLE_LIMIT, as (n, p, m)
FULL_GL_TABLES = [(2, p, m) for p, m in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3),
                                         (3, 2), (11, 1), (13, 1), (2, 4), (17, 1))]
FULL_GL_TABLES += [(3, 2, 1), (3, 3, 1), (4, 2, 1)]

# F_2 to F_9
FIELDS = [make_field(p, m) for p, m in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))]


def _type(A: Mat):
    return factors_type(A.ctx, invariant_factors(A))


def _partitions(k: int, top: int | None = None):
    """The partitions of k with parts at most top, largest part first."""
    if k == 0:
        yield ()
        return
    for first in range(min(k, top or k), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first,) + rest


def _type_census(ctx, n: int) -> int:
    """The number of types of GL_n(q): multisets of (d, lambda) with
    sum d*|lambda| = n, holding at most as many entries of degree d as there
    are monic irreducibles of degree d other than x."""
    avail = Counter(len(f) - 1 for f in monic_irreducibles(ctx, n) if f != (0, 1))
    items = [(d, lam) for d in range(1, n + 1) for k in range(1, n // d + 1)
             for lam in _partitions(k)]

    def count(start: int, left: int, used: Counter) -> int:
        if left == 0:
            return 1
        total = 0
        for i in range(start, len(items)):
            d, lam = items[i]
            if d * sum(lam) <= left and used[d] < avail[d]:
                used[d] += 1
                total += count(i, left - d * sum(lam), used)
                used[d] -= 1
        return total

    return count(0, n, Counter())


def test_full_gl_tables_are_every_gl_table_within_the_limit():
    for n, p, m in FULL_GL_TABLES:
        assert family_order(FamilySpec(GL, n), make_field(p, m)) <= limits.FULL_TABLE_LIMIT
    for n, p, m in ((2, 19, 1), (3, 2, 2), (4, 3, 1), (5, 2, 1)):
        assert family_order(FamilySpec(GL, n), make_field(p, m)) > limits.FULL_TABLE_LIMIT


@pytest.mark.parametrize("n,p,m", FULL_GL_TABLES, ids=lambda v: str(v))
def test_type_key_partition_is_the_table_route(n, p, m):
    ctx = make_field(p, m)
    table = instantiate(FamilySpec(GL, n), ctx)
    part = z_partition(table)
    # z_partition refines the classes in class order by centralizer
    # conjugacy: the blocks _refine gives over z_equivalent on the reps
    classes = conjugacy_classes(table)
    index = {c.rep_id: i for i, c in enumerate(classes)}
    want = tuple(tuple(index[r] for r in b.class_ids) for b in part.blocks)
    reps = [table.mat_of(c.rep_id) for c in classes]
    assert zclass._seed_partition(table.family, ctx, reps) == want
    assert part.zclass_count == _type_census(ctx, n) == len({_type(r) for r in reps})


def _random_element(rng, ctx, n: int, kind: str) -> Mat:
    while True:
        g = Mat(ctx, n, [rng.randrange(ctx.q) for _ in range(n * n)])
        if g.det() == 1 if kind == SL else g.det() != 0:
            return g


def _random_regular(rng, ctx, n: int, kind: str) -> Mat:
    while True:
        g = _random_element(rng, ctx, n, kind)
        if len(invariant_factors(g)) == 1:
            return g


def _same_type_partner(rng, g: Mat) -> Mat:
    """A conjugate of a regular element of F_q[g] of g's determinant: it
    generates F_q[g], so it has g's type."""
    ctx, n = g.ctx, g.n
    basis = polynomial_algebra(g).basis
    while True:
        y = Mat.zero(ctx, n)
        for b in basis:
            y = y + b.scale(rng.randrange(ctx.q))
        if y.det() == g.det() and len(invariant_factors(y)) == 1:
            X = _random_element(rng, ctx, n, GL)
            return X * y * X.inverse()


def _seeded_pairs(ctx, kind: str):
    rng = random.Random(ctx.q * 10 + (kind == SL))
    scalars = [Mat.scalar(ctx, n, c) for n in (2, 3, 4) for c in ctx.units()
               if kind == GL or ctx.pow(c, n) == 1]
    for n in (2, 3, 4):
        for i in range(6):
            g = _random_regular(rng, ctx, n, kind)
            h = _same_type_partner(rng, g) if i % 2 else _random_regular(rng, ctx, n, kind)
            yield g, h
        s = rng.choice([m for m in scalars if m.n == n])
        yield s, g
        yield g, s
        yield s, rng.choice([m for m in scalars if m.n == n])


@pytest.mark.parametrize("kind", [GL, SL])
@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: c.name)
def test_structural_route_matches_the_pairwise_route(monkeypatch, ctx, kind):
    real_walk = TransporterSpace.walk
    walks = []

    def counted(self):
        walks.append(self.dim)
        return real_walk(self)

    monkeypatch.setattr(TransporterSpace, "walk", counted)
    hits = 0
    for g, h in _seeded_pairs(ctx, kind):
        walks.clear()
        got = structural_z_equivalent(kind, g, h)
        walked = bool(walks)
        want = pairwise_structural_z_equivalent(kind, g, h)
        assert (got is None) == (want is None)
        if got is not None:
            hits += 1
            assert got == want
        if _type(g) != _type(h):
            assert got is None and not walked
    assert hits >= 9


def test_same_type_gl_walk_is_counted_not_refused():
    # 5^8 = 390 625 elements in h's commutant, above SPAN_CAP: the pairwise
    # route refuses the pair up front, while for one type a hit is known to
    # exist, so the walk goes ahead and here its hit comes early; the SL
    # input, the companion of x^8 + x + 1, has determinant 1
    for kind, f in ((GL, (2, 1, 0, 0, 0, 0, 0, 0, 1)), (SL, (1, 1, 0, 0, 0, 0, 0, 0, 1))):
        h = Mat.companion(F5, f)
        assert kind == GL or h.det() == 1
        with pytest.raises(BoundExceeded):
            pairwise_structural_z_equivalent(kind, h, h)
        assert structural_z_equivalent(kind, h, h) == Mat.identity(F5, 8)


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: c.name)
def test_polynomial_algebra_is_the_commutant_of_a_regular_element(ctx):
    rng = random.Random(ctx.q)
    for n in (1, 2, 3, 4):
        for _ in range(4):
            h = _random_regular(rng, ctx, n, GL)
            assert polynomial_algebra(h).basis == centralizer_algebra(h).basis


def test_gl_seed_partition_builds_no_table_and_tests_no_pair(monkeypatch):
    # the non-regular GL3(F5) seeds the table route needed a 1.49M-element
    # table for at r = 1 and could not take at all at r = 2
    def refuse(*args, **kwargs):
        raise AssertionError("a GL seed partition took a pairwise route")

    monkeypatch.setattr(zclass, "instantiate", refuse)
    monkeypatch.setattr(zclass, "structural_z_equivalent", refuse)
    seeds = [Mat.diagonal(F5, d) for d in ([1, 1, 2], [1, 2, 2], [3, 3, 4], [1, 2, 3])]
    res = geometric_stabilize(FamilySpec(GL, 3), F5, seeds, 4)
    assert res.partitions == (((0, 1, 2), (3,)),) * 4
    assert res.stable_at == 1


# ---------------------------------------------------------------------------
# SL: the type and a determinant class

# SL tables the census pins, as (n, p, m)
SL_TABLES = [(2, p, m) for p, m in ((3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                                    (11, 1), (13, 1), (2, 4), (17, 1), (19, 1))]
SL_TABLES += [(3, 2, 1), (3, 3, 1), (3, 2, 2), (4, 2, 1)]


@pytest.mark.parametrize(
    "typ,p,m,count",
    [
        (((1, (3,)),), 2, 2, 3),  # SL3(F4) regular unipotent: D = 3
        (((1, (2,)),), 5, 1, 1),  # SL2(F5) regular unipotent: D = 1
        (((1, (4,)),), 3, 2, 2),  # D = 2
        (((1, (8,)),), 3, 2, 4),  # D = 4
        (((1, (4,)), (1, (4,))), 3, 2, 2),  # D = 2
    ],
)
def test_det_class_index(typ, p, m, count):
    # the det classes of F_q^x number gcd(D, q - 1), which is D on these
    # fields, and the trivial class is 1
    ctx = make_field(p, m)
    n = sum(d * a for d, (a,) in typ)
    assert det_class(typ, Mat.identity(ctx, n)) == 1
    diags = (Mat.diagonal(ctx, [c] + [1] * (n - 1)) for c in ctx.units())
    assert len({det_class(typ, x) for x in diags}) == count


@pytest.mark.filterwarnings("ignore:characteristic")
@pytest.mark.parametrize("n,p,m", SL_TABLES, ids=lambda v: str(v))
def test_sl_key_partition_is_the_table_route(n, p, m):
    ctx = make_field(p, m)
    table = instantiate(FamilySpec(SL, n, allow_bad_characteristic=True), ctx)
    reps = [table.mat_of(c.rep_id) for c in conjugacy_classes(table)]
    seeds = [r for r in reps if r.is_scalar() or len(invariant_factors(r)) == 1]
    want = zclass._refine(seeds, lambda a, b: z_equivalent(table, a, b) is not None)
    assert zclass._seed_partition(table.family, ctx, seeds) == want


def _det_one_charpolys(ctx, typ):
    """Every characteristic polynomial prod f_i^(a_i) of determinant 1, with
    f_i distinct monic irreducibles other than x, f_i of degree d_i for the
    entries (d_i, (a_i,)) of typ, ascending."""
    irr = [f for f in monic_irreducibles(ctx, max(d for d, _ in typ)) if f != (0, 1)]
    out = set()
    for fs in itertools.permutations(irr, len(typ)):
        if all(len(f) - 1 == d for f, (d, _) in zip(fs, typ)):
            poly = (1,)
            for f, (_, (a,)) in zip(fs, typ):
                for _ in range(a):
                    poly = poly_mul(ctx, poly, f)
            if Mat.companion(ctx, poly).det() == 1:
                out.add(poly)
    return sorted(out)


def _conjugate(rng, A: Mat) -> Mat:
    X = _random_element(rng, A.ctx, A.n, GL)
    return X * A * X.inverse()


@pytest.mark.parametrize(
    "typ,p,m,pairs",
    [
        (((1, (3,)),), 7, 1, 6),
        (((1, (4,)),), 3, 1, 6),
        (((1, (4,)),), 5, 1, 6),
        (((2, (2,)),), 5, 1, 6),
        (((1, (2,)), (1, (2,))), 3, 1, 6),
        (((2, (3,)),), 2, 2, 4),  # a degree-2 factor with D = 3
    ],
    ids=str,
)
def test_sl_structural_route_matches_the_pairwise_route(monkeypatch, typ, p, m, pairs):
    # seeded same-type pairs: even ones share a characteristic polynomial,
    # odd ones take another where the type has one
    ctx = make_field(p, m)
    polys = _det_one_charpolys(ctx, typ)
    rng = random.Random(ctx.q * 100 + len(polys))
    hits = 0
    for i in range(pairs):
        f = rng.choice(polys)
        others = [e for e in polys if e != f] if i % 2 else [f]
        g = _conjugate(rng, Mat.companion(ctx, f))
        h = _conjugate(rng, Mat.companion(ctx, rng.choice(others or [f])))
        assert _type(g) == _type(h) == typ
        got = structural_z_equivalent(SL, g, h)
        want = pairwise_structural_z_equivalent(SL, g, h)
        assert (got is None) == (want is None)
        if got is not None:
            hits += 1
            assert got == want
    assert 0 < hits


def test_sl_seed_partition_builds_no_table_and_tests_no_sl_pair(monkeypatch):
    # regular unipotents u_1, u_w, u_(w^2) and the scalars 1, w of SL3(F4),
    # over F4 and F16; the pairwise route decides the expected blocks
    F4 = make_field(2, 2)
    seeds = [regular_unipotent(3, 1, F4), Mat.identity(F4, 3), regular_unipotent(3, 2, F4),
             Mat.scalar(F4, 3, 2), regular_unipotent(3, 3, F4)]
    want = []
    for r in (1, 2):
        ext = make_field(2, 2 * r)
        up = [zclass.mat_embed(s, ext) for s in seeds]
        want.append(zclass._refine(
            up, lambda a, b: pairwise_structural_z_equivalent(SL, a, b) is not None))
    assert want[0] == ((0,), (1, 3), (2,), (4,))

    def refuse(*args, **kwargs):
        raise AssertionError("an SL seed partition built a table")

    real = zclass.structural_z_equivalent

    def gl_only(kind, g, h):
        assert kind == GL, "an SL seed partition tested a pair in SL"
        return real(kind, g, h)

    monkeypatch.setattr(zclass, "instantiate", refuse)
    monkeypatch.setattr(zclass, "structural_z_equivalent", gl_only)
    res = geometric_stabilize(FamilySpec(SL, 3), F4, seeds, 2)
    assert res.partitions == tuple(want)

"""Z-equivalence partitions, base change, fusion, growth, stabilization."""
from __future__ import annotations

import itertools
import random

import pytest

from zclasskit.errors import BoundExceeded
from zclasskit.ff import make_field, mult_generator, poly_eval, poly_is_squarefree
from zclasskit.grpcore import (
    BOREL_GL,
    BOREL_SL,
    DIHEDRAL,
    GL,
    SL,
    FamilySpec,
    centralizer,
    closure_generate,
    conjugacy_classes,
    instantiate,
)
from zclasskit.matfq import (
    Mat,
    centralizer_algebra,
    charpoly,
    is_unipotent,
    minpoly,
    regular_unipotent,
    weil_embed,
)
from zclasskit import limits, zclass
from zclasskit.zclass import (
    base_change_probe,
    fusion_count,
    geometric_stabilize,
    growth_degree,
    structural_z_equivalent,
    z_equivalent,
    z_partition,
)

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)
F5 = make_field(5, 1)


@pytest.fixture(scope="module")
def sl3_f4():
    return instantiate(FamilySpec(SL, 3), F4)


def _brute_z_blocks(table):
    """Partition conjugacy classes by unfiltered subgroup-conjugacy scans."""
    classes = conjugacy_classes(table)
    cents = {c.rep_id: centralizer(table, c.rep_id).member_set for c in classes}
    blocks: list[list[int]] = []
    for c in classes:
        zc = cents[c.rep_id]
        placed = False
        for blk in blocks:
            z0 = cents[blk[0]]
            if len(z0) != len(zc):
                continue
            for x in table.elements:
                xi = x.inverse()
                if {x * m * xi for m in z0} == zc:
                    blk.append(c.rep_id)
                    placed = True
                    break
            if placed:
                break
        if not placed:
            blocks.append([c.rep_id])
    return {tuple(b) for b in blocks}


# ---------------------------------------------------------------------------
# partitions


@pytest.mark.parametrize(
    "kind,n,ctx",
    [(GL, 2, F2), (GL, 2, F3), (SL, 2, F3), (DIHEDRAL, 5, None)],
)
def test_partition_matches_brute_force(kind, n, ctx):
    table = instantiate(FamilySpec(kind, n), ctx)
    part = z_partition(table)
    assert {b.class_ids for b in part.blocks} == _brute_z_blocks(table)


def test_partition_gl2_f2():
    part = z_partition(instantiate(FamilySpec(GL, 2), F2))
    assert part.zclass_count == 3


def test_partition_gl2_f3():
    part = z_partition(instantiate(FamilySpec(GL, 2), F3))
    assert part.zclass_count == 4
    assert {b.centralizer.order for b in part.blocks} == {48, 6, 4, 8}
    ident_block = part.block_of(part.table.identity_id)
    assert ident_block.class_count == 2  # the two scalar classes


def test_partition_gl2_f5():
    part = z_partition(instantiate(FamilySpec(GL, 2), F5))
    assert part.zclass_count == 4
    assert {b.centralizer.order for b in part.blocks} == {480, 16, 24, 20}


def test_partition_abelian_single_block():
    for spec, ctx in ((FamilySpec(BOREL_GL, 2), F2), (FamilySpec(BOREL_SL, 2), F3)):
        part = z_partition(instantiate(spec, ctx))
        assert part.zclass_count == 1


def test_partition_dihedral_d5():
    part = z_partition(instantiate(FamilySpec(DIHEDRAL, 5)))
    assert part.zclass_count == 3


def test_partition_with_filter_sl2_f5():
    table = instantiate(FamilySpec(SL, 2), F5)
    ident = Mat.identity(F5, 2)
    part = z_partition(table, lambda m: is_unipotent(m) and m != ident)
    assert part.zclass_count == 1
    assert part.blocks[0].class_count == 2
    assert part.blocks[0].centralizer.order == 10


def test_partition_bound(monkeypatch):
    table = instantiate(FamilySpec(SL, 2), F3)
    monkeypatch.setattr(limits, "FULL_TABLE_LIMIT", 10)
    with pytest.raises(BoundExceeded, match="order 24 exceeds FULL_TABLE_LIMIT 10"):
        z_partition(table)


def test_max_bounds_name_their_knob():
    group, field = "(ZK_MAX_GROUP / --max-group)", "(ZK_MAX_FIELD / --max-field)"
    u = regular_unipotent(2, 1, F5)
    gl2, borel2 = FamilySpec(GL, 2), FamilySpec(BOREL_GL, 2)
    cases = [
        (lambda: instantiate(gl2, F5, max_order=10), "above bound 10 " + group),
        (lambda: closure_generate(F5, [u], max_order=3), "exceeded bound 3 " + group),
        (lambda: zclass._ext_centralizer_order(gl2, F5, u, 10), "exceeds 10 " + group),
        (lambda: zclass._seed_partition(borel2, F5, [u], 10), "beyond both routes " + group),
        (lambda: make_field(3, 5, max_order=10), "exceeds bound 10 " + field),
    ]
    for call, text in cases:
        with pytest.raises(BoundExceeded) as exc:
            call()
        assert text in str(exc.value)


def test_partition_summary_shape():
    part = z_partition(instantiate(FamilySpec(GL, 2), F2))
    s = part.summary()
    assert s["group"] == "gl:2@2"
    assert s["zclass_count"] == 3
    assert len(s["blocks"]) == 3
    blk = s["blocks"][0]
    assert set(blk) == {"rep", "classes", "centralizer_order", "fingerprint"}
    rows = part.csv_rows()
    assert rows[0] == ["rep", "class_count", "centralizer_order", "abelian"]
    assert len(rows) == 4


# ---------------------------------------------------------------------------
# pairwise equivalence


def test_z_equivalent_reflexive_identity_witness():
    table = instantiate(FamilySpec(SL, 2), F3)
    g = regular_unipotent(2, 1, F3)
    w = z_equivalent(table, g, g)
    assert w is not None


def test_z_equivalent_sl2_f5_unipotents():
    table = instantiate(FamilySpec(SL, 2), F5)
    u1 = regular_unipotent(2, 1, F5)
    u2 = regular_unipotent(2, 2, F5)
    w = z_equivalent(table, u1, u2)
    assert w is not None
    z1 = centralizer(table, table.id_of(u1))
    z2 = centralizer(table, table.id_of(u2))
    wi = w.inverse()
    assert {w * m * wi for m in z1.members} == z2.member_set


def test_z_equivalent_abelian_borel():
    table = instantiate(FamilySpec(BOREL_GL, 2), F2)
    assert z_equivalent(table, Mat.identity(F2, 2), regular_unipotent(2, 1, F2)) is not None


def test_z_equivalent_negative():
    table = instantiate(FamilySpec(GL, 2), F3)
    assert z_equivalent(table, Mat.diagonal(F3, [1, 2]), regular_unipotent(2, 1, F3)) is None


def test_z_equivalence_is_equivalence_relation():
    table = instantiate(FamilySpec(SL, 2), F3)
    n = table.order
    rel = [[z_equivalent(table, i, j) is not None for j in range(n)] for i in range(n)]
    for i in range(n):
        assert rel[i][i]
        for j in range(n):
            assert rel[i][j] == rel[j][i]
            for k in range(n):
                if rel[i][j] and rel[j][k]:
                    assert rel[i][k]


# ---------------------------------------------------------------------------
# structural route


def test_structural_agrees_with_table_route_gl2_f3():
    table = instantiate(FamilySpec(GL, 2), F3)
    reps = [table.mat_of(c.rep_id) for c in conjugacy_classes(table)]
    for a, b in itertools.product(reps, repeat=2):
        got = structural_z_equivalent(GL, a, b)
        want = z_equivalent(table, a, b)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.det() != 0


def test_structural_agrees_with_table_route_sl2_f3():
    table = instantiate(FamilySpec(SL, 2), F3)
    reps = [table.mat_of(c.rep_id) for c in conjugacy_classes(table)]
    for a, b in itertools.product(reps, repeat=2):
        got = structural_z_equivalent(SL, a, b)
        want = z_equivalent(table, a, b)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.det() == 1


def _squarefree_invertible_cubics(ctx):
    out = []
    for c0 in range(1, ctx.q):
        for c1 in range(ctx.q):
            for c2 in range(ctx.q):
                f = (c0, c1, c2, 1)
                if poly_is_squarefree(ctx, f):
                    out.append(f)
    return out


def test_structural_regular_semisimple_gl3_f5():
    polys = _squarefree_invertible_cubics(F5)
    assert len(polys) == 84
    mats = [Mat.companion(F5, f) for f in polys]
    orders = set()
    for m in mats:
        alg = centralizer_algebra(m)
        assert alg.dim == 3
        orders.add(sum(1 for x in alg.elements() if x.det() != 0))
    assert orders == {64, 96, 124}
    blocks = zclass._refine(
        mats, lambda a, b: structural_z_equivalent(GL, a, b) is not None
    )
    assert len(blocks) == 3
    # blocks must coincide with the base-field root counts (3 / 1 / 0 roots)
    shapes = [sum(1 for a in range(5) if poly_eval(F5, f, a) == 0) for f in polys]
    for block in blocks:
        assert len({shapes[i] for i in block}) == 1
    assert sorted(len(b) for b in blocks) == [4, 40, 40]


def _random_regular(rng, ctx, n: int, kind: str) -> Mat:
    while True:
        g = Mat(ctx, n, [rng.randrange(ctx.q) for _ in range(n * n)])
        if (g.det() == 1 if kind == SL else g.det() != 0) and centralizer_algebra(g).dim == n:
            return g


@pytest.mark.parametrize("ctx", [F3, F4, F5], ids=lambda c: c.name)
def test_structural_witness_transports(ctx):
    # w g w^-1 is a generator of h's commutant: it commutes with h and its
    # minimal polynomial is the characteristic polynomial of g
    rng = random.Random(ctx.q)
    hits = 0
    for kind, n in itertools.product((GL, SL), (2, 3)):
        for i in range(8):
            g = _random_regular(rng, ctx, n, kind)
            if i % 2:
                h = _random_regular(rng, ctx, n, kind)
            else:
                # a regular element of g's commutant, moved by a conjugation
                gens = [y for y in centralizer_algebra(g).elements()
                        if y.det() == g.det() and centralizer_algebra(y).dim == n]
                X = _random_regular(rng, ctx, n, GL)
                h = X * rng.choice(gens) * X.inverse()
            w = structural_z_equivalent(kind, g, h)
            if w is None:
                continue
            hits += 1
            y = w * g * w.inverse()
            assert y * h == h * y
            assert minpoly(y) == charpoly(g)
            assert w.det() != 0 and (kind == GL or w.det() == 1)
    assert hits >= 16


def test_structural_rejects_non_regular():
    with pytest.raises(ValueError):
        structural_z_equivalent(GL, Mat.diagonal(F5, [1, 1, 2]), Mat.diagonal(F5, [1, 2, 3]))
    with pytest.raises(ValueError):
        structural_z_equivalent(SL, Mat.diagonal(F5, [2, 1, 1]), Mat.diagonal(F5, [1, 2, 3]))
    with pytest.raises(ValueError):
        structural_z_equivalent("dihedral", Mat.identity(F5, 2), Mat.identity(F5, 2))


def test_structural_scalars():
    ident = Mat.identity(F5, 3)
    two = Mat.scalar(F5, 3, 2)
    assert structural_z_equivalent(GL, ident, two) is not None
    assert structural_z_equivalent(GL, ident, Mat.companion(F5, (4, 0, 0, 1))) is None


def test_structural_sl3_f4_unipotent_obstruction(sl3_f4):
    u1 = regular_unipotent(3, 1, F4)
    u_omega = regular_unipotent(3, 2, F4)
    assert structural_z_equivalent(SL, u1, u_omega) is None
    assert structural_z_equivalent(SL, u1, u1) is not None
    # table route agrees
    w = z_equivalent(sl3_f4, u1, u_omega)
    assert w is None


def test_partition_sl3_f4_regular_unipotents(sl3_f4):
    ident = Mat.identity(F4, 3)
    part = z_partition(
        sl3_f4,
        lambda m: is_unipotent(m) and m != ident and (m - ident) ** 2 != Mat.zero(F4, 3),
    )
    assert part.zclass_count == 3
    assert all(b.centralizer.order == 48 for b in part.blocks)
    assert all(b.class_count == 1 for b in part.blocks)


# ---------------------------------------------------------------------------
# base change probes


def test_probe_borel_gl2():
    spec = FamilySpec(BOREL_GL, 2)
    rep = base_change_probe(
        spec, F2, 2, [(Mat.identity(F2, 2), regular_unipotent(2, 1, F2))]
    )
    row = rep.rows[0]
    assert row.base_equivalent and not row.ext_equivalent and row.changed
    assert rep.any_changed
    assert rep.summary()["ext_field"] == "2^2"


def test_probe_borel_sl2():
    spec = FamilySpec(BOREL_SL, 2)
    rep = base_change_probe(
        spec, F3, 2, [(Mat.identity(F3, 2), regular_unipotent(2, 1, F3))]
    )
    row = rep.rows[0]
    assert row.base_equivalent and not row.ext_equivalent


def test_probe_tori_fuse_gl2_f3():
    f9 = make_field(3, 2)
    aniso = weil_embed(f9, 1, mult_generator(f9))
    rep = base_change_probe(
        FamilySpec(GL, 2), F3, 2, [(Mat.diagonal(F3, [1, 2]), aniso)]
    )
    row = rep.rows[0]
    assert not row.base_equivalent and row.ext_equivalent and row.changed


# ---------------------------------------------------------------------------
# fusion


def test_fusion_sl2_f5_regular_unipotent():
    table = instantiate(FamilySpec(SL, 2), F5)
    fs = fusion_count(FamilySpec(SL, 2), F5, 2, regular_unipotent(2, 1, F5), table=table)
    assert fs.class_count == 2
    assert fs.zclass_count == 1
    classes = conjugacy_classes(table)

    def class_rep(m):
        eid = table.id_of(m)
        return next(c.rep_id for c in classes if eid in c.member_ids)

    expected = {class_rep(regular_unipotent(2, 1, F5)), class_rep(regular_unipotent(2, 2, F5))}
    assert set(fs.fused_class_reps) == expected


def test_fusion_central_element():
    table = instantiate(FamilySpec(SL, 2), F5)
    fs = fusion_count(FamilySpec(SL, 2), F5, 2, Mat.scalar(F5, 2, 4), table=table)
    assert fs.class_count == 1
    assert fs.zclass_count == 1


def test_fusion_sl3_f4(sl3_f4):
    spec = FamilySpec(SL, 3)
    u1 = regular_unipotent(3, 1, F4)
    fs2 = fusion_count(spec, F4, 2, u1, table=sl3_f4)
    assert fs2.class_count == 1  # the scaling unit is not a cube over F_16
    fs3 = fusion_count(spec, F4, 3, u1, table=sl3_f4)
    assert fs3.class_count == 3
    assert fs3.zclass_count == 3


def test_fusion_table_route_borel():
    spec = FamilySpec(BOREL_GL, 2)
    fs = fusion_count(spec, F2, 2, regular_unipotent(2, 1, F2))
    assert fs.class_count == 1
    assert fs.zclass_count == 1


# ---------------------------------------------------------------------------
# growth


def test_growth_borel_unipotent():
    g = growth_degree(
        FamilySpec(BOREL_GL, 2), F2, regular_unipotent(2, 1, F2), [1, 2, 3, 4]
    )
    assert g.orders == tuple((2**r - 1) * 2**r for r in (1, 2, 3, 4))
    assert g.estimates == (1, 2, 2, 2)
    assert g.stable and g.degree == 2


def test_growth_identity_gl2_f3():
    g = growth_degree(FamilySpec(GL, 2), F3, Mat.identity(F3, 2), [1, 2])
    assert g.orders == (48, 5760)
    assert g.stable and g.degree == 4


def test_growth_split_torus_gl2_f3():
    g = growth_degree(FamilySpec(GL, 2), F3, Mat.diagonal(F3, [1, 2]), [1, 2, 3])
    assert g.orders == (4, 64, 676)
    assert g.estimates == (1, 2, 2)
    assert g.stable and g.degree == 2


def test_growth_nonsplit_torus_gl2_f3():
    f9 = make_field(3, 2)
    g = growth_degree(
        FamilySpec(GL, 2), F3, weil_embed(f9, 1, mult_generator(f9)), [1, 2]
    )
    assert g.orders == (8, 64)
    assert g.stable and g.degree == 2


def test_growth_sl_route():
    g = growth_degree(FamilySpec(SL, 2), F5, regular_unipotent(2, 1, F5), [1, 2])
    assert g.orders == (10, 50)
    assert g.stable and g.degree == 1


def test_growth_flags_short_or_unstable_samples():
    g = growth_degree(FamilySpec(GL, 2), F3, Mat.diagonal(F3, [1, 2]), [1])
    assert not g.stable and g.degree is None
    g = growth_degree(FamilySpec(GL, 2), F3, Mat.diagonal(F3, [1, 2]), [1, 2])
    assert not g.stable and g.degree is None  # estimates 1 then 2


def test_growth_agrees_with_table_centralizer():
    g = growth_degree(FamilySpec(GL, 2), F3, regular_unipotent(2, 1, F3), [1, 2])
    f9 = make_field(3, 2)
    big = instantiate(FamilySpec(GL, 2), f9)
    from zclasskit.matfq import mat_embed

    up = mat_embed(regular_unipotent(2, 1, F3), f9)
    assert g.orders[1] == centralizer(big, big.id_of(up)).order


def test_growth_bound():
    with pytest.raises(BoundExceeded):
        growth_degree(FamilySpec(GL, 2), F3, regular_unipotent(2, 1, F3), [8])


# ---------------------------------------------------------------------------
# stabilization


def _gl2_f3_class_reps():
    table = instantiate(FamilySpec(GL, 2), F3)
    return [table.mat_of(c.rep_id) for c in conjugacy_classes(table)]


def test_stabilize_gl2_f3_within_two_degrees():
    res = geometric_stabilize(FamilySpec(GL, 2), F3, _gl2_f3_class_reps(), 2)
    assert res.block_counts == (4, 3)
    assert res.stable_at is None


def test_stabilize_gl2_f3_certified():
    res = geometric_stabilize(FamilySpec(GL, 2), F3, _gl2_f3_class_reps(), 4)
    # odd-degree extensions keep the irreducible quadratics irreducible, so
    # the nonsplit torus block reappears at r=3; the nested pair (2, 4) agrees
    assert res.block_counts == (4, 3, 4, 3)
    assert res.stable_at == 2
    assert len(res.final_partition) == 3


def test_stabilize_sl2_f5_unipotents():
    seeds = [regular_unipotent(2, 1, F5), regular_unipotent(2, 2, F5)]
    res = geometric_stabilize(FamilySpec(SL, 2), F5, seeds, 2)
    assert res.partitions[0] == ((0, 1),)
    assert res.block_counts == (1, 1)
    assert res.stable_at == 1


def test_stabilize_abelian_family():
    seeds = [Mat.identity(F2, 2), regular_unipotent(2, 1, F2)]
    res = geometric_stabilize(FamilySpec(BOREL_GL, 2), F2, seeds, 4)
    assert res.partitions[0] == ((0, 1),)
    assert res.block_counts == (1, 2, 2, 2)
    assert res.stable_at == 2
    s = res.summary()
    assert s["stable_at"] == 2 and s["block_counts"] == [1, 2, 2, 2]


def test_stabilize_input_validation():
    with pytest.raises(ValueError):
        geometric_stabilize(FamilySpec(GL, 2), F3, [], 2)
    with pytest.raises(ValueError):
        geometric_stabilize(FamilySpec(GL, 2), F3, [Mat.identity(F3, 2)], 0)

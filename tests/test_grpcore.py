"""Group engine: tables, classes, centralizers, normalizers, quotients."""
from __future__ import annotations

import itertools
import random

import pytest

from zclasskit.errors import BadCharacteristic, BoundExceeded, ConsistencyError
from zclasskit.ff import make_field, mult_generator, prime_power
from zclasskit.grpcore import (
    BOREL_GL,
    BOREL_SL,
    DIHEDRAL,
    GL,
    HEISENBERG,
    SL,
    UNIPOTENT,
    FamilySpec,
    VirtualGroup,
    center,
    centralizer,
    closure_generate,
    conjugacy_classes,
    dihedral_context,
    dihedral_generators,
    element_order,
    family_order,
    instantiate,
    normalizer,
    parse_element_spec,
    parse_group_spec,
    quotient,
    standard_generators,
    subgroup_from_members,
    subgroups_conjugate,
    whole_group,
)
from zclasskit.matfq import Mat, heisenberg_element, regular_unipotent, weil_embed

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)
F5 = make_field(5, 1)


@pytest.fixture(scope="module")
def sl3_f4():
    return instantiate(FamilySpec(SL, 3), F4)


# ---------------------------------------------------------------------------
# instantiation and orders


@pytest.mark.parametrize(
    "kind,n,ctx,expected",
    [
        (GL, 2, F2, 6),
        (GL, 2, F3, 48),
        (GL, 2, F5, 480),
        (SL, 2, F3, 24),
        (SL, 2, F5, 120),
        (BOREL_GL, 2, F2, 2),
        (BOREL_GL, 2, F3, 12),
        (BOREL_SL, 2, F3, 6),
        (UNIPOTENT, 3, F5, 125),
        (HEISENBERG, 3, F5, 125),
        (UNIPOTENT, 4, F3, 729),
        (GL, 4, F2, 20160),
        pytest.param(SL, 4, F2, 20160, marks=pytest.mark.filterwarnings("ignore:characteristic")),
    ],
)
def test_family_orders(kind, n, ctx, expected):
    spec = FamilySpec(kind, n, allow_bad_characteristic=True)
    assert family_order(spec, ctx) == expected
    table = instantiate(spec, ctx)
    assert table.order == expected
    ids = {m.data for m in table.elements}
    assert len(ids) == expected


_SMALL_LINEAR = [
    (kind, n, q)
    for kind in (GL, SL)
    for n in (2, 3)
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19)
    if family_order(FamilySpec(kind, n), make_field(*prime_power(q))) <= 12_000
]


@pytest.mark.filterwarnings("ignore:characteristic")
@pytest.mark.parametrize("kind,n,q", _SMALL_LINEAR)
def test_row_enumerator_matches_closure(kind, n, q):
    # the closure over the standard generators is the independent reference
    ctx = make_field(*prime_power(q))
    spec = FamilySpec(kind, n, allow_bad_characteristic=True)
    closure = closure_generate(ctx, standard_generators(spec, ctx))
    want = sorted(m.data for m in closure.elements)
    assert [m.data for m in instantiate(spec, ctx).elements] == want


def test_gl3_order_formula():
    table = instantiate(FamilySpec(GL, 3), F2)
    assert table.order == (8 - 1) * (8 - 2) * (8 - 4)


def test_sl3_f4_order(sl3_f4):
    assert sl3_f4.order == 60480


def test_elements_sorted_canonically():
    table = instantiate(FamilySpec(SL, 2), F3)
    datas = [m.data for m in table.elements]
    assert datas == sorted(datas)
    for i, m in enumerate(table.elements):
        assert table.id_of(m) == i


def test_instantiate_bound():
    with pytest.raises(BoundExceeded):
        instantiate(FamilySpec(GL, 2), F5, max_order=100)


def test_instantiate_bound_env(monkeypatch):
    monkeypatch.setenv("ZK_MAX_GROUP", "10")
    with pytest.raises(BoundExceeded):
        instantiate(FamilySpec(SL, 2), F3)


def test_characteristic_guard():
    with pytest.raises(BadCharacteristic):
        instantiate(FamilySpec(SL, 2), F2)
    with pytest.raises(BadCharacteristic):
        instantiate(FamilySpec(BOREL_SL, 2), F4)
    with pytest.raises(BadCharacteristic):
        instantiate(FamilySpec(SL, 3), F3)
    with pytest.warns(UserWarning):
        table = instantiate(FamilySpec(SL, 2, allow_bad_characteristic=True), F2)
    assert table.order == 6
    # GL is unconstrained
    instantiate(FamilySpec(GL, 2), F2)


def test_parse_group_spec():
    spec, ctx = parse_group_spec("gl:2@3^1")
    assert spec == FamilySpec(GL, 2) and ctx is F3
    spec, ctx = parse_group_spec("sl:3@2^2")
    assert spec == FamilySpec(SL, 3) and ctx is F4
    spec, ctx = parse_group_spec("borel-gl:2@2^1")
    assert spec == FamilySpec(BOREL_GL, 2) and ctx is F2
    spec, ctx = parse_group_spec("u3@5^1")
    assert spec == FamilySpec(UNIPOTENT, 3) and ctx is F5
    spec, ctx = parse_group_spec("dihedral:7")
    assert spec == FamilySpec(DIHEDRAL, 7) and ctx is None
    spec, ctx = parse_group_spec("heisenberg@5")
    assert spec == FamilySpec(HEISENBERG, 3) and ctx is F5
    with pytest.raises(ValueError):
        parse_group_spec("gl:2")
    with pytest.raises(ValueError):
        parse_group_spec("so:3@5^1")


def test_parse_element_spec():
    spec = FamilySpec(GL, 2)
    assert parse_element_spec(spec, F3, "[1,1;0,1]") == regular_unipotent(2, 1, F3)
    assert parse_element_spec(spec, F3, "identity") == Mat.identity(F3, 2)
    assert parse_element_spec(spec, F5, "u_beta:2") == regular_unipotent(2, 2, F5)
    h = parse_element_spec(FamilySpec(UNIPOTENT, 3), F5, "h:3")
    assert h == heisenberg_element(3, F5)
    with pytest.raises(ValueError, match="3x3"):
        parse_element_spec(spec, F3, "[1,0,0;0,1,0;0,0,1]")
    with pytest.raises(ValueError, match="not an integer"):
        parse_element_spec(spec, F3, "u_beta:x")
    with pytest.raises(ValueError, match="unknown element constructor"):
        parse_element_spec(spec, F3, "w:1")
    with pytest.raises(ValueError, match="3-dimensional"):
        parse_element_spec(spec, F3, "h:1")
    with pytest.raises(ValueError, match="cannot parse element"):
        parse_element_spec(spec, F3, "banana")


def test_dihedral_realization():
    ctx = dihedral_context(5)
    assert ctx.q == 11
    rot, refl = dihedral_generators(5, ctx)
    assert rot == Mat.diagonal(ctx, [3, 4])
    assert refl == Mat.from_rows(ctx, [[0, 1], [1, 0]])
    table = instantiate(FamilySpec(DIHEDRAL, 5))
    assert table.order == 10 and table.ctx is ctx
    assert instantiate(FamilySpec(DIHEDRAL, 6)).ctx.q == 7
    assert dihedral_context(7).q == 8


def test_functoriality_embedding():
    from zclasskit.matfq import mat_embed

    small = instantiate(FamilySpec(GL, 2), F2)
    big = instantiate(FamilySpec(GL, 2), F4)
    images = [mat_embed(m, F4) for m in small.elements]
    assert all(big.contains(im) for im in images)
    assert len({im.data for im in images}) == small.order
    # products carry over
    a, b = small.elements[2], small.elements[3]
    assert mat_embed(a * b, F4) == mat_embed(a, F4) * mat_embed(b, F4)


# ---------------------------------------------------------------------------
# closure generation


def test_closure_trivial_and_discovery_order():
    table = closure_generate(F3, [Mat.identity(F3, 2)])
    assert table.order == 1
    gens = [Mat.from_rows(F3, [[1, 1], [0, 1]]), Mat.from_rows(F3, [[1, 0], [1, 1]])]
    table = closure_generate(F3, gens)
    assert table.order == 24  # 3 * (9 - 1)
    assert table.elements[0].is_identity()
    assert table.elements[1] == Mat.from_rows(F3, [[1, 0], [1, 1]])


def test_closure_dihedral_count():
    ctx = dihedral_context(7)
    rot, refl = dihedral_generators(7, ctx)
    table = closure_generate(ctx, [rot, refl])
    assert table.order == 14


def test_closure_bound_and_bad_input():
    gens = [Mat.from_rows(F5, [[1, 1], [0, 1]])]
    with pytest.raises(BoundExceeded):
        closure_generate(F5, gens, max_order=3)
    with pytest.raises(ValueError):
        closure_generate(F5, [Mat.zero(F5, 2)])
    with pytest.raises(ValueError):
        closure_generate(F5, [])


# ---------------------------------------------------------------------------
# conjugacy classes


def _brute_classes(table):
    remaining = set(table.ids())
    classes = []
    while remaining:
        seed = min(remaining)
        g = table.mat_of(seed)
        orbit = {table.id_of(x * g * x.inverse()) for x in table.elements}
        classes.append(frozenset(orbit))
        remaining -= orbit
    return set(classes)


def test_classes_gl2_f2():
    table = instantiate(FamilySpec(GL, 2), F2)
    classes = conjugacy_classes(table)
    assert sorted(c.size for c in classes) == [1, 2, 3]
    assert len(classes) == 3


def test_classes_match_brute_force_sl2_f3():
    table = instantiate(FamilySpec(SL, 2), F3)
    classes = conjugacy_classes(table)
    assert len(classes) == 7
    assert sum(c.size for c in classes) == 24
    assert {frozenset(c.member_ids) for c in classes} == _brute_classes(table)
    for c in classes:
        members = [table.mat_of(i).data for i in c.member_ids]
        assert table.mat_of(c.rep_id).data == min(members)


def test_classes_abelian_singletons():
    table = instantiate(FamilySpec(BOREL_GL, 2), F2)
    classes = conjugacy_classes(table)
    assert all(c.size == 1 for c in classes)
    assert len(classes) == 2


def test_class_counts_frozen():
    assert len(conjugacy_classes(instantiate(FamilySpec(GL, 2), F3))) == 8
    assert len(conjugacy_classes(instantiate(FamilySpec(GL, 2), F5))) == 24


def test_orbit_stabilizer_identity():
    table = instantiate(FamilySpec(GL, 2), F3)
    for c in conjugacy_classes(table):
        z = centralizer(table, c.rep_id)
        assert c.size * z.order == table.order


# ---------------------------------------------------------------------------
# centralizers and center


def test_centralizer_identity_whole_group():
    table = instantiate(FamilySpec(SL, 2), F3)
    z = centralizer(table, table.identity_id)
    assert z.order == table.order


def test_centralizer_regular_unipotent_sl2_f3():
    table = instantiate(FamilySpec(SL, 2), F3)
    u = regular_unipotent(2, 1, F3)
    z = centralizer(table, table.id_of(u))
    assert z.order == 6
    expected = set()
    for a in (1, 2):
        if F3.mul(a, a) != 1:
            continue
        for b in range(3):
            expected.add(Mat.from_rows(F3, [[a, b], [0, a]]))
    assert z.member_set == expected


def test_centralizer_heisenberg_element():
    table = instantiate(FamilySpec(HEISENBERG, 3), F5)
    h = heisenberg_element(2, F5)
    z = centralizer(table, table.id_of(h))
    assert z.order == 25
    for m in z.members:
        assert m[0, 1] == F5.mul(2, m[1, 2])


def test_centralizer_conjugation_equivariance():
    table = instantiate(FamilySpec(SL, 2), F3)
    rng = random.Random(6)
    for _ in range(8):
        gid = rng.randrange(table.order)
        x = table.mat_of(rng.randrange(table.order))
        g = table.mat_of(gid)
        z = centralizer(table, gid)
        conj_id = table.id_of(x * g * x.inverse())
        z_conj = centralizer(table, conj_id)
        xi = x.inverse()
        assert z_conj.member_set == {x * m * xi for m in z.members}


def test_center_examples():
    assert center(instantiate(FamilySpec(GL, 2), F3)).order == 2
    heis = center(instantiate(FamilySpec(HEISENBERG, 3), F5))
    assert heis.order == 5
    for m in heis.members:
        assert m[0, 1] == 0 and m[1, 2] == 0
    assert center(instantiate(FamilySpec(DIHEDRAL, 5))).order == 1
    assert center(instantiate(FamilySpec(DIHEDRAL, 6))).order == 2


def test_sl3_f4_unipotent_centralizer_and_normalizer(sl3_f4):
    table = sl3_f4
    u = regular_unipotent(3, 1, F4)
    z = centralizer(table, table.id_of(u))
    assert z.order == 48
    n = normalizer(table, z)
    assert n.order == 576
    # closed form: upper triangular, middle diagonal entry a cube root of
    # unity, last diagonal entry forced by determinant one
    expected = set()
    for a11 in F4.units():
        for a22 in F4.units():
            if F4.pow(a22, 3) != 1:
                continue
            a33 = F4.inv(F4.mul(a11, a22))
            for b, c, d in itertools.product(range(4), repeat=3):
                expected.add(
                    Mat.from_rows(F4, [[a11, b, c], [0, a22, d], [0, 0, a33]])
                )
    assert n.member_set == expected


# ---------------------------------------------------------------------------
# normalizers, subgroup conjugacy


def test_normalizer_whole_group():
    table = instantiate(FamilySpec(SL, 2), F3)
    g = whole_group(table)
    assert normalizer(table, g).order == table.order


def _diagonal_subgroup(table):
    diag = [m for m in table.elements if all(m[i, j] == 0 for i in range(m.n) for j in range(m.n) if i != j)]
    return subgroup_from_members(table, diag)


def test_normalizer_split_torus_gl2_f3():
    table = instantiate(FamilySpec(GL, 2), F3)
    T = _diagonal_subgroup(table)
    assert T.order == 4
    N = normalizer(table, T)
    assert N.order == 8
    assert T.member_set <= N.member_set


def test_subgroups_conjugate_trivial_and_order_filter():
    table = instantiate(FamilySpec(GL, 2), F3)
    T = _diagonal_subgroup(table)
    assert subgroups_conjugate(table, T, T) == table.identity_id
    # nonsplit torus: cyclic of order 8 from the multiplicative group of F_9
    f9 = make_field(3, 2)
    gen_image = weil_embed(f9, 1, mult_generator(f9))
    members = [gen_image**k for k in range(8)]
    K = subgroup_from_members(table, members)
    assert K.order == 8
    assert subgroups_conjugate(table, T, K) is None


def test_subgroups_conjugate_matches_brute_force():
    table = instantiate(FamilySpec(SL, 2), F3)
    rng = random.Random(17)
    subs = []
    for _ in range(6):
        g = table.mat_of(rng.randrange(table.order))
        members = {g**k for k in range(element_order(table, table.id_of(g)))}
        subs.append(subgroup_from_members(table, members))
    for H1 in subs:
        for H2 in subs:
            got = subgroups_conjugate(table, H1, H2)
            brute = None
            for x in table.elements:
                xi = x.inverse()
                if {x * h * xi for h in H1.members} == set(H2.members):
                    brute = table.id_of(x)
                    break
            assert (got is None) == (brute is None)
            if got is not None:
                x = table.mat_of(got)
                xi = x.inverse()
                assert {x * h * xi for h in H1.members} == H2.member_set


def test_sl2_f5_unipotent_centralizers_equal():
    table = instantiate(FamilySpec(SL, 2), F5)
    z1 = centralizer(table, table.id_of(regular_unipotent(2, 1, F5)))
    z2 = centralizer(table, table.id_of(regular_unipotent(2, 2, F5)))
    assert z1.order == 10
    assert z1.member_set == z2.member_set
    assert subgroups_conjugate(table, z1, z2) == table.identity_id


def test_subgroup_validation():
    table = instantiate(FamilySpec(SL, 2), F3)
    g = Mat.from_rows(F3, [[1, 1], [0, 1]])
    with pytest.raises(ConsistencyError):
        subgroup_from_members(table, [Mat.identity(F3, 2), g])  # not closed
    with pytest.raises(ValueError):
        subgroup_from_members(table, [Mat.identity(F3, 2), Mat.diagonal(F3, [2, 1])])
    sub = subgroup_from_members(table, [Mat.identity(F3, 2), g, g * g])
    assert sub.order == 3 and not sub.contains(Mat.diagonal(F3, [2, 2]))
    assert sub.is_abelian()


def test_subgroup_generators_least_encoding():
    gl2 = instantiate(FamilySpec(GL, 2), F3)
    borel = subgroup_from_members(gl2, [m for m in gl2.elements if m[1, 0] == 0])
    assert borel.order == 12
    assert [m.rows() for m in borel.gens] == [((1, 0), (0, 2)), ((1, 1), (0, 1)), ((2, 0), (0, 1))]
    gl3 = instantiate(FamilySpec(GL, 3), F2)
    g = Mat.from_rows(F2, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    z = subgroup_from_members(gl3, [m for m in gl3.elements if m * g == g * m])
    assert z.order == 8
    assert [m.rows() for m in z.gens] == [
        ((1, 0, 0), (0, 1, 0), (0, 1, 1)),
        ((1, 0, 1), (0, 1, 0), (0, 0, 1)),
    ]


# ---------------------------------------------------------------------------
# quotients


def test_quotient_weyl_gl2_f3():
    table = instantiate(FamilySpec(GL, 2), F3)
    T = _diagonal_subgroup(table)
    N = normalizer(table, T)
    W = quotient(N, T)
    assert W.order == 2
    assert W.is_abelian()


def test_quotient_whole_by_whole():
    table = instantiate(FamilySpec(SL, 2), F3)
    g = whole_group(table)
    W = quotient(g, g)
    assert W.order == 1


def _monomial_weyl(ctx, n):
    """Split-torus normalizer inside GL_n as permutation * diagonal matrices."""
    units = list(range(1, ctx.q))
    members = []
    for perm in itertools.permutations(range(n)):
        for diag in itertools.product(units, repeat=n):
            data = [0] * (n * n)
            for i in range(n):
                data[i * n + perm[i]] = diag[i]
            members.append(Mat(ctx, n, data))
    return members


def test_monomial_formula_matches_scan_gl3_f3():
    table = instantiate(FamilySpec(GL, 3), F3)
    T = _diagonal_subgroup(table)
    N = normalizer(table, T)
    assert N.member_set == set(_monomial_weyl(F3, 3))


def test_quotient_weyl_gl3_f5_virtual_parent():
    virt = VirtualGroup(FamilySpec(GL, 3), F5)
    diag = [Mat.diagonal(F5, d) for d in itertools.product(range(1, 5), repeat=3)]
    T = subgroup_from_members(virt, diag)
    N = subgroup_from_members(virt, _monomial_weyl(F5, 3))
    W = quotient(N, T)
    assert W.order == 6
    assert not W.is_abelian()
    assert W.conjugacy_class_count() == 3  # symmetric group on 3 letters


def test_quotient_rejects_non_normal():
    table = instantiate(FamilySpec(GL, 2), F2)
    g = whole_group(table)
    refl = Mat.from_rows(F2, [[0, 1], [1, 0]])
    D = subgroup_from_members(table, [Mat.identity(F2, 2), refl])
    with pytest.raises(ValueError):
        quotient(g, D)


# ---------------------------------------------------------------------------
# element orders


def test_element_orders():
    table = instantiate(FamilySpec(SL, 2), F3)
    assert element_order(table, table.identity_id) == 1
    f9 = make_field(3, 2)
    target = weil_embed(f9, 1, mult_generator(f9))
    gl = instantiate(FamilySpec(GL, 2), F3)
    assert element_order(gl, gl.id_of(target)) == 8


def test_unipotent_order_char2(sl3_f4):
    u = regular_unipotent(3, 1, F4)
    assert element_order(sl3_f4, sl3_f4.id_of(u)) == 4

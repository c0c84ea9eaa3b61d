"""Tests for twisted conjugacy, cocycles, and the mu_n class count."""
import itertools
import operator
from math import gcd

import pytest

from zclasskit import limits
from zclasskit.errors import BoundExceeded
from zclasskit.ff import make_field, mult_generator, power_class_count
from zclasskit.galh1 import (
    Cocycle,
    FieldCtx,
    cocycle_check,
    cocycle_of_form,
    diagonalizer_over_ext,
    h1_mu_n,
    kernel_under_map,
    make_twisted,
    twisted_classes,
    twisted_from_matrices,
    twisted_from_quotient,
)
from zclasskit.grpcore import (
    GL,
    SL,
    FamilySpec,
    VirtualGroup,
    centralizer,
    conjugacy_classes,
    instantiate,
    parse_group_spec,
    quotient,
    subgroup_from_members,
)
from zclasskit.matfq import Mat, mat_embed, mat_frobenius, sl_conjugate_test
from zclasskit.zclass import fusion_count

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F5 = make_field(5, 1)
F7 = make_field(7, 1)
F9 = make_field(3, 2)
F25 = make_field(5, 2)
F49 = make_field(7, 2)


def _monomial_2x2(ctx):
    """All monomial 2x2 matrices: the split-torus normalizer in GL_2."""
    units = range(1, ctx.q)
    out = [Mat(ctx, 2, [a, 0, 0, b]) for a in units for b in units]
    out += [Mat(ctx, 2, [0, a, b, 0]) for a in units for b in units]
    return out


def _diagonal_members(table):
    return [m for m in table.elements if m[0, 1] == 0 and m[1, 0] == 0]


def _mu_carrier(ctx, n, q):
    """Roots of x^n = 1 in ctx twisted by x -> x^q."""
    mu = [x for x in range(1, ctx.q) if ctx.pow(x, n) == 1]
    assert len(mu) == n
    return make_twisted(mu, ctx.mul, ctx.inv, 1, lambda x: ctx.pow(x, q), 2)


def _upper_borel_normalizer(ext, base_q):
    """N of the embedded +/- unipotent centralizer inside SL_2 over ext.

    Conjugation by [[a, b], [0, 1/a]] scales the top-right entry by a^2,
    so the set of base-field unipotents is preserved exactly when a^2 is
    a base-field unit.
    """
    members = []
    for a in range(1, ext.q):
        if ext.pow(a, 2 * (base_q - 1)) != 1:
            continue
        for b in range(ext.q):
            members.append(Mat(ext, 2, [a, b, 0, ext.inv(a)]))
    return members


# ---------------------------------------------------------------------------
# twisted classes


@pytest.mark.parametrize(
    "spec_text", ["gl:2@2", "sl:2@3", "dihedral:5", "borel-gl:2@3", "u3@5"]
)
def test_identity_twist_recovers_conjugacy(spec_text):
    fam, ctx = parse_group_spec(spec_text)
    table = instantiate(fam, ctx)
    T = twisted_from_matrices(table.elements, table.ctx, 1, label=spec_text)
    cs = twisted_classes(T)
    assert cs.size == len(conjugacy_classes(table))
    assert sum(len(c) for c in cs.classes) == table.order
    assert set(itertools.chain.from_iterable(cs.classes)) == set(table.elements)


def test_trivial_group_single_class():
    I = Mat.identity(F3, 2)
    T = make_twisted([I], lambda a, b: a * b, lambda a: a.inverse(), I, lambda a: a, 1)
    assert twisted_classes(T).size == 1


def test_mu12_under_seventh_power_twist():
    T = _mu_carrier(F49, 12, 7)
    cs = twisted_classes(T)
    assert cs.size == 6
    assert cs.size == gcd(12, 7 - 1)
    assert power_class_count(F7, 12).size == 6
    assert cs.summary()["class_count"] == 6


def test_abelian_cokernel_identity():
    T = _mu_carrier(F49, 12, 7)
    image = {T.mul(T.inv(b), T.frob(b)) for b in T.elements}
    assert twisted_classes(T).size == len(T.elements) // len(image)

    diag = _monomial_2x2(F9)[:64]
    torus = twisted_from_matrices([m for m in diag if m[0, 1] == 0], F3, 2)
    image = {torus.mul(torus.inv(b), torus.frob(b)) for b in torus.elements}
    cs = twisted_classes(torus)
    assert cs.size == len(torus.elements) // len(image)
    assert cs.size == 4


def test_class_of_and_partition_reps():
    T = _mu_carrier(F49, 12, 7)
    cs = twisted_classes(T)
    for rep, cls in zip(cs.reps, cs.classes):
        assert rep == min(cls)
        for x in cls:
            assert cs.class_of(x) == rep
    with pytest.raises(KeyError):
        cs.class_of(0)


def _classes_by_scan(T):
    """The all-elements route, kept as the reference for the orbit walk:
    each class is {b^-1 * a * F(b)} over every b of the carrier, seeded at
    the least element no earlier class holds."""
    remaining = set(T.elements)
    reps, classes = [], []
    for seed in T.elements:
        if seed in remaining:
            orbit = {T.mul(T.inv(b), T.mul(seed, T.frob(b))) for b in T.elements}
            assert orbit <= remaining
            remaining -= orbit
            reps.append(seed)
            classes.append(tuple(sorted(orbit, key=lambda x: x.data if isinstance(x, Mat) else x)))
    return tuple(reps), tuple(classes)


def _identity_twist_table(spec_text):
    fam, ctx = parse_group_spec(spec_text)
    table = instantiate(fam, ctx)
    return twisted_from_matrices(table.elements, table.ctx, 1, label=spec_text)


def _weyl_quotient(ctx, n):
    """N/T for the split torus T of GL_n over ctx and its normalizer N,
    the monomial matrices."""
    virt = VirtualGroup(FamilySpec(GL, n), ctx)
    diag, members = [], []
    for perm in itertools.permutations(range(n)):
        for entries in itertools.product(range(1, ctx.q), repeat=n):
            data = [0] * (n * n)
            for i in range(n):
                data[i * n + perm[i]] = entries[i]
            members.append(Mat(ctx, n, data))
            if perm == tuple(range(n)):
                diag.append(members[-1])
    return quotient(subgroup_from_members(virt, members), subgroup_from_members(virt, diag))


def _weyl_carrier(ext, base, n):
    return twisted_from_quotient(_weyl_quotient(ext, n), base, ext.m // base.m)


CARRIERS = {
    "mu12@F49": lambda: _mu_carrier(F49, 12, 7),
    "monomial@F9": lambda: twisted_from_matrices(_monomial_2x2(F9), F3, 2),
    "torus@F9": lambda: twisted_from_matrices([m for m in _monomial_2x2(F9) if m[0, 1] == 0], F3, 2),
    "pm-unipotent@F9": lambda: twisted_from_matrices(_pm_unipotent_mats(F9), F3, 2),
    "pm-unipotent@F25": lambda: twisted_from_matrices(_pm_unipotent_mats(F25), F5, 2),
    "borel-normalizer@F9": lambda: twisted_from_matrices(_upper_borel_normalizer(F9, 3), F3, 2),
    "borel-normalizer@F25": lambda: twisted_from_matrices(_upper_borel_normalizer(F25, 5), F5, 2),
    "sl:2@9-frobenius": lambda: twisted_from_matrices(instantiate(FamilySpec(SL, 2), F9).elements, F3, 2),
    "gl:2@2": lambda: _identity_twist_table("gl:2@2"),
    "sl:2@3": lambda: _identity_twist_table("sl:2@3"),
    "dihedral:5": lambda: _identity_twist_table("dihedral:5"),
    "borel-gl:2@3": lambda: _identity_twist_table("borel-gl:2@3"),
    "u3@5": lambda: _identity_twist_table("u3@5"),
    "weyl-gl2@F9": lambda: _weyl_carrier(F9, F3, 2),
    "weyl-gl3@F4": lambda: _weyl_carrier(make_field(2, 2), F2, 3),
    "weyl-gl3@F4-identity": lambda: _weyl_carrier(make_field(2, 2), make_field(2, 2), 3),
}


@pytest.mark.parametrize("name", sorted(CARRIERS))
def test_orbit_walk_matches_all_elements_route(name):
    T = CARRIERS[name]()
    cs = twisted_classes(T)
    assert (cs.reps, cs.classes) == _classes_by_scan(T)
    for rep, cls in zip(cs.reps, cs.classes):
        assert all(cs.class_of(x) == rep for x in cls)


@pytest.mark.parametrize("ctx, n, count", [(F9, 2, 2), (make_field(2, 2), 3, 3), (F5, 3, 3)])
def test_quotient_class_count_matches_identity_twist(ctx, n, count):
    W = _weyl_quotient(ctx, n)
    assert W.conjugacy_class_count() == count  # S_n has p(n) classes
    assert twisted_classes(twisted_from_quotient(W, ctx, 1)).size == count
    assert all(W.table[i][W.inverse_index(i)] == W.identity_index for i in range(W.order))


# ---------------------------------------------------------------------------
# carrier validation


def test_twist_must_be_bijective():
    mu = [x for x in range(1, 9)]
    f8 = make_field(2, 3)
    with pytest.raises(ValueError, match="bijection"):
        make_twisted(mu, f8.mul, f8.inv, 1, lambda x: 1, 1)


def test_twist_order_must_match():
    T = _mu_carrier(F49, 12, 7)
    with pytest.raises(ValueError, match="declared order"):
        make_twisted(T.elements, T.mul, T.inv, 1, T.frob, 3)


def test_twist_must_be_homomorphism():
    g = mult_generator(F9).code
    units = [F9.pow(g, k) for k in range(8)]
    swap = {g: F9.pow(g, 3), F9.pow(g, 3): g}

    def twist(x):
        return swap.get(x, x)

    with pytest.raises(ValueError, match="homomorphism"):
        make_twisted(units, F9.mul, F9.inv, 1, twist, 2)


def test_twist_must_be_homomorphism_with_generator():
    # with a generator supplied only elements x generator are checked; the
    # swapped twist still fails at g * g, since F(g^2) = g^2 != g^6
    g = mult_generator(F9).code
    units = [F9.pow(g, k) for k in range(8)]
    swap = {g: F9.pow(g, 3), F9.pow(g, 3): g}

    def twist(x):
        return swap.get(x, x)

    with pytest.raises(ValueError, match="homomorphism"):
        make_twisted(units, F9.mul, F9.inv, 1, twist, 2, gens=[g])


def test_twist_must_be_homomorphism_on_large_carriers():
    # above 1000 elements and with no generators given, the greedy
    # generators still decide the check, for integer and matrix keys alike
    f2048 = make_field(2, 11)
    g = mult_generator(f2048).code
    units = list(f2048.units())
    swap = {g: f2048.pow(g, 3), f2048.pow(g, 3): g}
    with pytest.raises(ValueError, match="homomorphism"):
        make_twisted(units, f2048.mul, f2048.inv, 1, lambda x: swap.get(x, x), 2)
    f11 = make_field(11, 1)
    table = instantiate(FamilySpec(SL, 2), f11)
    assert table.order > 1000

    def transpose(m):
        return Mat.from_rows(f11, list(zip(*m.rows())))

    ident = Mat.identity(f11, 2)
    with pytest.raises(ValueError, match="homomorphism"):
        make_twisted(table.elements, operator.mul, Mat.inverse, ident, transpose, 2)


def test_supplied_generators_must_generate():
    g = mult_generator(F9).code
    units = [F9.pow(g, k) for k in range(8)]
    frob = lambda x: F9.pow(x, 3)  # noqa: E731
    with pytest.raises(ValueError, match="do not generate"):
        make_twisted(units, F9.mul, F9.inv, 1, frob, 2, gens=[F9.pow(g, 2)])
    with pytest.raises(ValueError, match="do not generate"):
        make_twisted(units, F9.mul, F9.inv, 1, frob, 2, gens=[g, 0])
    assert make_twisted(units, F9.mul, F9.inv, 1, frob, 2, gens=[g]).gens == (g,)


def test_greedy_generators_are_least_and_generate():
    T = _mu_carrier(F49, 12, 7)
    assert T.gens[0] == min(x for x in T.elements if x != 1)
    trivial = twisted_from_matrices([Mat.identity(F9, 2)], F3, 2)
    assert trivial.gens == (trivial.identity,)


def test_identity_must_be_in_carrier():
    with pytest.raises(ValueError, match="identity"):
        make_twisted([2, 3], F49.mul, F49.inv, 1, lambda x: x, 1)


def test_matrix_carrier_degree_mismatch():
    mats = [Mat.identity(F9, 2)]
    with pytest.raises(ValueError, match="degree"):
        twisted_from_matrices(mats, F3, 3)


# ---------------------------------------------------------------------------
# cocycle condition


def test_cocycle_check_identity_true():
    T = twisted_from_matrices(_monomial_2x2(F9), F3, 2)
    assert cocycle_check(Cocycle(T.identity, T))


def test_cocycle_check_lang_image_true_and_violator_false():
    g = mult_generator(F9).code
    diag = [m for m in _monomial_2x2(F9) if m[0, 1] == 0]
    T = twisted_from_matrices(diag, F3, 2)
    b = Mat.diagonal(F9, [g, 1])
    lang = b.inverse() * mat_frobenius(b, 1)
    assert cocycle_check(Cocycle(lang, T))
    # diag(g, 1) has twisted norm diag(g^4, 1) = diag(-1, 1) != identity
    assert not cocycle_check(Cocycle(b, T))


# ---------------------------------------------------------------------------
# cocycle_of_form


def _class_of(co):
    return twisted_classes(co.ambient).class_of(co.value)


def _is_trivial_class(co):
    return _class_of(co) == twisted_classes(co.ambient).class_of(co.ambient.identity)


def test_rational_conjugator_gives_trivial_class():
    table = instantiate(FamilySpec(GL, 2), F3)
    torus = subgroup_from_members(table, _diagonal_members(table))
    a = mat_embed(Mat.from_rows(F3, [[1, 1], [0, 1]]), F9)
    co = cocycle_of_form(FamilySpec(GL, 2), F3, 2, torus, a)
    assert co.value == Mat.identity(F9, 2)
    assert cocycle_check(co)
    assert _is_trivial_class(co)


def test_anisotropic_form_lands_on_weyl_reflection():
    table = instantiate(FamilySpec(GL, 2), F3)
    torus = subgroup_from_members(table, _diagonal_members(table))
    g = Mat.companion(F3, (1, 0, 1))  # irreducible x^2 + 1
    a = diagonalizer_over_ext(g, F9)
    co = cocycle_of_form(FamilySpec(GL, 2), F3, 2, torus, a)
    assert cocycle_check(co)
    assert not _is_trivial_class(co)
    c = co.value
    assert c[0, 0] == 0 and c[1, 1] == 0
    assert c[0, 1] != 0 and c[1, 0] != 0
    # the scanned normalizer is the monomial group, checked in closed form
    assert set(co.ambient.elements) == set(_monomial_2x2(F9))


def test_cocycle_class_is_independent_of_conjugator_choice():
    table = instantiate(FamilySpec(GL, 2), F3)
    torus = subgroup_from_members(table, _diagonal_members(table))
    g = Mat.companion(F3, (1, 0, 1))
    a = diagonalizer_over_ext(g, F9)
    co = cocycle_of_form(FamilySpec(GL, 2), F3, 2, torus, a)
    members = list(co.ambient.elements)
    gen = mult_generator(F9).code
    for z in [Mat.diagonal(F9, [gen, 1]), Mat.diagonal(F9, [gen, gen]), Mat.diagonal(F9, [2, F9.pow(gen, 5)])]:
        other = cocycle_of_form(
            FamilySpec(GL, 2), F3, 2, torus, a * z, normalizer_members=members
        )
        assert _class_of(other) == _class_of(co)


def _pm_unipotent_mats(ext):
    """The centralizer of a regular unipotent in SL_2 over ext: +/- u(t)."""
    minus = ext.neg(1)
    out = [Mat(ext, 2, [1, t, 0, 1]) for t in range(ext.q)]
    out += [Mat(ext, 2, [minus, ext.mul(minus, t), 0, minus]) for t in range(ext.q)]
    return out


def _unipotent_cocycle(base, ext, normalizer_members=None):
    table = instantiate(FamilySpec(SL, 2), base)
    u1 = Mat.from_rows(base, [[1, 1], [0, 1]])
    u_nu = Mat.from_rows(base, [[1, 2], [0, 1]])  # 2 is a non-square for q in {3,5}
    Zg = centralizer(table, table.id_of(u1))
    a = sl_conjugate_test(mat_embed(u_nu, ext), mat_embed(u1, ext))
    co = cocycle_of_form(
        FamilySpec(SL, 2), base, 2, Zg, a, normalizer_members=normalizer_members
    )
    return co, u1


@pytest.mark.parametrize("q", [3, 5])
def test_unipotent_centralizer_form_sl2(q):
    base = make_field(q, 1)
    ext = make_field(q, 2)
    members = None if q == 3 else _upper_borel_normalizer(ext, q)
    co, u1 = _unipotent_cocycle(base, ext, members)
    assert cocycle_check(co)
    if q == 3:
        # the scanned normalizer agrees with the closed form reused at q = 5
        assert set(co.ambient.elements) == set(_upper_borel_normalizer(ext, q))
    # in normalizer data the class is trivial: the centralizers of the two
    # unipotents are conjugate subgroups already over the base field, so the
    # subgroup form carries no obstruction
    assert _is_trivial_class(co)

    # the element-level obstruction lives in centralizer data: there the
    # value is a nontrivial class, and the cocycle classes count the
    # rational classes inside the geometric one
    zc = twisted_from_matrices(_pm_unipotent_mats(ext), base, 2)
    assert co.value in set(zc.elements)
    cs = twisted_classes(zc)
    assert cs.class_of(co.value) != cs.class_of(zc.identity)
    assert len(cs.cocycle_class_reps()) == 2
    assert fusion_count(FamilySpec(SL, 2), base, 2, u1).class_count == 2


def test_cocycle_of_form_rejects_unstable_form():
    table = instantiate(FamilySpec(SL, 2), F5)
    u1 = Mat.from_rows(F5, [[1, 1], [0, 1]])
    Zg = centralizer(table, table.id_of(u1))
    gen = mult_generator(F25).code  # gen^4 lies outside F_5, so gen^2 t leaves it
    a = Mat.diagonal(F25, [gen, 1])
    with pytest.raises(ValueError, match="not defined over the base"):
        cocycle_of_form(FamilySpec(SL, 2), F5, 2, Zg, a)


def test_cocycle_of_form_input_validation():
    table = instantiate(FamilySpec(GL, 2), F3)
    torus = subgroup_from_members(table, _diagonal_members(table))
    with pytest.raises(ValueError, match="must live over F_3\\^2"):
        cocycle_of_form(FamilySpec(GL, 2), F3, 2, torus, Mat.identity(F3, 2))
    with pytest.raises(ValueError, match="invertible"):
        cocycle_of_form(FamilySpec(GL, 2), F3, 2, torus, Mat(F9, 2, [1, 0, 0, 0]))
    with pytest.raises(ValueError, match="base field"):
        cocycle_of_form(FamilySpec(GL, 2), F5, 2, torus, Mat.identity(F25, 2))


# ---------------------------------------------------------------------------
# h1_mu_n


@pytest.mark.parametrize(
    "q, n, expected",
    [(5, 2, 2), (4, 3, 3), (7, 1, 1), (7, 12, 6), (9, 8, 8), (8, 12, 1)],
)
def test_h1_mu_n_counts(q, n, expected):
    res = h1_mu_n(q, n)
    assert res.size == expected
    assert res.size == gcd(n, q - 1)
    assert len(res.reps) == expected


def test_h1_mu_n_realizing_degrees():
    assert h1_mu_n(7, 11).realizing_degree == 10
    assert h1_mu_n(9, 11).realizing_degree == 5
    assert h1_mu_n(8, 12).n_coprime == 3
    assert h1_mu_n(5, 2).realizing_degree == 1


def test_h1_mu_n_summary_schema():
    s = h1_mu_n(7, 12).summary()
    assert set(s) == {
        "coefficients",
        "frobenius_power",
        "realizing_degree",
        "class_count",
        "reps",
    }
    assert s["coefficients"] == "mu_12"
    assert s["frobenius_power"] == 7
    assert s["class_count"] == 6


def test_h1_mu_n_realizing_override():
    assert h1_mu_n(5, 3, r_realizing=2).size == 1
    with pytest.raises(ValueError, match="does not live"):
        h1_mu_n(5, 3, r_realizing=1)


def test_h1_mu_n_input_errors(monkeypatch):
    with pytest.raises(ValueError, match="prime power"):
        h1_mu_n(6, 2)
    with pytest.raises(ValueError, match="positive"):
        h1_mu_n(5, 0)
    for degree in (0, -1):
        with pytest.raises(ValueError, match="realizing degree must be positive"):
            h1_mu_n(5, 4, r_realizing=degree)
    monkeypatch.setattr(limits, "H1_FIELD_CAP", 10**6)
    with pytest.raises(BoundExceeded, match="above H1_FIELD_CAP 1000000"):
        h1_mu_n(7, 11)


# ---------------------------------------------------------------------------
# kernels


def test_kernel_identity_ambient_keeps_distinguished_only():
    T = _mu_carrier(F49, 12, 7)
    assert kernel_under_map(T, T, lambda x: x) == (1,)


def test_kernel_of_normalizer_data_in_full_group():
    N = twisted_from_matrices(_monomial_2x2(F9), F3, 2)
    gl = instantiate(FamilySpec(GL, 2), F9)
    ambient = twisted_from_matrices(gl.elements, F3, 2)
    dead = kernel_under_map(N, ambient, lambda m: m)
    # exactly the classes carrying a true cocycle value die: the
    # distinguished class and the Weyl-reflection class (the two forms
    # of the torus); classes with nontrivial twisted norm cannot die
    assert set(dead) == set(twisted_classes(N).cocycle_class_reps())
    assert len(dead) == 2
    assert Mat.identity(F9, 2) in dead
    assert Mat.from_rows(F9, [[0, 1], [1, 0]]) in dead


def _kernel_by_scan(T, ambient, inclusion):
    """Reps whose image some ambient b sends to the identity, by a scan."""
    amb = ambient
    return tuple(
        rep
        for rep in twisted_classes(T).reps
        if any(amb.mul(amb.inv(b), amb.mul(inclusion(rep), amb.frob(b))) == amb.identity for b in amb.elements)
    )


@pytest.mark.parametrize(
    "sub, ambient",
    [("torus@F9", "monomial@F9"), ("pm-unipotent@F9", "borel-normalizer@F9"), ("torus@F9", "torus@F9")],
)
def test_kernel_matches_scan(sub, ambient):
    T, A = CARRIERS[sub](), CARRIERS[ambient]()
    dead = kernel_under_map(T, A, lambda m: m)
    assert dead == _kernel_by_scan(T, A, lambda m: m)
    assert T.identity in dead


def test_kernel_trivial_subgroup():
    I = Mat.identity(F9, 2)
    T = twisted_from_matrices([I], F3, 2)
    ambient = twisted_from_matrices(_monomial_2x2(F9), F3, 2)
    assert kernel_under_map(T, ambient, lambda m: m) == (I,)


def test_kernel_rejects_bad_maps():
    N = twisted_from_matrices(_monomial_2x2(F9), F3, 2)
    diag = twisted_from_matrices([m for m in _monomial_2x2(F9) if m[0, 1] == 0], F3, 2)
    with pytest.raises(ValueError, match="homomorphism"):
        kernel_under_map(N, N, lambda m: m.inverse())
    gen = mult_generator(F9).code
    z = Mat.diagonal(F9, [gen, 1])
    zi = z.inverse()
    with pytest.raises(ValueError, match="equivariant"):
        kernel_under_map(N, N, lambda m: z * m * zi)
    with pytest.raises(ValueError, match="leaves the ambient"):
        kernel_under_map(N, diag, lambda m: m)


def test_norm_one_classes_of_mu12():
    # norm x -> x^8 on mu_12 has kernel mu_4, spread over 2 twisted classes
    cs = twisted_classes(_mu_carrier(F49, 12, 7))
    assert len(cs.cocycle_class_reps()) == 2


# ---------------------------------------------------------------------------
# quotient carriers


def test_weyl_quotient_carrier_has_two_classes():
    virt = VirtualGroup(FamilySpec(GL, 2), F9)
    members = _monomial_2x2(F9)
    N = subgroup_from_members(virt, members)
    T = subgroup_from_members(virt, [m for m in members if m[0, 1] == 0])
    W = quotient(N, T)
    assert W.order == 2
    TW = twisted_from_quotient(W, F3, 2)
    assert twisted_classes(TW).size == 2


def test_quotient_carrier_degree_mismatch():
    table = instantiate(FamilySpec(GL, 2), F3)
    N = subgroup_from_members(table, _monomial_2x2(F3))
    T = subgroup_from_members(table, _diagonal_members(table))
    with pytest.raises(ValueError, match="degree"):
        twisted_from_quotient(quotient(N, T), F3, 2)


# ---------------------------------------------------------------------------
# eigenbasis helper


def test_diagonalizer_over_ext_splits_anisotropic_element():
    g = Mat.companion(F3, (1, 0, 1))
    X = diagonalizer_over_ext(g, F9)
    D = X.inverse() * mat_embed(g, F9) * X
    assert D[0, 1] == 0 and D[1, 0] == 0
    assert D[0, 0] != D[1, 1]
    # eigenvalues are exchanged by the base Frobenius
    assert F9.pow(D[0, 0], 3) == D[1, 1]


def test_diagonalizer_root_scan_is_bounded(monkeypatch):
    monkeypatch.setattr(limits, "SEARCH_CAP", F9.q - 1)
    with pytest.raises(BoundExceeded, match=f"exceeds SEARCH_CAP {F9.q - 1}"):
        diagonalizer_over_ext(Mat.companion(F3, (1, 0, 1)), F9)


def test_diagonalizer_rejects_non_split():
    u = Mat.from_rows(F3, [[1, 1], [0, 1]])
    with pytest.raises(ValueError, match="two roots"):
        diagonalizer_over_ext(u, F9)
    with pytest.raises(ValueError, match="2x2"):
        diagonalizer_over_ext(Mat.identity(F3, 3), make_field(3, 2))

"""Acceptance suite: one test per shipped claim, with pinned time budgets.

Each test prints a single pass line (visible with -s) after all of its
assertions hold, and asserts its own wall-clock budget. Expected values
are exact integers; nothing here is tuned or tolerance-fitted.
"""

import itertools
import math
import time

import pytest

from zclasskit import (
    DIHEDRAL,
    GL,
    HEISENBERG,
    SL,
    UNIPOTENT,
    BOREL_GL,
    BOREL_SL,
    FamilySpec,
    Mat,
    VirtualGroup,
    centralizer,
    cocycle_check,
    cocycle_of_form,
    conjugacy_classes,
    diagonalizer_over_ext,
    geometric_stabilize,
    h1_mu_n,
    instantiate,
    make_field,
    mat_embed,
    parse_field,
    power_class_count,
    quotient,
    regular_semisimple_filter,
    regular_unipotent_filter,
    run_experiment,
    structural_z_equivalent,
    subgroup_from_members,
    subgroups_conjugate,
    twisted_classes,
    twisted_from_quotient,
    z_partition,
)
from zclasskit.grpcore import center

from reference import jordan_decomposition


def _finish(num: int, label: str, t0: float, budget: float | None) -> None:
    elapsed = time.perf_counter() - t0
    if budget is None:
        print(f"criterion {num:02d} [{label}]: PASS ({elapsed:.2f}s)")
        return
    print(f"criterion {num:02d} [{label}]: PASS ({elapsed:.2f}s, budget {budget:g}s)")
    assert elapsed < budget


def _diagonal_members(ctx, n):
    return [
        Mat.diagonal(ctx, list(d))
        for d in itertools.product(ctx.units(), repeat=n)
    ]


def _monomial_members(ctx, n):
    out = []
    for perm in itertools.permutations(range(n)):
        for units in itertools.product(ctx.units(), repeat=n):
            data = [0] * (n * n)
            for row, u in enumerate(units):
                data[row * n + perm[row]] = u
            out.append(Mat(ctx, n, data))
    return out


def _weyl_count(n: int, ctx) -> int:
    parent = VirtualGroup(FamilySpec(GL, n), ctx)
    diag = subgroup_from_members(parent, _diagonal_members(ctx, n))
    mono = subgroup_from_members(parent, _monomial_members(ctx, n))
    return quotient(mono, diag).conjugacy_class_count()


def test_criterion_01_gl2_census_and_stabilization():
    t0 = time.perf_counter()
    counts = {}
    for q in (2, 3, 5):
        table = instantiate(FamilySpec(GL, 2), make_field(q, 1))
        counts[q] = z_partition(table).zclass_count
    assert counts == {2: 3, 3: 4, 5: 4}

    ctx = make_field(3, 1)
    table = instantiate(FamilySpec(GL, 2), ctx)
    seeds = [table.mat_of(c.rep_id) for c in conjugacy_classes(table)]
    stab = geometric_stabilize(FamilySpec(GL, 2), ctx, seeds, 4)
    assert len(stab.final_partition) == 3
    assert stab.stable_at is not None
    _finish(1, "gl2 census + stabilization", t0, 30.0)


def test_criterion_02_sl2_regular_unipotent():
    t0 = time.perf_counter()
    for q in (3, 5, 7):
        ctx = make_field(q, 1)
        table = instantiate(FamilySpec(SL, 2), ctx)
        filt = regular_unipotent_filter(ctx, 2)
        rational = [
            c for c in conjugacy_classes(table) if filt(table.mat_of(c.rep_id))
        ]
        assert len(rational) == 2
        assert z_partition(table, filt).zclass_count == 1
    _finish(2, "sl2 regular unipotent", t0, 30.0)


def test_criterion_03_sl3_regular_unipotent():
    t0 = time.perf_counter()
    expected = {2: 1, 3: 1, 4: 3}
    routes = {}
    for q in (2, 3, 4):
        params = {"q": q}
        if q == 3:
            params["allow_bad_characteristic"] = True
            with pytest.warns(UserWarning):
                exp = run_experiment("sl3-unipotent", params)
        else:
            exp = run_experiment("sl3-unipotent", params)
        assert exp.verdict == "pass"
        assert exp.computed == (expected[q], expected[q])
        routes[q] = exp.notes["route"]
    assert routes[2] == "table"
    assert routes[4] == "structural"
    _finish(3, "sl3 regular unipotent", t0, 60.0)


def test_criterion_04_torus_classification():
    t0 = time.perf_counter()
    for q in (3, 4, 5):
        ctx = parse_field(str(q))
        table = instantiate(FamilySpec(GL, 2), ctx)
        part = z_partition(table, regular_semisimple_filter(ctx))
        assert part.zclass_count == 2
        assert _weyl_count(2, ctx) == 2

    exp = run_experiment("tori-gln", {"n": 3, "q": 5})
    assert exp.verdict == "pass"
    assert exp.computed == 3
    assert exp.prediction_source == "oracle"
    assert _weyl_count(3, make_field(5, 1)) == 3
    _finish(4, "torus classification", t0, 60.0)


def test_criterion_05_borel_counterexample():
    t0 = time.perf_counter()
    exp = run_experiment("borel-counterexample", {"which": "gl2"})
    assert exp.verdict == "pass"
    assert exp.computed == {"theta_fails": True, "growth_degree": 2}
    assert exp.notes["base_equivalent"] is True
    assert exp.notes["ext_equivalent"] is False

    exp = run_experiment("borel-counterexample", {"which": "sl2"})
    assert exp.verdict == "pass"
    assert exp.computed == {"theta_fails": True}
    assert exp.notes["base_equivalent"] is True
    assert exp.notes["ext_equivalent"] is False
    _finish(5, "borel counterexample", t0, 5.0)


def test_criterion_06_heisenberg_scaling_family():
    t0 = time.perf_counter()
    for q in (5, 7):
        exp = run_experiment("heisenberg", {"q": q})
        assert exp.verdict == "pass"
        assert exp.notes["candidates"] == q - 1
        assert exp.computed == q - 1
    _finish(6, "heisenberg family", t0, 5.0)


def test_criterion_07_cohomology_triple_agreement():
    t0 = time.perf_counter()
    qs = (2, 3, 4, 5, 7, 8, 9)
    exp = run_experiment("h1-triple", {"max_n": 12, "qs": qs})
    assert exp.verdict == "pass"
    assert len(exp.computed) == 12 * len(qs)
    for q in qs:
        ctx = parse_field(str(q))
        for n in range(1, 13):
            g = math.gcd(n, q - 1)
            assert exp.computed[f"{n}@{q}"] == g
            assert power_class_count(ctx, n).size == g
            assert h1_mu_n(q, n).size == g

    # ties to the rational counts of the det-one unipotent families
    for q in (3, 5):
        ctx = make_field(q, 1)
        table = instantiate(FamilySpec(SL, 2), ctx)
        filt = regular_unipotent_filter(ctx, 2)
        rational = sum(
            1 for c in conjugacy_classes(table) if filt(table.mat_of(c.rep_id))
        )
        assert rational == math.gcd(2, q - 1)
    exp = run_experiment("sl3-unipotent", {"q": 4})
    assert exp.computed[0] == math.gcd(3, 4 - 1)
    _finish(7, "cohomology triple agreement", t0, 5.0)


def test_criterion_08_cocycle_soundness():
    t0 = time.perf_counter()
    for q in (3, 5):
        ctx = make_field(q, 1)
        ext = make_field(q, 2)
        table = instantiate(FamilySpec(GL, 2), ctx)

        part = z_partition(table, regular_semisimple_filter(ctx))
        assert part.zclass_count == 2
        by_order = {b.centralizer.order: b for b in part.blocks}
        assert set(by_order) == {(q - 1) ** 2, q * q - 1}

        reps = [table.mat_of(b.rep_id) for b in part.blocks]
        assert (
            structural_z_equivalent(
                GL, mat_embed(reps[0], ext), mat_embed(reps[1], ext)
            )
            is not None
        )
        fiber = part.zclass_count  # both classes land on one geometric class
        assert fiber == 2

        g_ns = table.mat_of(by_order[q * q - 1].rep_id)
        a = diagonalizer_over_ext(g_ns, ext)
        split_torus = centralizer(table, table.id_of(Mat.diagonal(ctx, [2, 1])))
        assert split_torus.order == (q - 1) ** 2

        members = _monomial_members(ext, 2) if q == 5 else None
        co = cocycle_of_form(
            FamilySpec(GL, 2), ctx, 2, split_torus, a, normalizer_members=members
        )
        assert cocycle_check(co)
        c = co.value
        assert not (c[0, 1] == 0 and c[1, 0] == 0)  # nontrivial Weyl image

        T = co.ambient
        coboundaries = {T.mul(T.inv(b), T.frob(b)) for b in T.elements}
        assert c not in coboundaries

        parent = VirtualGroup(FamilySpec(GL, 2), ext)
        diag = subgroup_from_members(parent, _diagonal_members(ext, 2))
        mono = subgroup_from_members(parent, _monomial_members(ext, 2))
        weyl = twisted_from_quotient(quotient(mono, diag), ctx, 2)
        bound = twisted_classes(weyl).size
        assert bound == 2
        assert fiber == bound

        if q == 3:
            assert len(twisted_classes(T).cocycle_class_reps()) == 2
    _finish(8, "cocycle soundness", t0, 30.0)


CENSUS = (
    (FamilySpec(GL, 2), "2"),
    (FamilySpec(GL, 2), "3"),
    (FamilySpec(GL, 2), "4"),
    (FamilySpec(GL, 2), "5"),
    (FamilySpec(SL, 2), "3"),
    (FamilySpec(SL, 2), "5"),
    (FamilySpec(SL, 2), "7"),
    (FamilySpec(GL, 3), "2"),
    (FamilySpec(SL, 3), "2"),
    (FamilySpec(UNIPOTENT, 3), "3"),
    (FamilySpec(UNIPOTENT, 3), "5"),
    (FamilySpec(HEISENBERG, 3), "2"),
    (FamilySpec(BOREL_GL, 2), "3"),
    (FamilySpec(BOREL_SL, 2), "5"),
    (FamilySpec(DIHEDRAL, 4), None),
    (FamilySpec(DIHEDRAL, 5), None),
    (FamilySpec(DIHEDRAL, 6), None),
    (FamilySpec(DIHEDRAL, 7), None),
)


def test_criterion_09_property_suites():
    t0 = time.perf_counter()
    for spec, field in CENSUS:
        ctx = parse_field(field) if field is not None else None
        table = instantiate(spec, ctx)
        assert table.order <= 100_000
        ids = list(table.ids())
        mats = [table.mat_of(i) for i in ids]
        cent = [
            frozenset(
                j for j in ids if mats[i] * mats[j] == mats[j] * mats[i]
            )
            for i in ids
        ]
        full = frozenset(ids)
        center_ids = frozenset(i for i in ids if cent[i] == full)
        assert center_ids == frozenset(
            table.id_of(m) for m in center(table).members
        )

        classes = conjugacy_classes(table)
        by_rep = {c.rep_id: c for c in classes}
        part = z_partition(table)

        # blocks are unions of conjugacy classes, covering each exactly once
        seen = []
        for b in part.blocks:
            for rid in b.class_ids:
                assert rid in by_rep
                seen.append(rid)
        assert sorted(seen) == sorted(by_rep)

        # the identity's block is the center
        id_class = next(c.rep_id for c in classes if table.identity_id in c.member_ids)
        id_block = part.block_of(id_class)
        covered = set()
        for rid in id_block.class_ids:
            covered.update(by_rep[rid].member_ids)
        assert frozenset(covered) == center_ids

        # abelian exactly when there is a single block
        assert (center_ids == full) == (part.zclass_count == 1)

        # multiplicative Jordan split refines nothing: Z(g) = Z(g_s) & Z(g_u)
        for i in ids:
            parts = jordan_decomposition(mats[i])
            s_id = table.id_of(parts.g_s)
            u_id = table.id_of(parts.g_u)
            assert cent[i] == cent[s_id] & cent[u_id]

        # orbit-stabilizer identity on every class
        for c in classes:
            assert c.size * len(cent[c.rep_id]) == table.order

    # subgroup conjugacy agrees with an unfiltered scan
    for spec, field in (
        (FamilySpec(GL, 2), "2"),
        (FamilySpec(GL, 2), "3"),
        (FamilySpec(SL, 2), "3"),
        (FamilySpec(DIHEDRAL, 5), None),
    ):
        ctx = parse_field(field) if field is not None else None
        table = instantiate(spec, ctx)
        ids = list(table.ids())
        mats = [table.mat_of(i) for i in ids]
        subs = {}
        for i in ids:
            H = centralizer(table, i)
            subs[tuple(sorted(m.data for m in H.members))] = H
            powers = [mats[i]]
            while powers[-1] != mats[table.identity_id]:
                powers.append(powers[-1] * mats[i])
            C = subgroup_from_members(table, powers)
            subs[tuple(sorted(m.data for m in C.members))] = C
        sub_list = list(subs.values())
        ordered = sorted(ids, key=lambda i: mats[i].data)
        for H, K in itertools.combinations_with_replacement(sub_list, 2):
            got = subgroups_conjugate(table, H, K)
            brute = None
            for e in ordered:
                xi = mats[e].inverse()
                if {mats[e] * h * xi for h in H.members} == K.member_set:
                    brute = e
                    break
            assert (got is None) == (brute is None)
            if got is not None:
                xi = mats[got].inverse()
                assert {mats[got] * h * xi for h in H.members} == K.member_set
    _finish(9, "property suites", t0, None)


def test_criterion_10_trivial_torus_hits_nothing():
    t0 = time.perf_counter()
    with pytest.warns(UserWarning):
        exp2 = run_experiment(
            "curious", {"n": 2, "q": 2, "allow_bad_characteristic": True}
        )
    exp3 = run_experiment("curious", {"n": 3, "q": 2})
    for exp in (exp2, exp3):
        assert exp.verdict == "pass"
        assert exp.computed == 0
        assert exp.notes["torus_order"] == 1
    _finish(10, "trivial torus", t0, 5.0)

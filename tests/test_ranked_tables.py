"""Ranked group tables: an element's id is its lexicographic rank.

GL, SL, Borel, unitriangular and Heisenberg tables turn ids into matrices
and back on demand and enumerate nothing. The references are the
enumerators instantiate used before, sorted (reference.family_elements),
and the center scan (reference.center_scan).
"""
from __future__ import annotations

import random
import time

import pytest

from zclasskit import limits, paperlab
from zclasskit.errors import BoundExceeded, ConsistencyError
from zclasskit.ff import _factorize, make_field, prime_power
from zclasskit.grpcore import (
    BOREL_GL,
    BOREL_SL,
    GL,
    HEISENBERG,
    SL,
    UNIPOTENT,
    FamilySpec,
    center,
    centralizer,
    conjugacy_classes,
    family_order,
    instantiate,
    whole_group,
)
from zclasskit.matfq import Mat, mat_parse

from reference import center_scan, family_elements

F3 = make_field(3, 1)
F4 = make_field(2, 2)
F5 = make_field(5, 1)

RANKED_KINDS = (GL, SL, BOREL_GL, BOREL_SL, UNIPOTENT, HEISENBERG)

# Every ranked family table within FULL_TABLE_LIMIT over a field of at most
# 16 elements (prime and extension fields, bad characteristic included) is
# checked: element by element up to EXHAUSTIVE_ORDER, on SAMPLE seeded ids
# above. Larger fields hold the same kinds in dimension 2 and 3 only (GL2,
# SL2, Borel-GL2/SL2, U2, U3, Heisenberg), 9 808 tables, 9 690 of them
# U2(F_q): the same rank code over larger codes.
EXHAUSTIVE_ORDER = 12_000
SAMPLE = 3_000


def _tables(top: int, q_top: int = 16):
    """Every ranked family table of order at most top over F_q, q <= q_top,
    bad characteristic included, as pytest params (spec, ctx)."""
    out = []
    for kind in RANKED_KINDS:
        for n in (3,) if kind == HEISENBERG else range(2, 8):
            spec = FamilySpec(kind, n, allow_bad_characteristic=True)
            for q in range(2, q_top + 1):
                if len(_factorize(q)) != 1:
                    continue
                ctx = make_field(*prime_power(q))
                if family_order(spec, ctx) > top:
                    break
                out.append(pytest.param(spec, ctx, id=f"{spec.label()}@{q}"))
    return out


@pytest.mark.filterwarnings("ignore:characteristic")
@pytest.mark.parametrize(
    "spec,ctx",
    _tables(limits.FULL_TABLE_LIMIT) + [pytest.param(FamilySpec(GL, 3), F4, id="gl:3@4")],
)
def test_rank_and_unrank_match_the_enumeration(spec, ctx):
    want = family_elements(spec, ctx)
    ranked = instantiate(spec, ctx)
    assert ranked.order == len(want) == family_order(spec, ctx)
    ids = range(len(want))
    if len(want) > EXHAUSTIVE_ORDER:
        ids = random.Random(23).sample(ids, SAMPLE)
    assert [ranked.id_of(want[i]) for i in ids] == list(ids)
    unranked = instantiate(spec, ctx)  # a fresh memo, so every id is unranked
    assert [unranked.mat_of(i).data for i in ids] == [want[i].data for i in ids]


NON_MEMBERS = {
    "gl-singular": (FamilySpec(GL, 2), Mat.from_rows(F5, [[1, 2], [2, 4]])),
    "sl-det-2": (FamilySpec(SL, 2), Mat.diagonal(F5, [2, 1])),
    "borel-lower": (FamilySpec(BOREL_GL, 2), mat_parse(F5, "[1,0;1,1]")),
    "u3-diagonal-2": (FamilySpec(UNIPOTENT, 3), mat_parse(F5, "[1,0,0;0,2,0;0,0,1]")),
}


@pytest.mark.parametrize("name", sorted(NON_MEMBERS))
def test_non_members_are_refused(name):
    spec, g = NON_MEMBERS[name]
    table = instantiate(spec, F5)
    with pytest.raises(KeyError, match="matrix is not an element of this group"):
        table.id_of(g)
    assert not table.contains(g)
    assert len(table._mats) == 1  # the identity; a refusal memoizes nothing


def test_a_generator_outside_a_ranked_table_is_caught():
    table = instantiate(FamilySpec(SL, 2), F3)
    table._set_gens([Mat.diagonal(F3, [2, 1])])
    with pytest.raises(ConsistencyError, match="leads outside the group table"):
        whole_group(table)


@pytest.mark.filterwarnings("ignore:characteristic")
@pytest.mark.parametrize("spec,ctx", _tables(EXHAUSTIVE_ORDER))
def test_center_closed_form_matches_the_scan(spec, ctx):
    closed = center(instantiate(spec, ctx))
    assert closed.member_set == center_scan(instantiate(spec, ctx)).member_set


# ---------------------------------------------------------------------------
# laziness: tables are not enumerated


def test_instantiate_sl3_f5_enumerates_nothing():
    t0 = time.perf_counter()
    table = instantiate(FamilySpec(SL, 3), F5)
    elapsed = time.perf_counter() - t0
    assert table.order == 372_000
    assert elapsed < 0.01
    assert len(table._mats) == len(table._ids) == 1  # the identity


def test_normalizer_structure_touches_a_few_elements_of_sl3_f4(monkeypatch):
    tables = []

    def keep(*args):
        tables.append(instantiate(*args))
        return tables[-1]

    monkeypatch.setattr(paperlab, "instantiate", keep)
    assert paperlab._run_normalizer_structure(3, 4)[0] == (576, 9)
    (table,) = tables
    assert table.order == 60480
    assert len(table._ids) <= 2_500 and len(table._mats) <= 2_500


def test_instantiate_above_the_bound_refuses_before_any_work():
    # the table comes at any order; its first per-element work is refused
    # before an orbit array is allocated or an element unranked
    order = family_order(FamilySpec(SL, 3), F5)
    token = limits.INVOCATION.set({"ZK_MAX_GROUP": order - 1})
    try:
        table = instantiate(FamilySpec(SL, 3), F5)
        for work in (conjugacy_classes, lambda t: centralizer(t, t.identity_id)):
            with pytest.raises(BoundExceeded) as exc:
                work(table)
            assert (f"sl:3@5 has order {order}, above bound {order - 1} "
                    "(ZK_MAX_GROUP / --max-group)") in str(exc.value)
            assert table._orbit_root is None
            assert len(table._mats) == len(table._ids) == 1  # the identity
    finally:
        limits.INVOCATION.reset(token)


def test_a_table_above_the_bound_answers_order_membership_and_center():
    order = family_order(FamilySpec(SL, 3), F5)
    token = limits.INVOCATION.set({"ZK_MAX_GROUP": order - 1})
    try:
        table = instantiate(FamilySpec(SL, 3), F5)
        assert table.order == len(table) == 372_000
        g = mat_parse(F5, "[1,2,3;0,1,4;0,0,1]")
        assert table.contains(g)
        assert not table.contains(Mat.diagonal(F5, [2, 1, 1]))
        for eid in random.Random(25).sample(range(order), 50) + [0, order - 1]:
            assert table.id_of(table.mat_of(eid)) == eid
        assert table.mat_of(table.id_of(g)) == g
        assert center(table).member_set == {Mat.identity(F5, 3)}  # gcd(3, 5 - 1) = 1
        assert table._orbit_root is None
    finally:
        limits.INVOCATION.reset(token)

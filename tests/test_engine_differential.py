"""The id engine of grpcore against whole-group scans.

The reference below is the scan code the engine replaced: conjugation
orbits under the standard generators, centralizers as {x : xg = gx},
normalizers and least conjugators by trying every x in encoding order.
It runs on a Cayley table of ids built independently of the engine, one
right-multiplication permutation per standard generator, so the scans
cost list lookups instead of matrix products. On an instantiated table
ids ascend with the encoding, so "least id" is "least encoding".
"""
from __future__ import annotations

import pytest

from zclasskit.ff import make_field, prime_power
from zclasskit.grpcore import (
    DIHEDRAL,
    GL,
    KINDS,
    SL,
    FamilySpec,
    GroupTable,
    _linear_generators,
    centralizer,
    conjugacy_classes,
    element_conjugator,
    family_order,
    instantiate,
    normalizer,
    parse_group_spec,
    subgroups_conjugate,
)
from zclasskit.matfq import Mat, regular_unipotent

from reference import closure_walk, standard_generators

F4 = make_field(2, 2)


class Cayley:
    """Products of ids, from the right-multiplication permutations of gens."""

    def __init__(self, table, gens):
        index = table.index
        right = [[index[(m * g).data] for m in table.elements] for g in gens]
        ident = table.identity_id
        cols = {ident: list(table.ids())}  # cols[y][x] = id of x * y
        queue = [ident]
        for y in queue:
            my = table.elements[y]
            for g, perm in zip(gens, right):
                z = index[(my * g).data]
                if z not in cols:
                    cols[z] = [perm[v] for v in cols[y]]
                    queue.append(z)
        assert len(cols) == table.order, "reference generators fall short"
        self.cols = cols
        self.order = table.order
        self.inv = [0] * table.order
        for y, col in cols.items():
            self.inv[col.index(ident)] = y

    def mul(self, x, y):
        return self.cols[y][x]

    def conj(self, x, g):
        return self.mul(self.mul(x, g), self.inv[x])


def scan_classes(table, cay, gen_ids):
    """The former conjugacy_classes: orbits under the generators, each led
    by its least member, with the orbit-stabilizer check by a group scan."""
    assigned = [False] * table.order
    out = []
    for seed in table.ids():
        if assigned[seed]:
            continue
        orbit = {seed}
        queue = [seed]
        while queue:
            x = queue.pop()
            for g in gen_ids:
                y = cay.conj(g, x)
                if y not in orbit:
                    orbit.add(y)
                    queue.append(y)
        for y in orbit:
            assigned[y] = True
        stab = sum(1 for m in table.ids() if cay.mul(m, seed) == cay.mul(seed, m))
        assert len(orbit) * stab == table.order
        out.append((seed, tuple(sorted(orbit))))
    return out


def scan_centralizer(cay, g):
    return tuple(x for x in range(cay.order) if cay.mul(x, g) == cay.mul(g, x))


def scan_normalizer(cay, h_ids, h_gen_ids):
    return tuple(
        x for x in range(cay.order) if all(cay.conj(x, h) in h_ids for h in h_gen_ids)
    )


def scan_conjugator(table, cay, h1_ids, h1_gen_ids, h2_ids):
    """The former subgroups_conjugate: the identity for equal member sets,
    else the least x with x H1 x^-1 = H2."""
    if len(h1_ids) != len(h2_ids):
        return None
    if h1_ids == h2_ids:
        return table.identity_id
    for x in range(cay.order):
        if all(cay.conj(x, h) in h2_ids for h in h1_gen_ids):
            return x
    return None


def _tables():
    """Every built-in-family table of order at most 1500, bad characteristic
    included."""
    out = []
    for kind in KINDS:
        for n in range(1, 11) if kind == DIHEDRAL else range(2, 6):
            for q in (None,) if kind == DIHEDRAL else (2, 3, 4, 5, 7):
                try:
                    spec = FamilySpec(kind, n, allow_bad_characteristic=True)
                except ValueError:
                    continue
                if kind == DIHEDRAL:
                    out.append(pytest.param(spec, None, id=spec.label()))
                elif family_order(spec, make_field(*prime_power(q))) <= 1500:
                    out.append(pytest.param(spec, q, id=f"{spec.label()}@{q}"))
    return out


@pytest.mark.filterwarnings("ignore:characteristic")
@pytest.mark.parametrize("spec,q", _tables())
def test_engine_matches_scans(spec, q):
    ctx = None if q is None else make_field(*prime_power(q))
    table = instantiate(spec, ctx)
    gens = standard_generators(spec, table.ctx)
    cay = Cayley(table, gens)
    gen_ids = [table.id_of(g) for g in gens]

    want = scan_classes(table, cay, gen_ids)
    assert [(c.rep_id, c.member_ids) for c in conjugacy_classes(table)] == want

    for g in table.ids():
        z = centralizer(table, g)
        assert z.member_ids == scan_centralizer(cay, g)

    reps = [centralizer(table, rep) for rep, _ in want]
    norms = []
    for z in reps:
        h_ids, h_gens = set(z.member_ids), [table.id_of(m) for m in z.gens]
        norms.append(normalizer(table, z))
        assert norms[-1].member_ids == scan_normalizer(cay, h_ids, h_gens)
    # centralizers take the whole-coset branch of the conjugator walk, the
    # normalizers (built from their members) the generator-image test
    for subs in (reps, norms):
        ids = [(set(h.member_ids), [table.id_of(m) for m in h.gens]) for h in subs]
        for h1, (h1_ids, h1_gens) in zip(subs, ids):
            for h2, (h2_ids, _) in zip(subs, ids):
                assert subgroups_conjugate(table, h1, h2) == scan_conjugator(
                    table, cay, h1_ids, h1_gens, h2_ids
                )


def test_sl3_f4_classes_and_regular_unipotent_centralizers():
    table = instantiate(FamilySpec(SL, 3), F4)
    # the fallback set, not the pair the engine walks, so the reference
    # orbits come from different generators
    _, fallback = _linear_generators(FamilySpec(SL, 3), F4)
    assert len(closure_walk([table.mat_of(table.identity_id)], fallback, table.index)) == 60480
    index, elements = table.index, table.elements
    conj = [[index[(g * m * gi).data] for m in elements] for g, gi in
            ((g, g.inverse()) for g in fallback)]
    orbits = []
    assigned = bytearray(table.order)
    for seed in table.ids():
        if assigned[seed]:
            continue
        orbit = {seed}
        queue = [seed]
        while queue:
            x = queue.pop()
            for perm in conj:
                if perm[x] not in orbit:
                    orbit.add(perm[x])
                    queue.append(perm[x])
        for y in orbit:
            assigned[y] = 1
        orbits.append((seed, tuple(sorted(orbit))))
    assert [(c.rep_id, c.member_ids) for c in conjugacy_classes(table)] == orbits
    for b in (1, 2, 3):
        u = regular_unipotent(3, b, F4)
        members = tuple(i for i, m in enumerate(elements) if m * u == u * m)
        assert centralizer(table, table.id_of(u)).member_ids == members
        assert len(members) == 48


def test_non_generating_pair_falls_back():
    # a table walked under a pair that does not generate notices it at the
    # orbit-stabilizer check and switches to its fallback set
    spec, ctx = FamilySpec(GL, 2), make_field(3, 1)
    full = instantiate(spec, ctx)
    pair, fallback = _linear_generators(spec, ctx)
    table = GroupTable(spec, ctx, list(full.elements), pair[1:], fallback)
    g = table.id_of(Mat.from_rows(ctx, [[0, 1], [1, 0]]))
    assert centralizer(table, g).member_set == centralizer(full, g).member_set
    assert table.gens == tuple(fallback)
    assert [c.member_ids for c in conjugacy_classes(table)] == [
        c.member_ids for c in conjugacy_classes(full)
    ]


def _scan_witness(table, a, b):
    """The conjtest table route this engine replaced: the least id x with
    x a x^-1 = b."""
    for i in table.ids():
        x = table.mat_of(i)
        if x * a * x.inverse() == b:
            return i
    return None


@pytest.mark.parametrize("group", ["heisenberg@5", "borel-gl:2@3", "dihedral:5"])
def test_element_conjugator_matches_scan(group):
    spec, ctx = parse_group_spec(group)
    table = instantiate(spec, ctx)
    classes = conjugacy_classes(table)
    reps = [c.rep_id for c in classes]
    for c in classes:
        for b in c.member_ids + tuple(reps):
            want = _scan_witness(table, table.mat_of(c.rep_id), table.mat_of(b))
            assert element_conjugator(table, c.rep_id, b) == want
            assert (want is None) == (b not in c.member_ids)

"""Centralizer-conjugacy partitions and their behavior under field extension.

Two elements of a finite group are z-equivalent when their centralizers
are conjugate subgroups. The resulting partition is coarser than the
conjugacy partition: each block is a union of conjugacy classes, the
identity's block is exactly the center, and the whole group is a single
block precisely when it is abelian.

Base change is probed at desk scale: elements are pushed along the
canonical field embedding F_q -> F_{q^r} and retested in the extended
group. Partitions of a fixed seed set computed degree by degree either
stabilize (two consecutive degrees agree) or are reported unstable; no
claim is made beyond the certified range.

Two computation routes coexist. The table route instantiates the group
and scans; it works for any family within the size bound. The structural
route works in GL/SL ambients for scalar or regular elements (those with
one invariant factor, whose commutant algebra has the minimal dimension
n): there the centralizer is the unit group of the commutant, and
centralizer conjugacy reduces to conjugacy of the commutants. An
element's type (the degree and exponent partition of each irreducible
factor of its characteristic polynomial) keys its z-class: in GL the type
is the key, whatever the element, and in SL a regular type splits by a
determinant class (matfq.det_class). So a structural pair of different
types is answered without a walk, and a seed partition groups GL seeds,
and scalar or regular SL seeds, by key; other SL seeds take the table
route. The routes are cross-validated against each other wherever both
apply. Growth degrees read GL/SL centralizer orders in closed form from
the element's type.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import BoundExceeded, ConsistencyError
from .ff import FieldCtx, make_field, poly_is_squarefree
from .grpcore import (
    GL,
    SL,
    FamilySpec,
    GroupTable,
    Subgroup,
    center,
    centralizer,
    conjugacy_classes,
    family_order,
    instantiate,
    subgroups_conjugate,
)
from . import limits
from .matfq import (
    Mat,
    _gl_witness,
    centralizer_order,
    charpoly,
    det_class,
    factors_type,
    gl_conjugate_test,
    invariant_factors,
    is_unipotent,
    mat_embed,
    mat_literal,
    polynomial_algebra,
    sl_conjugate_test,
)


def group_label(table: GroupTable) -> str:
    fam = table.family.label() if table.family is not None else "closure"
    return f"{fam}@{table.ctx.name}"


# ---------------------------------------------------------------------------
# partitions


@dataclass(frozen=True)
class ZBlock:
    """One block: conjugacy classes whose centralizers are conjugate."""

    rep_id: int
    class_ids: tuple[int, ...]
    centralizer: Subgroup

    @property
    def class_count(self) -> int:
        return len(self.class_ids)


@dataclass(frozen=True)
class ZPartition:
    table: GroupTable
    blocks: tuple[ZBlock, ...]

    @property
    def zclass_count(self) -> int:
        return len(self.blocks)

    def block_of(self, class_rep_id: int) -> ZBlock:
        for b in self.blocks:
            if class_rep_id in b.class_ids:
                return b
        raise KeyError(f"class rep {class_rep_id} is not in this partition")

    def summary(self) -> dict:
        """Each block with its centralizer's invariants, computed here: only
        rendered output pays for element orders."""
        return {
            "group": group_label(self.table),
            "zclass_count": self.zclass_count,
            "blocks": [
                {
                    "rep": mat_literal(self.table.mat_of(b.rep_id)),
                    "classes": [
                        mat_literal(self.table.mat_of(c)) for c in b.class_ids
                    ],
                    "centralizer_order": b.centralizer.order,
                    "fingerprint": {
                        "centralizer_order": b.centralizer.order,
                        "abelian": b.centralizer.is_abelian(),
                        "element_orders": [
                            list(p) for p in b.centralizer.order_multiset()
                        ],
                    },
                }
                for b in self.blocks
            ],
        }

    def csv_rows(self) -> list[list]:
        head = ["rep", "class_count", "centralizer_order", "abelian"]
        rows = [head]
        for b in self.blocks:
            rows.append(
                [
                    mat_literal(self.table.mat_of(b.rep_id)),
                    b.class_count,
                    b.centralizer.order,
                    b.centralizer.is_abelian(),
                ]
            )
        return rows


def _partition_classes(table: GroupTable, chosen) -> tuple[ZBlock, ...]:
    """Group the chosen conjugacy classes by centralizer conjugacy."""
    zs = [centralizer(table, c.rep_id) for c in chosen]
    blocks = _refine(zs, lambda a, b: subgroups_conjugate(table, a, b) is not None)
    out = []
    for block in blocks:
        reps = tuple(chosen[i].rep_id for i in block)
        out.append(ZBlock(reps[0], reps, zs[block[0]]))
    return tuple(out)


def _class_function(keep):
    """Mark a predicate as conjugation-invariant: z_partition tests it on
    each class rep only."""
    keep.class_function = True
    return keep


def unipotent_filter():
    """Predicate keeping unipotent matrices."""
    return _class_function(lambda m: is_unipotent(m))


def regular_unipotent_filter(ctx: FieldCtx, n: int):
    """Predicate keeping unipotent matrices with full-length Jordan block."""
    ident = Mat.identity(ctx, n)

    def keep(m: Mat) -> bool:
        if not is_unipotent(m) or m == ident:
            return False
        power = d = m - ident
        for _ in range(n - 2):
            power = power * d
        return any(power.data)

    return _class_function(keep)


def regular_semisimple_filter(ctx: FieldCtx):
    """Predicate keeping matrices with squarefree characteristic polynomial."""
    return _class_function(lambda m: poly_is_squarefree(ctx, charpoly(m)))


def z_partition(
    table: GroupTable, element_filter: Callable[[Mat], bool] | None = None
) -> ZPartition:
    """Partition conjugacy classes by centralizer conjugacy.

    With a filter, only classes containing at least one matching element
    are partitioned; the built-in filters are conjugation-invariant and
    are tested on each class rep only, any other predicate on the members
    until one matches. Without one the group must be small enough to scan
    in full, and the partition-level invariants (identity block = center,
    single block iff abelian) are re-verified.
    """
    if element_filter is None and table.order > limits.FULL_TABLE_LIMIT:
        raise BoundExceeded(
            f"full partition of a group of order {table.order} exceeds "
            f"FULL_TABLE_LIMIT {limits.FULL_TABLE_LIMIT}; pass an element filter "
            "to pick seeds"
        )
    classes = conjugacy_classes(table)
    if element_filter is None:
        chosen = list(classes)
    elif getattr(element_filter, "class_function", False):
        chosen = [c for c in classes if element_filter(table.mat_of(c.rep_id))]
    else:
        chosen = [
            c
            for c in classes
            if any(element_filter(table.mat_of(i)) for i in c.member_ids)
        ]
    blocks = _partition_classes(table, chosen)
    part = ZPartition(table, blocks)
    if element_filter is None:
        _verify_full_partition(table, part, classes)
    return part


def _verify_full_partition(table, part, classes) -> None:
    if sum(b.class_count for b in part.blocks) != len(classes):
        raise ConsistencyError("blocks do not cover the conjugacy classes")
    cen = center(table)
    if (part.zclass_count == 1) != (cen.order == table.order):
        raise ConsistencyError("single-block test disagrees with abelianness")
    by_rep = {c.rep_id: c for c in classes}
    ident_block = part.block_of(table.identity_id)
    union = set()
    for cid in ident_block.class_ids:
        union.update(by_rep[cid].member_ids)
    center_ids = {table.id_of(m) for m in cen.members}
    if union != center_ids:
        raise ConsistencyError("identity block does not equal the center")


# ---------------------------------------------------------------------------
# pairwise equivalence


def _as_mat(table: GroupTable, x) -> Mat:
    return table.mat_of(x) if isinstance(x, int) else x


def z_equivalent(table: GroupTable, g, h) -> Mat | None:
    """Witness x with x Z(g) x^-1 = Z(h), or None; transport re-verified."""
    zg = centralizer(table, table.id_of(_as_mat(table, g)))
    zh = centralizer(table, table.id_of(_as_mat(table, h)))
    wid = subgroups_conjugate(table, zg, zh)
    if wid is None:
        return None
    x = table.mat_of(wid)
    xi = x.inverse()
    if {x * m * xi for m in zg.members} != zh.member_set:
        raise ConsistencyError("witness does not transport the centralizer")
    return x


def structural_z_equivalent(kind: str, g: Mat, h: Mat) -> Mat | None:
    """Table-free z-equivalence in a GL or SL ambient.

    Supported elements: scalars (centralizer is everything) and regular
    elements (one invariant factor; commutant = F_q[h], polynomials in the
    element, dimension n). Elements of different types are not
    z-equivalent, so that answer is None before any commutant is built.
    For one type, a first-hit walk of F_q[h], ascending and stopped after
    SPAN_CAP elements tried, finds the first y with g's invariant factors,
    and x = _gl_witness(y, g) maps F_q[g] onto F_q[h]. GL returns x. In SL
    a determinant-1 conjugator exists iff det_class(type, x) = 1; then the
    same walk goes on from y to the first one SL-conjugate to g.
    """
    if kind not in (GL, SL):
        raise ValueError(f"structural route supports gl/sl ambients, not {kind!r}")
    if g.ctx is not h.ctx or g.n != h.n:
        raise ValueError("elements live in different ambient groups")
    if kind == SL and (g.det() != 1 or h.det() != 1):
        raise ValueError("sl ambient needs determinant-1 elements")
    if g.is_scalar() or h.is_scalar():
        return Mat.identity(g.ctx, g.n) if g.is_scalar() and h.is_scalar() else None
    target, facs_h = invariant_factors(g), invariant_factors(h)
    if len(target) != 1 or len(facs_h) != 1:
        raise ValueError("structural route supports scalar or regular elements only")
    typ = factors_type(g.ctx, target)
    if typ != factors_type(h.ctx, facs_h):
        return None
    tr, dt = g.trace(), g.det()
    gens = (y for y in polynomial_algebra(h).walk()
            if y.trace() == tr and y.det() == dt and invariant_factors(y) == target)
    y = next(gens, None)
    if y is None:
        raise ConsistencyError("no generator of the commutant shares the type's invariant factors")
    x = _gl_witness(y, g, target)
    if kind == GL:
        return x
    if det_class(typ, x) != 1:
        return None
    w = next(filter(None, (sl_conjugate_test(z, g) for z in itertools.chain([y], gens))), None)
    if w is None:
        raise ConsistencyError("no generator of the commutant is SL-conjugate to the element")
    return w


# ---------------------------------------------------------------------------
# base change


@dataclass(frozen=True)
class ProbeRow:
    index: int
    base_equivalent: bool
    ext_equivalent: bool

    @property
    def changed(self) -> bool:
        return self.base_equivalent != self.ext_equivalent


@dataclass(frozen=True)
class ProbeReport:
    family: FamilySpec
    base: FieldCtx
    ext: FieldCtx
    rows: tuple[ProbeRow, ...]

    @property
    def any_changed(self) -> bool:
        return any(r.changed for r in self.rows)

    def summary(self) -> dict:
        return {
            "family": self.family.label(),
            "base_field": self.base.name,
            "ext_field": self.ext.name,
            "pairs": [
                {
                    "index": r.index,
                    "equivalent_base": r.base_equivalent,
                    "equivalent_ext": r.ext_equivalent,
                    "changed": r.changed,
                }
                for r in self.rows
            ],
            "any_changed": self.any_changed,
        }


def base_change_probe(
    family: FamilySpec,
    ctx: FieldCtx,
    r: int,
    pairs: Sequence[tuple],
) -> ProbeReport:
    """Retest z-equivalence of element pairs after extending the field."""
    if r < 1:
        raise ValueError("extension degree must be positive")
    ext = make_field(ctx.p, ctx.m * r)
    base_table = instantiate(family, ctx)
    ext_table = instantiate(family, ext)
    rows = []
    for i, (g, h) in enumerate(pairs):
        gm, hm = _as_mat(base_table, g), _as_mat(base_table, h)
        wb = z_equivalent(base_table, gm, hm)
        we = z_equivalent(ext_table, mat_embed(gm, ext), mat_embed(hm, ext))
        rows.append(ProbeRow(i, wb is not None, we is not None))
    return ProbeReport(family, ctx, ext, tuple(rows))


# ---------------------------------------------------------------------------
# class fusion


@dataclass(frozen=True)
class FormSet:
    """Base-field classes landing in one extended-field class."""

    base_class_id: int
    degree: int
    fused_class_reps: tuple[int, ...]
    fused_zclass_reps: tuple[int, ...]

    @property
    def class_count(self) -> int:
        return len(self.fused_class_reps)

    @property
    def zclass_count(self) -> int:
        return len(self.fused_zclass_reps)


def _ext_class_lookup(ext_table: GroupTable):
    classes = conjugacy_classes(ext_table)
    owner = {}
    for idx, c in enumerate(classes):
        for mid in c.member_ids:
            owner[mid] = idx
    return owner


def fusion_count(
    family: FamilySpec,
    ctx: FieldCtx,
    r: int,
    g,
    *,
    table: GroupTable | None = None,
) -> FormSet:
    """Count base classes (and base z-classes) fusing into g's extended class.

    GL/SL ambients are decided by matrix conjugacy tests over the extended
    field, so the extended group is never enumerated; other families fall
    back to an extended table within the size bound.
    """
    if r < 1:
        raise ValueError("extension degree must be positive")
    base = table if table is not None else instantiate(family, ctx)
    ext = make_field(ctx.p, ctx.m * r)
    classes = conjugacy_classes(base)
    g_mat = _as_mat(base, g)
    gid = base.id_of(g_mat)
    g_class = next(c.rep_id for c in classes if gid in c.member_ids)
    g_up = mat_embed(g_mat, ext)

    fused = []
    if family.kind in (GL, SL):
        test = gl_conjugate_test if family.kind == GL else sl_conjugate_test
        for c in classes:
            h_up = mat_embed(base.mat_of(c.rep_id), ext)
            if test(g_up, h_up) is not None:
                fused.append(c.rep_id)
    else:
        ext_table = instantiate(family, ext)
        owner = _ext_class_lookup(ext_table)
        target = owner[ext_table.id_of(g_up)]
        for c in classes:
            h_up = mat_embed(base.mat_of(c.rep_id), ext)
            if owner[ext_table.id_of(h_up)] == target:
                fused.append(c.rep_id)

    if g_class not in fused:
        raise ConsistencyError("an element's own class must fuse with itself")
    chosen = [c for c in classes if c.rep_id in set(fused)]
    zblocks = _partition_classes(base, chosen)
    return FormSet(
        g_class, r, tuple(fused), tuple(b.rep_id for b in zblocks)
    )


# ---------------------------------------------------------------------------
# centralizer growth


@dataclass(frozen=True)
class GrowthDegree:
    element: Mat
    degrees: tuple[int, ...]
    orders: tuple[int, ...]
    estimates: tuple[int, ...]
    degree: int | None
    stable: bool

    def summary(self) -> dict:
        return {
            "element": mat_literal(self.element),
            "degrees": list(self.degrees),
            "centralizer_orders": list(self.orders),
            "estimates": list(self.estimates),
            "degree": self.degree,
            "stable": self.stable,
        }


def _ext_centralizer_order(family: FamilySpec, ext: FieldCtx, g_up: Mat) -> int:
    if family.kind in (GL, SL):
        typ = factors_type(ext, invariant_factors(g_up))
        return centralizer_order(typ, ext.q, family.kind == SL)
    tbl = instantiate(family, ext)
    return centralizer(tbl, tbl.id_of(g_up)).order


def growth_degree(
    family: FamilySpec,
    ctx: FieldCtx,
    g,
    degrees: Sequence[int],
) -> GrowthDegree:
    """Fit |Z(g)| over F_{q^r} against q^(d*r) across the sampled degrees.

    The per-degree estimate is round(log_q |Z_r| / r); the fit is declared
    stable when the last two estimates agree, and flagged otherwise.
    """
    degs = sorted(set(int(d) for d in degrees))
    if not degs or degs[0] < 1:
        raise ValueError("need a nonempty list of positive degrees")
    g_mat = g if isinstance(g, Mat) else None
    if g_mat is None:
        raise ValueError("growth sampling takes an explicit matrix")
    orders = []
    for r in degs:
        ext = make_field(ctx.p, ctx.m * r)
        orders.append(_ext_centralizer_order(family, ext, mat_embed(g_mat, ext)))
    for i, ri in enumerate(degs):
        for j, rj in enumerate(degs):
            if ri != rj and rj % ri == 0 and orders[i] > orders[j]:
                raise ConsistencyError(
                    f"centralizer order shrank from degree {ri} to {rj}"
                )
    logq = math.log(ctx.q)
    est = tuple(round(math.log(o) / (r * logq)) for o, r in zip(orders, degs))
    stable = len(est) >= 2 and est[-1] == est[-2]
    return GrowthDegree(
        g_mat, tuple(degs), tuple(orders), est, est[-1] if stable else None, stable
    )


# ---------------------------------------------------------------------------
# stabilization under extension towers


@dataclass(frozen=True)
class StabilizeResult:
    family: FamilySpec
    base: FieldCtx
    seeds: tuple[Mat, ...]
    partitions: tuple[tuple[tuple[int, ...], ...], ...]
    stable_at: int | None

    @property
    def final_partition(self) -> tuple[tuple[int, ...], ...]:
        return self.partitions[-1]

    @property
    def block_counts(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.partitions)

    def summary(self) -> dict:
        return {
            "family": self.family.label(),
            "base_field": self.base.name,
            "seeds": [mat_literal(s) for s in self.seeds],
            "block_counts": list(self.block_counts),
            "final_partition": [list(b) for b in self.final_partition],
            "stable_at": self.stable_at,
        }


def _refine(items: Sequence, equiv) -> tuple[tuple[int, ...], ...]:
    """Index blocks of items under equiv, each led by its first (least) index."""
    blocks: list[list[int]] = []
    for i, x in enumerate(items):
        for block in blocks:
            if equiv(items[block[0]], x):
                block.append(i)
                break
        else:
            blocks.append([i])
    return tuple(tuple(b) for b in blocks)


def _seed_partition(
    family: FamilySpec, ext: FieldCtx, seeds_up: list[Mat]
) -> tuple[tuple[int, ...], ...]:
    """The seeds' blocks under z-equivalence in the family over ext.

    GL seeds, and SL seeds that are all scalar or regular, are grouped by
    key in order of first occurrence (the order _refine gives): the type,
    and in SL for a regular s also det_class(type, x), x the GL witness
    from the first seed of s's type to s. No SL pair is tested and no
    table is built. Otherwise the table route, within ZK_MAX_GROUP."""
    if family.kind == GL or (family.kind == SL and all(
        s.is_scalar() or len(invariant_factors(s)) == 1 for s in seeds_up
    )):
        blocks: dict = {}
        leads: dict = {}
        for i, s in enumerate(seeds_up):
            key = factors_type(s.ctx, invariant_factors(s))
            if family.kind == SL and not s.is_scalar():
                x = structural_z_equivalent(GL, leads.setdefault(key, s), s)
                key = (key, det_class(key, x))
            blocks.setdefault(key, []).append(i)
        return tuple(tuple(b) for b in blocks.values())
    order = family_order(family, ext)
    if order <= limits.max_group():
        tbl = instantiate(family, ext)
        return _refine(seeds_up, lambda a, b: z_equivalent(tbl, a, b) is not None)
    raise BoundExceeded(
        f"{family.label()} over F_{ext.name} has order {order}, beyond both routes "
        "(ZK_MAX_GROUP / --max-group)"
    )


def geometric_stabilize(
    family: FamilySpec,
    ctx: FieldCtx,
    seeds: Sequence[Mat],
    max_r: int,
) -> StabilizeResult:
    """Partition the seed set by z-equivalence over F_{q^r}, r = 1..max_r.

    The full degree profile is reported; it can oscillate, since F_{q^r}
    and F_{q^(r+1)} do not contain one another (an irreducible quadratic
    stays irreducible over every odd-degree extension). Certification
    therefore compares nested fields: stable_at is the least r with
    2r <= max_r whose partition agrees with the one at 2r. None means
    stabilization was not witnessed, which is a report, not a refutation.
    """
    if max_r < 1:
        raise ValueError("max_r must be positive")
    seed_list = list(seeds)
    if not seed_list:
        raise ValueError("need at least one seed")
    partitions = []
    for r in range(1, max_r + 1):
        ext = make_field(ctx.p, ctx.m * r)
        seeds_up = [mat_embed(s, ext) for s in seed_list]
        partitions.append(_seed_partition(family, ext, seeds_up))
    stable_at = None
    for r in range(1, max_r // 2 + 1):
        if partitions[r - 1] == partitions[2 * r - 1]:
            stable_at = r
            break
    return StabilizeResult(
        family, ctx, tuple(seed_list), tuple(partitions), stable_at
    )

"""Explicit finite matrix group engine.

Families are instantiated as full element tables (lists of Mat, indexed
by canonical encoding), with closed-form order counts asserted against
the enumeration. Conjugacy machinery runs on certified generator sets so
orbit computations cannot silently under-generate.
"""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

from .errors import BadCharacteristic, BoundExceeded, ConsistencyError
from .ff import FieldCtx, _factorize, make_field, mult_generator, parse_field
from .limits import max_group
from .matfq import (
    Mat,
    centralizer_algebra,
    heisenberg_element,
    mat_order,
    mat_parse,
    regular_unipotent,
    span_step,
)

GL = "gl"
SL = "sl"
BOREL_GL = "borel-gl"
BOREL_SL = "borel-sl"
UNIPOTENT = "unipotent"
HEISENBERG = "heisenberg"
DIHEDRAL = "dihedral"

KINDS = (GL, SL, BOREL_GL, BOREL_SL, UNIPOTENT, HEISENBERG, DIHEDRAL)

_DET_ONE_KINDS = (SL, BOREL_SL)


@dataclass(frozen=True)
class FamilySpec:
    """A standard family: kind, dimension (order parameter m for dihedral)."""

    kind: str
    n: int
    allow_bad_characteristic: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        least = 1 if self.kind == DIHEDRAL else 2
        if self.kind == HEISENBERG and self.n != 3:
            raise ValueError("heisenberg is 3-dimensional")
        if self.n < least:
            raise ValueError(f"dimension {self.n} too small for {self.kind}")

    @property
    def matrix_dim(self) -> int:
        if self.kind == DIHEDRAL:
            return 2
        return self.n

    def label(self) -> str:
        if self.kind == DIHEDRAL:
            return f"dihedral:{self.n}"
        if self.kind == UNIPOTENT:
            return f"u{self.n}"
        if self.kind == HEISENBERG:
            return "heisenberg"
        return f"{self.kind}:{self.n}"


def family_order(spec: FamilySpec, ctx: FieldCtx) -> int:
    q = ctx.q
    n = spec.n
    if spec.kind == GL:
        out = 1
        for i in range(n):
            out *= q**n - q**i
        return out
    if spec.kind == SL:
        return family_order(FamilySpec(GL, n), ctx) // (q - 1)
    if spec.kind == BOREL_GL:
        return (q - 1) ** n * q ** (n * (n - 1) // 2)
    if spec.kind == BOREL_SL:
        return (q - 1) ** (n - 1) * q ** (n * (n - 1) // 2)
    if spec.kind in (UNIPOTENT, HEISENBERG):
        m = 3 if spec.kind == HEISENBERG else n
        return q ** (m * (m - 1) // 2)
    if spec.kind == DIHEDRAL:
        return 2 * n
    raise ValueError(spec.kind)


def parse_group_spec(text: str, *, max_field_order: int | None = None):
    """Parse 'gl:2@3^1', 'u3@5^1', 'dihedral:7' into (FamilySpec, ctx or None)."""
    text = text.strip().lower()
    if "@" in text:
        fam_part, field_part = text.split("@", 1)
        ctx = parse_field(field_part, max_order=max_field_order)
    else:
        fam_part, ctx = text, None
    if fam_part.startswith("u") and fam_part[1:].isdigit():
        spec = FamilySpec(UNIPOTENT, int(fam_part[1:]))
    elif fam_part == "heisenberg":
        spec = FamilySpec(HEISENBERG, 3)
    elif ":" in fam_part:
        kind, n_s = fam_part.split(":", 1)
        spec = FamilySpec(kind, int(n_s))
    else:
        raise ValueError(f"cannot parse group spec {text!r}")
    if ctx is None and spec.kind != DIHEDRAL:
        raise ValueError(f"family {spec.kind!r} needs a field, e.g. '@3^1'")
    return spec, ctx


def parse_element_spec(spec: FamilySpec, ctx: FieldCtx, text: str) -> Mat:
    """Parse an element: a matrix literal, 'identity', 'u_beta:B', or 'h:T'."""
    text = text.strip()
    n = spec.matrix_dim
    if text.startswith("["):
        g = mat_parse(ctx, text)
        if g.n != n:
            raise ValueError(f"element is {g.n}x{g.n}, family needs {n}x{n}")
        return g
    if text == "identity":
        return Mat.identity(ctx, n)
    if ":" in text:
        name, value_s = text.split(":", 1)
        try:
            value = int(value_s)
        except ValueError:
            raise ValueError(f"element parameter {value_s!r} is not an integer") from None
        if name == "u_beta":
            return regular_unipotent(n, value, ctx)
        if name == "h":
            if n != 3:
                raise ValueError("constructor 'h' needs a 3-dimensional family")
            return heisenberg_element(value, ctx)
        raise ValueError(f"unknown element constructor {name!r}")
    raise ValueError(f"cannot parse element spec {text!r}")


# ---------------------------------------------------------------------------
# standard generators


def _transvection(ctx: FieldCtx, n: int, i: int, j: int, value: int) -> Mat:
    data = [1 if a == b else 0 for a in range(n) for b in range(n)]
    data[i * n + j] = value
    return Mat(ctx, n, data)


def _additive_basis(ctx: FieldCtx) -> list[int]:
    return [ctx.p**k for k in range(ctx.m)] if ctx.m > 1 else [1]


def dihedral_context(m: int, *, max_field_order: int | None = None) -> FieldCtx:
    """Least prime power q with an order-m unit, i.e. m | q - 1."""
    q = 2
    while True:
        fac = _factorize(q)
        if len(fac) == 1 and (q - 1) % m == 0:
            (p, e), = fac.items()
            return make_field(p, e, max_order=max_field_order)
        q += 1


def dihedral_generators(m: int, ctx: FieldCtx) -> tuple[Mat, Mat]:
    """Rotation diag(z, z^-1) with z the least order-m unit, and the flip."""
    if (ctx.q - 1) % m:
        raise ValueError(f"F_{ctx.name} has no unit of order {m}")
    z = None
    for u in ctx.units():
        k, acc = 1, u
        while acc != 1:
            acc = ctx.mul(acc, u)
            k += 1
        if k == m:
            z = u
            break
    if z is None:
        raise ConsistencyError("no unit of the promised order")
    rot = Mat.diagonal(ctx, [z, ctx.inv(z)])
    refl = Mat.from_rows(ctx, [[0, 1], [1, 0]])
    return rot, refl


def standard_generators(spec: FamilySpec, ctx: FieldCtx) -> list[Mat]:
    n = spec.matrix_dim
    basis = _additive_basis(ctx)
    if spec.kind == DIHEDRAL:
        return list(dihedral_generators(spec.n, ctx))
    gens: list[Mat] = []
    if spec.kind in (GL, SL):
        for i in range(n):
            for j in range(n):
                if i != j:
                    gens.extend(_transvection(ctx, n, i, j, b) for b in basis)
        if spec.kind == GL and ctx.q > 2:
            g = mult_generator(ctx).code
            gens.append(Mat.diagonal(ctx, [g] + [1] * (n - 1)))
        return gens
    if spec.kind in (BOREL_GL, BOREL_SL, UNIPOTENT, HEISENBERG):
        for i in range(n):
            for j in range(i + 1, n):
                gens.extend(_transvection(ctx, n, i, j, b) for b in basis)
        if spec.kind == BOREL_GL and ctx.q > 2:
            g = mult_generator(ctx).code
            for i in range(n):
                gens.append(Mat.diagonal(ctx, [g if k == i else 1 for k in range(n)]))
        if spec.kind == BOREL_SL and ctx.q > 2:
            g = mult_generator(ctx).code
            gi = ctx.inv(g)
            for i in range(n - 1):
                diag = [1] * n
                diag[i], diag[i + 1] = g, gi
                gens.append(Mat.diagonal(ctx, diag))
        return gens
    raise ValueError(spec.kind)


# ---------------------------------------------------------------------------
# group tables


class GroupTable:
    """Immutable element table with canonical-encoding index."""

    __slots__ = (
        "family", "ctx", "elements", "index", "order", "gens",
        "_gens_certified", "_classes", "_identity_id",
    )

    def __init__(self, family: FamilySpec | None, ctx: FieldCtx, elements: list[Mat], gens: list[Mat]):
        self.family = family
        self.ctx = ctx
        self.elements = tuple(elements)
        self.index = {m.data: i for i, m in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ConsistencyError("duplicate elements in group table")
        self.order = len(self.elements)
        self.gens = tuple(gens)
        self._gens_certified = False
        self._classes = None
        n = self.elements[0].n
        ident = Mat.identity(ctx, n)
        if ident.data not in self.index:
            raise ConsistencyError("group table lacks the identity")
        self._identity_id = self.index[ident.data]

    @property
    def n(self) -> int:
        return self.elements[0].n

    @property
    def identity_id(self) -> int:
        return self._identity_id

    def id_of(self, mat: Mat) -> int:
        got = self.index.get(mat.data)
        if got is None:
            raise KeyError("matrix is not an element of this group")
        return got

    def mat_of(self, eid: int) -> Mat:
        return self.elements[eid]

    def contains(self, mat: Mat) -> bool:
        return mat.data in self.index

    def ids(self) -> range:
        return range(self.order)

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        label = self.family.label() if self.family else "closure"
        return f"GroupTable({label}@{self.ctx.name}, order {self.order})"

    def _certify_generators(self) -> None:
        """Verify the stored generators reach every element (BFS once)."""
        if self._gens_certified:
            return
        reached = len(_close([self.elements[self._identity_id]], self.gens, within=self.index))
        if reached != self.order:
            raise ConsistencyError(f"generators reach {reached} of {self.order} elements")
        self._gens_certified = True


class VirtualGroup:
    """Order and membership for a family too large to tabulate."""

    __slots__ = ("family", "ctx", "order")

    def __init__(self, family: FamilySpec, ctx: FieldCtx):
        self.family = family
        self.ctx = ctx
        self.order = family_order(family, ctx)

    @property
    def n(self) -> int:
        return self.family.matrix_dim

    def contains(self, mat: Mat) -> bool:
        if mat.ctx is not self.ctx or mat.n != self.n:
            return False
        kind = self.family.kind
        det = mat.det()
        if kind == GL:
            return det != 0
        if kind == SL:
            return det == 1
        upper = all(mat[i, j] == 0 for i in range(mat.n) for j in range(i))
        if kind == BOREL_GL:
            return upper and det != 0
        if kind == BOREL_SL:
            return upper and det == 1
        if kind in (UNIPOTENT, HEISENBERG):
            return upper and all(mat[i, i] == 1 for i in range(mat.n))
        raise ValueError(kind)

    def __repr__(self) -> str:
        return f"VirtualGroup({self.family.label()}@{self.ctx.name}, order {self.order})"


def _check_guard(spec: FamilySpec, ctx: FieldCtx) -> None:
    if spec.kind in _DET_ONE_KINDS and spec.n % ctx.p == 0:
        msg = (
            f"characteristic {ctx.p} divides n = {spec.n}; determinant-one "
            "structure degenerates (scalar subgroup meets the unipotent part)"
        )
        if not spec.allow_bad_characteristic:
            raise BadCharacteristic(msg + "; pass allow_bad_characteristic=True to proceed")
        warnings.warn(msg, stacklevel=3)


def _build_rows(ctx: FieldCtx, n: int, det_one: bool) -> list[Mat]:
    """GL_n, or SL_n when det_one, by rank-respecting row enumeration.

    Each row runs over the vectors outside the span S of the rows before
    it, S grown one row at a time. For SL the last row is c*r0 + s with
    r0 the least vector outside S and s in S: det is linear in the last
    row and vanishes on S, so c = det(rows, r0)^-1.
    """
    q, add, mul = ctx.q, ctx.add, ctx.mul
    vecs = list(itertools.product(range(q), repeat=n))
    out: list[Mat] = []
    todo = [((), [(0,) * n])]  # (the first rows, concatenated; their span)
    while todo:
        prefix, span = todo.pop()
        inside = set(span)
        last = len(prefix) == n * (n - 1)
        if last and det_one:
            r0 = next(v for v in vecs if v not in inside)
            c = ctx.inv(Mat._trusted(ctx, n, prefix + r0).det())
            cr0 = [mul(c, x) for x in r0]
            out.extend(Mat._trusted(ctx, n, prefix + tuple(map(add, cr0, s))) for s in span)
            continue
        rows = [v for v in vecs if v not in inside]
        if last:
            out.extend(Mat._trusted(ctx, n, prefix + r) for r in rows)
            continue
        todo.extend((prefix + r, span_step(ctx, span, r)) for r in rows)
    return out


def _build_triangular(ctx: FieldCtx, n: int, kind: str) -> list[Mat]:
    q = ctx.q
    units = list(range(1, q))
    out = []
    if kind in (UNIPOTENT, HEISENBERG):
        diag_choices = [(1,)] * n
    elif kind == BOREL_GL:
        diag_choices = [tuple(units)] * n
    else:  # BOREL_SL: last diagonal entry fixed by the others
        diag_choices = [tuple(units)] * (n - 1)
    upper_positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for diag in itertools.product(*diag_choices):
        if kind == BOREL_SL:
            prod = 1
            for d in diag:
                prod = ctx.mul(prod, d)
            diag = diag + (ctx.inv(prod),)
        for uppers in itertools.product(range(q), repeat=len(upper_positions)):
            data = [0] * (n * n)
            for i in range(n):
                data[i * n + i] = diag[i]
            for (i, j), v in zip(upper_positions, uppers):
                data[i * n + j] = v
            out.append(Mat(ctx, n, data))
    return out


def _build_dihedral(m: int, ctx: FieldCtx) -> tuple[list[Mat], list[Mat]]:
    rot, refl = dihedral_generators(m, ctx)
    members = []
    acc = Mat.identity(ctx, 2)
    for _ in range(m):
        members.append(acc)
        members.append(acc * refl)
        acc = acc * rot
    return members, [rot, refl]


def instantiate(
    spec: FamilySpec, ctx: FieldCtx | None = None, *, max_order: int | None = None
) -> GroupTable:
    """Build the full table; the closed-form order is asserted afterwards.

    The dihedral family picks its own field (least q with m | q - 1) when
    ctx is omitted; every other family requires an explicit context.
    """
    if ctx is None:
        if spec.kind != DIHEDRAL:
            raise ValueError(f"family {spec.kind!r} needs a field context")
        ctx = dihedral_context(spec.n)
    _check_guard(spec, ctx)
    expected = family_order(spec, ctx)
    bound = max_group(max_order)
    if expected > bound:
        raise BoundExceeded(
            f"{spec.label()}@{ctx.name} has order {expected}, above bound {bound} "
            "(ZK_MAX_GROUP / --max-group)"
        )
    n = spec.matrix_dim
    gens = standard_generators(spec, ctx)
    if spec.kind in (GL, SL):
        elements = _build_rows(ctx, n, det_one=spec.kind == SL)
    elif spec.kind in (BOREL_GL, BOREL_SL, UNIPOTENT, HEISENBERG):
        elements = _build_triangular(ctx, n, spec.kind)
    elif spec.kind == DIHEDRAL:
        elements, gens = _build_dihedral(spec.n, ctx)
    else:
        raise ValueError(spec.kind)
    elements.sort(key=lambda m: m.data)
    table = GroupTable(spec, ctx, elements, gens)
    if table.order != expected:
        raise ConsistencyError(
            f"enumerated {table.order} elements of {spec.label()}@{ctx.name}, "
            f"formula says {expected}"
        )
    return table


def _close(start, gens, within=None, cap=None) -> list[Mat]:
    """FIFO closure of the start elements under right multiplication by gens.

    Returns start followed by the new elements in discovery order. A
    product outside within (a set or dict of encodings) means the member
    set is not closed; more than cap elements means the bound is hit.
    """
    out = list(start)
    seen = {m.data for m in out}
    head = 0
    while head < len(out):
        cur = out[head]
        head += 1
        for g in gens:
            nxt = cur * g
            d = nxt.data
            if d in seen:
                continue
            if within is not None and d not in within:
                raise ConsistencyError("member set is not closed")
            seen.add(d)
            out.append(nxt)
            if cap is not None and len(out) > cap:
                raise BoundExceeded(
                    f"closure exceeded bound {cap} (ZK_MAX_GROUP / --max-group)"
                )
    return out


def closure_generate(
    ctx: FieldCtx,
    gens,
    *,
    max_order: int | None = None,
    family: FamilySpec | None = None,
) -> GroupTable:
    """Breadth-first closure of invertible generators, discovery-ordered."""
    gens = sorted(gens, key=lambda m: m.data)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n
    for g in gens:
        if g.ctx is not ctx or g.n != n:
            raise ValueError("generators must share one context and size")
        if g.det() == 0:
            raise ValueError("generators must be invertible")
    elements = _close([Mat.identity(ctx, n)], gens, cap=max_group(max_order))
    table = GroupTable(family, ctx, elements, gens)
    table._gens_certified = True
    return table


# ---------------------------------------------------------------------------
# subgroups


class Subgroup:
    """A verified subgroup: sorted members, greedy generators, Lagrange check.

    parent may be a GroupTable or a VirtualGroup; ids are available only
    under a real table.
    """

    __slots__ = ("parent", "members", "member_set", "gens", "_finger")

    def __init__(self, parent, members: list[Mat], gens: list[Mat]):
        self.parent = parent
        self.members = tuple(sorted(members, key=lambda m: m.data))
        self.member_set = frozenset(self.members)
        self.gens = tuple(gens)
        self._finger = None
        if parent.order % len(self.members):
            raise ConsistencyError("subgroup order violates Lagrange")

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def member_ids(self) -> tuple[int, ...]:
        if not isinstance(self.parent, GroupTable):
            raise TypeError("ids need a tabulated parent group")
        return tuple(sorted(self.parent.id_of(m) for m in self.members))

    def contains(self, mat: Mat) -> bool:
        return mat in self.member_set

    def is_abelian(self) -> bool:
        return all(a * b == b * a for a in self.gens for b in self.gens)

    def center_order(self) -> int:
        return sum(1 for m in self.members if all(m * g == g * m for g in self.gens))

    def order_multiset(self) -> tuple[tuple[int, int], ...]:
        counts: dict[int, int] = {}
        for m in self.members:
            k = mat_order(m)
            counts[k] = counts.get(k, 0) + 1
        return tuple(sorted(counts.items()))

    def fingerprint(self):
        if self._finger is None:
            self._finger = (
                self.order,
                self.is_abelian(),
                self.center_order(),
                self.order_multiset(),
            )
        return self._finger

    def __repr__(self) -> str:
        return f"Subgroup(order {self.order} of {self.parent!r})"


def _greedy_generators(members_sorted: list[Mat], ident: Mat) -> list[Mat]:
    """Least-encoding generators: each member not yet reached joins the set."""
    gens: list[Mat] = []
    closure = [ident]
    reached = {ident.data}
    member_set = {m.data for m in members_sorted}
    for m in members_sorted:
        if m.data in reached:
            continue
        gens.append(m)
        closure = _close(closure, gens, within=member_set)
        reached = {x.data for x in closure}
        if len(closure) == len(members_sorted):
            break
    if len(closure) != len(members_sorted):
        raise ConsistencyError("member set is not closed")
    return gens


def subgroup_from_members(parent, members) -> Subgroup:
    """Verify closure (via greedy generators) and wrap."""
    members = sorted(set(members), key=lambda m: m.data)
    if not members:
        raise ValueError("a subgroup needs members")
    n = members[0].n
    ident = Mat.identity(members[0].ctx, n)
    if ident not in set(members):
        raise ValueError("member set lacks the identity")
    for m in members:
        if not parent.contains(m):
            raise ValueError("member outside the parent group")
    gens = _greedy_generators(members, ident)
    if not gens:
        gens = [ident]
    return Subgroup(parent, members, gens)


def whole_group(table: GroupTable) -> Subgroup:
    sub = Subgroup(table, list(table.elements), list(table.gens))
    table._certify_generators()
    return sub


# ---------------------------------------------------------------------------
# conjugacy classes


@dataclass(frozen=True)
class ConjClass:
    rep_id: int
    member_ids: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.member_ids)


def conjugacy_classes(table: GroupTable) -> tuple[ConjClass, ...]:
    """Partition by conjugation orbits under the certified generators."""
    if table._classes is not None:
        return table._classes
    table._certify_generators()
    geninfo = [(g, g.inverse()) for g in table.gens]
    order_ids = sorted(table.ids(), key=lambda i: table.elements[i].data)
    assigned = bytearray(table.order)
    classes = []
    small = table.order <= 5000
    for seed in order_ids:
        if assigned[seed]:
            continue
        orbit = {seed}
        queue = [seed]
        while queue:
            x = queue.pop()
            mx = table.elements[x]
            for g, gi in geninfo:
                y = table.index[(g * mx * gi).data]
                if y not in orbit:
                    orbit.add(y)
                    queue.append(y)
        for y in orbit:
            assigned[y] = 1
        if table.order % len(orbit):
            raise ConsistencyError("class size fails orbit-stabilizer divisibility")
        if small:
            rep = table.elements[seed]
            stab = sum(1 for m in table.elements if m * rep == rep * m)
            if len(orbit) * stab != table.order:
                raise ConsistencyError("orbit-stabilizer product mismatch")
        classes.append(ConjClass(seed, tuple(sorted(orbit))))
    if sum(c.size for c in classes) != table.order:
        raise ConsistencyError("conjugacy classes do not partition the group")
    table._classes = tuple(classes)
    return table._classes


def centralizer(table: GroupTable, g_id: int) -> Subgroup:
    """{x : xg = gx} by scan; cross-validated against the matrix algebra
    for general/special linear families."""
    g = table.elements[g_id]
    members = [m for m in table.elements if m * g == g * m]
    if len(members) == table.order:
        sub = whole_group(table)
    else:
        sub = subgroup_from_members(table, members)
    kind = table.family.kind if table.family else None
    if kind in (GL, SL):
        alg = centralizer_algebra(g)
        want = 1 if kind == SL else None
        if table.ctx.q**alg.dim <= 65536 and set(alg.units(want)) != set(members):
            raise ConsistencyError("group centralizer disagrees with the centralizer algebra")
    return sub


def center(table: GroupTable) -> Subgroup:
    table._certify_generators()
    members = [m for m in table.elements if all(m * g == g * m for g in table.gens)]
    if len(members) == table.order:
        return whole_group(table)
    return subgroup_from_members(table, members)


def normalizer(table: GroupTable, H: Subgroup) -> Subgroup:
    """{x : x H x^-1 = H}; generator images decide (orders being equal)."""
    members = []
    for x in table.elements:
        xi = x.inverse()
        if all((x * g * xi) in H.member_set for g in H.gens):
            members.append(x)
    if len(members) == table.order:
        return whole_group(table)
    return subgroup_from_members(table, members)


def subgroups_conjugate(table: GroupTable, H1: Subgroup, H2: Subgroup) -> int | None:
    """Least id x with x H1 x^-1 = H2, or None; fingerprints prefilter."""
    if H1.order != H2.order:
        return None
    if H1.member_set == H2.member_set:
        return table.identity_id
    if H1.fingerprint() != H2.fingerprint():
        return None
    for eid in sorted(table.ids(), key=lambda i: table.elements[i].data):
        x = table.elements[eid]
        xi = x.inverse()
        if all((x * g * xi) in H2.member_set for g in H1.gens):
            return eid
    return None


def element_order(table: GroupTable, eid: int) -> int:
    return mat_order(table.elements[eid])


# ---------------------------------------------------------------------------
# quotients


class QuotientGroup:
    """Coset group N/D with an explicit multiplication table."""

    __slots__ = ("numerator", "denominator", "reps", "table", "_coset_of")

    def __init__(self, numerator: Subgroup, denominator: Subgroup):
        N, D = numerator, denominator
        if not D.member_set <= N.member_set:
            raise ValueError("denominator is not inside the numerator")
        for g in N.gens:
            gi = g.inverse()
            for d in D.gens:
                if (g * d * gi) not in D.member_set:
                    raise ValueError("denominator is not normal in the numerator")
        self.numerator = N
        self.denominator = D
        coset_of: dict[tuple, int] = {}
        reps: list[Mat] = []
        for m in N.members:  # members sorted: first hit is the least rep
            if m.data in coset_of:
                continue
            idx = len(reps)
            reps.append(m)
            for d in D.members:
                coset_of[(m * d).data] = idx
        self.reps = tuple(reps)
        self._coset_of = coset_of
        k = len(reps)
        self.table = tuple(
            tuple(coset_of[(reps[i] * reps[j]).data] for j in range(k)) for i in range(k)
        )

    @property
    def order(self) -> int:
        return len(self.reps)

    @property
    def identity_index(self) -> int:
        return self._coset_of[Mat.identity(self.reps[0].ctx, self.reps[0].n).data]

    def coset_index(self, mat: Mat) -> int:
        return self._coset_of[mat.data]

    def is_abelian(self) -> bool:
        k = self.order
        return all(self.table[i][j] == self.table[j][i] for i in range(k) for j in range(k))

    def inverse_index(self, i: int) -> int:
        e = self.identity_index
        for j in range(self.order):
            if self.table[i][j] == e:
                return j
        raise ConsistencyError("coset has no inverse")

    def conjugacy_class_count(self) -> int:
        k = self.order
        seen = [False] * k
        count = 0
        for a in range(k):
            if seen[a]:
                continue
            count += 1
            for x in range(k):
                xi = self.inverse_index(x)
                seen[self.table[self.table[x][a]][xi]] = True
        return count


def quotient(numerator: Subgroup, denominator: Subgroup) -> QuotientGroup:
    q = QuotientGroup(numerator, denominator)
    if q.order * denominator.order != numerator.order:
        raise ConsistencyError("coset count disagrees with the index")
    return q

"""Explicit finite matrix group engine.

A family's table enumerates nothing: an element's id is its rank in the
lexicographic order of the codes, and the table turns ids into matrices
and back on demand. Class and subgroup work runs on element ids: each
conjugation orbit is walked once under the table's small generating set,
recording a Schreier tree, so every member b of the orbit of its root r
has a transversal t_b with t_b r t_b^-1 = b. A root's centralizer is its
stabilizer, certified by |C(r)|·|cl(r)| = |G|; any other centralizer is
the conjugate t_b C(r) t_b^-1, cached per id as its members and
generators. Subgroup conjugacy and normalizers test only the cosets
t_b t_a^-1 C(a) that a pivot element a can be sent along, never the whole
group, and compare no invariant of the subgroups first. Orbits of other
hashable points are walked by key_orbits: twisted carriers, coset tables,
and the closure of a generating set, which is the orbit of the identity
under right multiplication by the generators. The same walk on ids
certifies that a table's generators reach every element.
"""
from __future__ import annotations

import bisect
import functools
import math
import operator
import warnings
from dataclasses import dataclass

from .errors import BadCharacteristic, BoundExceeded, ConsistencyError
from . import limits
from .ff import FieldCtx, _factorize, make_field, mult_generator, parse_field
from .matfq import (
    Mat,
    _ech_insert,
    centralizer_algebra,
    heisenberg_element,
    mat_order,
    mat_parse,
    regular_unipotent,
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
    q, n, kind = ctx.q, spec.n, spec.kind
    if kind == DIHEDRAL:
        return 2 * n
    if kind in (GL, SL):
        return math.prod(q**n - q**i for i in range(n)) // (q - 1 if kind == SL else 1)
    units = {BOREL_GL: n, BOREL_SL: n - 1}.get(kind, 0)  # free diagonal entries
    return (q - 1) ** units * q ** (n * (n - 1) // 2)


def parse_group_spec(text: str):
    """Parse 'gl:2@3^1', 'u3@5^1', 'dihedral:7' into (FamilySpec, ctx or None)."""
    text = text.strip().lower()
    if "@" in text:
        fam_part, field_part = text.split("@", 1)
        ctx = parse_field(field_part)
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


def dihedral_context(m: int) -> FieldCtx:
    """Least prime power q with an order-m unit, i.e. m | q - 1."""
    q = 2
    while True:
        fac = _factorize(q)
        if len(fac) == 1 and (q - 1) % m == 0:
            (p, e), = fac.items()
            return make_field(p, e)
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
    """The generators instantiate gives a triangular family."""
    n = spec.matrix_dim
    basis = _additive_basis(ctx)
    gens: list[Mat] = []
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


def _linear_generators(spec: FamilySpec, ctx: FieldCtx) -> tuple[list[Mat], list[Mat]]:
    """A small generating set of GL_n(q) or SL_n(q) and its proven fallback.

    With w the least primitive element: h = diag(w, 1, ..., 1) for GL and
    diag(w, w^-1, 1, ..., 1) for SL, x = I + E_12, and c the n-cycle
    e_i -> e_(i+1) signed to determinant 1. The fallback {h, x, c}
    generates: conjugating x by h spans the root group x_12(F_q) (the
    F_p-span of the powers of w, or of w^2 for SL, is F_q), and c carries
    it to every x_(i,i+1) and x_(n,1), whose commutators give every root
    group, hence SL_n; det h = w adds GL_n. h is dropped when it is scalar
    (q = 2, or SL_2(F_3), where x and c alone generate over the prime
    field). These groups are 2-generated (Steinberg, Generators for
    simple groups, 1962); the pair {h, c*x} is tried first, certified by
    the table, and generated every table tried.
    """
    n = spec.n
    w = mult_generator(ctx).code
    diag = [w] + [1] * (n - 1) if spec.kind == GL else [w, ctx.inv(w)] + [1] * (n - 2)
    h = Mat.diagonal(ctx, diag)
    x = _transvection(ctx, n, 0, 1, 1)
    data = [0] * (n * n)
    for i in range(n):
        data[((i + 1) % n) * n + i] = 1
    data[n - 1] = 1 if n % 2 else ctx.neg(1)
    c = Mat(ctx, n, data)
    if h.is_scalar():
        return [x, c], [x, c]
    return [h, c * x], [h, x, c]


# ---------------------------------------------------------------------------
# group tables


class GroupTable:
    """Immutable group table, its elements numbered by ids in range(order).

    A ranked table (GL, SL, Borel, unitriangular, Heisenberg) enumerates
    nothing: an id is the element's rank in the lexicographic order of the
    codes, computed from the element and back, and a memo (data -> id,
    id -> Mat) keeps the elements touched. A table of an explicit list
    (closure_generate, dihedral) holds the list in its memo. The table also
    keeps the class engine's state: the conjugation orbits walked so far
    (a root id per element and a Schreier tree of parent id and generator
    index, arrays allocated on the first walk) and the centralizers.
    """

    __slots__ = (
        "family", "ctx", "n", "order", "gens", "_gens_inv", "_ranks", "_ids", "_mats",
        "_elements", "_fallback", "_gens_certified", "_classes", "_identity_id",
        "_orbit_root", "_orbit_parent", "_orbit_gen", "_orbits", "_centralizers",
    )

    def __init__(self, family: FamilySpec | None, ctx: FieldCtx, elements: list[Mat] | None,
                 gens: list[Mat], fallback: list[Mat] | None = None, ranks=None):
        self.family, self.ctx, self._ranks = family, ctx, ranks  # ranks: rank and unrank, or None
        self._elements = None if ranks else tuple(elements)
        self._mats = {} if ranks else dict(enumerate(self._elements))  # id -> Mat
        self._ids = {m.data: i for i, m in self._mats.items()}  # data -> id
        if len(self._ids) != len(self._mats):
            raise ConsistencyError("duplicate elements in group table")
        self.order = family_order(family, ctx) if ranks else len(self._elements)
        self.n = family.matrix_dim if family else elements[0].n
        self._set_gens(gens)
        self._fallback = fallback
        self._gens_certified = False
        self._identity_id = self._find(Mat.identity(ctx, self.n))
        if self._identity_id is None:
            raise ConsistencyError("group table lacks the identity")

    def _set_gens(self, gens) -> None:
        """Install a generating set and drop everything walked under the old one."""
        self.gens = tuple(gens)
        self._gens_inv = tuple(g.inverse() for g in self.gens)
        self._classes = None
        self._orbit_root = None  # array('i'): root id of the walk that reached each id, -1 before
        self._orbit_parent = None  # array('i'): Schreier-tree parent id (a root is its own)
        self._orbit_gen = None  # array('i'): index of the generator on the tree edge
        self._orbits: dict = {}  # root id -> array of orbit ids in walk order
        self._centralizers: dict[int, tuple] = {}  # id -> parts, see _centralizer_parts

    @property
    def elements(self) -> tuple[Mat, ...]:
        """Every element in id order; a ranked table unranks them all on first read."""
        if self._elements is None:
            self._elements = tuple(map(self.mat_of, range(self.order)))
        return self._elements

    @property
    def index(self) -> dict:
        """data -> id of every element, which a ranked table unranks first."""
        _ = self.elements
        return self._ids

    @property
    def identity_id(self) -> int:
        return self._identity_id

    def _find(self, mat: Mat) -> int | None:
        """mat's id from the memo, else from its rank; None for a non-member."""
        eid = self._ids.get(mat.data)
        if eid is None and self._ranks and _family_member(self.family, self.ctx, mat):
            eid = self._ids[mat.data] = self._ranks.rank(mat.data)
            self._mats.setdefault(eid, mat)
        return eid

    def id_of(self, mat: Mat) -> int:
        got = self._find(mat)
        if got is None:
            raise KeyError("matrix is not an element of this group")
        return got

    def mat_of(self, eid: int) -> Mat:
        m = self._mats.get(eid)
        if m is None:
            if not self._ranks or not 0 <= eid < self.order:
                raise IndexError(f"no element with id {eid}")
            m = self._mats[eid] = Mat._trusted(self.ctx, self.n, self._ranks.unrank(eid))
            self._ids[m.data] = eid
        return m

    def contains(self, mat: Mat) -> bool:
        return self._find(mat) is not None

    def ids(self) -> range:
        return range(self.order)

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        label = self.family.label() if self.family else "closure"
        return f"GroupTable({label}@{self.ctx.name}, order {self.order})"

    def _reached(self) -> int:
        """How many elements the generators reach from the identity: the
        key_orbits walk of closure_generate, on ids."""
        mat_of, id_of = self.mat_of, self.id_of
        moves = [lambda x, g=g: id_of(mat_of(x) * g) for g in self.gens]
        try:
            return len(next(key_orbits([self._identity_id], moves)))
        except KeyError:  # id_of refused a product
            raise ConsistencyError("a generator leads outside the group table") from None

    def _certify_generators(self) -> bool:
        """Verify the stored generators reach every element (one closure walk).

        Generators that fall short are replaced by the fallback set, which
        drops every orbit and centralizer found so far; the return value
        says whether that happened.
        """
        if self._gens_certified:
            return False
        reached = self._reached()
        switched = reached != self.order and self._fallback is not None
        if switched:
            self._set_gens(self._fallback)
            self._fallback = None
            reached = self._reached()
        if reached != self.order:
            raise ConsistencyError(f"generators reach {reached} of {self.order} elements")
        self._gens_certified = True
        return switched


class VirtualGroup:
    """Order and membership for a family too large to tabulate."""

    __slots__ = ("family", "ctx", "n", "order")

    def __init__(self, family: FamilySpec, ctx: FieldCtx):
        self.family, self.ctx, self.n = family, ctx, family.matrix_dim
        self.order = family_order(family, ctx)

    def contains(self, mat: Mat) -> bool:
        return _family_member(self.family, self.ctx, mat)

    def __repr__(self) -> str:
        return f"VirtualGroup({self.family.label()}@{self.ctx.name}, order {self.order})"


def _family_member(spec: FamilySpec, ctx: FieldCtx, mat: Mat) -> bool:
    """The one membership rule of the matrix families: size and field, the
    upper-triangular shape but for GL and SL, a diagonal of ones for the
    unitriangular groups, else det = 1 (SL, Borel-SL) or det != 0."""
    if mat.ctx is not ctx or mat.n != spec.matrix_dim:
        return False
    kind, n, a = spec.kind, mat.n, mat.data
    if kind == DIHEDRAL:
        raise ValueError(kind)
    if kind not in (GL, SL) and any(a[i * n + j] for i in range(1, n) for j in range(i)):
        return False
    if kind in (UNIPOTENT, HEISENBERG):
        return set(a[:: n + 1]) == {1}
    return mat.det() == 1 if kind in _DET_ONE_KINDS else mat.det() != 0


def _check_guard(spec: FamilySpec, ctx: FieldCtx) -> None:
    if spec.kind in _DET_ONE_KINDS and spec.n % ctx.p == 0:
        msg = (
            f"characteristic {ctx.p} divides n = {spec.n}; determinant-one "
            "structure degenerates (scalar subgroup meets the unipotent part)"
        )
        if not spec.allow_bad_characteristic:
            raise BadCharacteristic(msg + "; pass allow_bad_characteristic=True to proceed")
        warnings.warn(msg, stacklevel=3)


def _add_multiple(ctx: FieldCtx, acc: list[int], c: int, row) -> list[int]:
    add, mul = ctx.add, ctx.mul
    return [add(x, mul(c, y)) for x, y in zip(acc, row)] if c else acc


def _span_below(ctx: FieldCtx, ech, r) -> int:
    """How many vectors of span(ech) (echelon rows, leading ones) come
    before r lexicographically, by one walk over the columns: at a pivot the
    span takes every value, r[j] of them below r's, each with q^(pivots
    left) completions; elsewhere its one value settles it."""
    q, pivots = ctx.q, dict(ech)
    acc, left, count = [0] * len(r), len(pivots), 0
    for j, x in enumerate(r):
        if j not in pivots:
            if acc[j] != x:
                return count + (q**left if acc[j] < x else 0)
            continue
        left -= 1
        count += x * q**left
        acc = _add_multiple(ctx, acc, ctx.sub(x, acc[j]), pivots[j])
    return count


def _nth_outside(ctx: FieldCtx, ech, n: int, d: int) -> tuple[int, ...]:
    """The vector outside span(ech) with d such vectors before it, digit by
    digit: the largest digit whose least completion has at most d before it."""
    q, out = ctx.q, []
    below = lambda v: functools.reduce(lambda a, x: a * q + x, v, 0) - _span_below(ctx, ech, v)
    for j in range(n):
        pad = [0] * (n - j - 1)
        out.append(bisect.bisect_right(range(q), d, key=lambda x: below(out + [x] + pad)) - 1)
    return tuple(out)


class _LinearRanks:
    """Lexicographic rank and unrank of GL_n(F_q), or of SL_n(F_q) when
    det_one (Kreher and Stinson, Combinatorial Algorithms, 1999, ch. 2).

    Row k runs over the vectors outside the span S of the rows before it,
    so it adds its index among them times the completions of the rows
    after it, whatever the rows are. For SL the last row runs over the
    coset of S where det is 1, ordered as its entries in S's pivot columns.
    A walk over a table ranks many matrices with the same first n - 1 rows,
    so their part of the rank and their echelon are kept per rows.
    """

    def __init__(self, ctx: FieldCtx, n: int, det_one: bool):
        q = ctx.q
        self.ctx, self.n, self.det_one, self._heads = ctx, n, det_one, {}
        radix = [q**n - q**k for k in range(n - det_one)] + [q ** (n - 1)] * det_one
        self.weights = [math.prod(radix[k + 1 :]) for k in range(n)]

    def rank(self, data: tuple[int, ...]) -> int:
        ctx, n, q, cut = self.ctx, self.n, self.ctx.q, (self.n - 1) * self.n
        value = lambda digits: functools.reduce(lambda a, x: a * q + x, digits, 0)
        head = self._heads.get(data[:cut])
        if head is None:
            ech, out = [], 0
            for k in range(n - 1):
                r = data[k * n : (k + 1) * n]
                out += (value(r) - _span_below(ctx, ech, r)) * self.weights[k]
                _ech_insert(ctx, ech, r)
            head = self._heads[data[:cut]] = out, sorted(ech)
        out, ech = head
        last = data[cut:]
        if self.det_one:
            return out + value(last[p] for p, _ in ech)
        return out + value(last) - _span_below(ctx, ech, last)

    def unrank(self, eid: int) -> tuple[int, ...]:
        ctx, n, q = self.ctx, self.n, self.ctx.q
        ech, rows = [], ()
        for k in range(n - self.det_one):
            d, eid = divmod(eid, self.weights[k])
            rows += _nth_outside(ctx, ech, n, d)
            if k + 1 < n:
                _ech_insert(ctx, ech, rows[-n:])
        if self.det_one:  # det is 1 on c*e_f + S, f the column without a pivot
            (f,) = set(range(n)).difference(p for p, _ in ech)
            e_f = tuple(int(j == f) for j in range(n))
            acc = [ctx.inv(Mat._trusted(ctx, n, rows + e_f).det()) * x for x in e_f]
            for i, (p, row) in enumerate(sorted(ech)):
                acc = _add_multiple(ctx, acc, ctx.sub(eid // q ** (n - 2 - i) % q, acc[p]), row)
            rows += tuple(acc)
        return rows


class _TriangularRanks:
    """Rank and unrank of a Borel, unitriangular or Heisenberg table: mixed
    radix over the free entries in row-major order, q above the diagonal
    and q - 1 for a unit on it (digit code - 1); the last diagonal entry
    of Borel-SL is fixed by the others."""

    def __init__(self, ctx: FieldCtx, n: int, kind: str):
        self.ctx, self.n, self.kind = ctx, n, kind
        units = {BOREL_GL: n, BOREL_SL: n - 1}.get(kind, 0)  # free diagonal entries
        self.free = [(i * n + j, ctx.q - (i == j), int(i == j))  # (position, radix, least code)
                     for i in range(n) for j in range(i, n) if j > i or i < units]

    def rank(self, data: tuple[int, ...]) -> int:
        return functools.reduce(lambda out, f: out * f[1] + data[f[0]] - f[2], self.free, 0)

    def unrank(self, eid: int) -> tuple[int, ...]:
        n, ctx = self.n, self.ctx
        data = [int(i % (n + 1) == 0) for i in range(n * n)]  # the identity
        for pos, radix, least in reversed(self.free):
            eid, digit = divmod(eid, radix)
            data[pos] = digit + least
        if self.kind == BOREL_SL:
            data[-1] = ctx.inv(functools.reduce(ctx.mul, data[: n * n - 1 : n + 1], 1))
        return tuple(data)


def instantiate(spec: FamilySpec, ctx: FieldCtx | None = None) -> GroupTable:
    """The group table of a family: ranked, so nothing is enumerated, but
    for the dihedral table, which lists its elements sorted by encoding.

    Raises BoundExceeded before any work when the closed-form order
    exceeds limits.max_group() (ZK_MAX_GROUP / --max-group). The dihedral
    family picks its own field (least q with m | q - 1) when ctx is
    omitted; every other family requires an explicit context.
    """
    if ctx is None:
        if spec.kind != DIHEDRAL:
            raise ValueError(f"family {spec.kind!r} needs a field context")
        ctx = dihedral_context(spec.n)
    _check_guard(spec, ctx)
    expected = family_order(spec, ctx)
    bound = limits.max_group()
    if expected > bound:
        raise BoundExceeded(
            f"{spec.label()}@{ctx.name} has order {expected}, above bound {bound} "
            "(ZK_MAX_GROUP / --max-group)"
        )
    if spec.kind == DIHEDRAL:  # the orbit of I under right multiplication by the generators
        gens = list(dihedral_generators(spec.n, ctx))
        members = next(key_orbits([Mat.identity(ctx, 2)], [lambda x, g=g: x * g for g in gens]))
        return GroupTable(spec, ctx, sorted(members, key=lambda m: m.data), gens)
    if spec.kind in (GL, SL):
        gens, fallback = _linear_generators(spec, ctx)
        ranks = _LinearRanks(ctx, spec.n, spec.kind == SL)
    else:
        gens, fallback = standard_generators(spec, ctx), None
        ranks = _TriangularRanks(ctx, spec.n, spec.kind)
    return GroupTable(spec, ctx, None, gens, fallback, ranks)


def _adjoin(group: list, gens: list, g, mul, within=None) -> list:
    """<K, g> for the group K = group generated by gens, as K followed by
    new right cosets K x (Dimino's algorithm). Points are hashable keys of
    any type and mul multiplies two of them.

    A union of right cosets of K is closed under right multiplication by
    every generator once each coset rep times each generator lands in it,
    so only reps are multiplied by generators, never all of K. A product
    outside within (a container of points) means the member set is not
    closed.
    """
    out = list(group)
    seen = set(out)
    if g in seen:
        return out
    gens = list(gens) + [g]
    reps = [out[0]]  # K's own rep, the identity
    for r in reps:  # the walk appends to reps as it goes
        for s in gens:
            x = mul(r, s)
            if x in seen:
                continue
            reps.append(x)
            for k in group:
                y = mul(k, x)
                if within is not None and y not in within:
                    raise ConsistencyError("member set is not closed")
                seen.add(y)
                out.append(y)
    return out


def closure_generate(ctx: FieldCtx, gens) -> GroupTable:
    """The group of invertible generators, discovery-ordered: the orbit of
    the identity under right multiplication by the generators sorted by
    encoding, walked breadth-first."""
    gens = sorted(gens, key=lambda m: m.data)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n
    for g in gens:
        if g.ctx is not ctx or g.n != n:
            raise ValueError("generators must share one context and size")
        if g.det() == 0:
            raise ValueError("generators must be invertible")
    moves = [lambda x, g=g: x * g for g in gens]
    cap = limits.max_group()
    table = GroupTable(None, ctx, next(key_orbits([Mat.identity(ctx, n)], moves, cap)), gens)
    table._gens_certified = True
    return table


# ---------------------------------------------------------------------------
# subgroups


class Subgroup:
    """A verified subgroup: sorted members, greedy generators, Lagrange check.

    parent may be a GroupTable or a VirtualGroup; ids are available only
    under a real table.
    """

    __slots__ = ("parent", "members", "member_set", "gens", "_pivot")

    def __init__(self, parent, members: list[Mat], gens: list[Mat]):
        self.parent = parent
        self.members = tuple(sorted(members, key=lambda m: m.data))
        self.member_set = frozenset(self.members)
        self.gens = tuple(gens)
        self._pivot = None  # id of the element this is the centralizer of, if built so
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

    def order_multiset(self) -> tuple[tuple[int, int], ...]:
        counts: dict[int, int] = {}
        for m in self.members:
            k = mat_order(m)
            counts[k] = counts.get(k, 0) + 1
        return tuple(sorted(counts.items()))

    def __repr__(self) -> str:
        return f"Subgroup(order {self.order} of {self.parent!r})"


def _greedy_generators(members: list, ident, mul) -> list:
    """Least generators of a closed member set of hashable points, with
    ident its identity and mul its product: each member, in the given
    order, that the generators so far do not reach joins them (ident alone
    for the trivial group)."""
    gens: list = []
    closure = [ident]
    reached = {ident}
    within = set(members)
    for m in members:
        if m in reached:
            continue
        closure = _adjoin(closure, gens, m, mul, within)
        gens.append(m)
        reached = set(closure)
        if len(closure) == len(members):
            break
    if len(closure) != len(members):
        raise ConsistencyError("member set is not closed")
    return gens or [ident]


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
    return Subgroup(parent, members, _greedy_generators(members, ident, operator.mul))


def whole_group(table: GroupTable) -> Subgroup:
    table._certify_generators()
    return Subgroup(table, list(table.elements), list(table.gens))


# ---------------------------------------------------------------------------
# orbits of hashable points


def key_orbits(seeds, moves, cap: int | None = None):
    """Orbits of hashable points under a list of moves, one for each seed
    no earlier orbit reached, in seed order.

    Each orbit is walked breadth-first and listed seed first. The moves
    generate the action of a finite group, so walking forward reaches the
    whole orbit and no two orbits meet; a walk that runs into an earlier
    orbit raises ConsistencyError. An orbit growing past cap points raises
    BoundExceeded: the cap is the group-order bound, since an orbit is no
    larger than the group acting.
    """
    owner: dict = {}  # point -> number of the orbit that reached it
    number = 0
    for seed in seeds:
        if seed in owner:
            continue
        owner[seed] = number
        orbit = [seed]
        for x in orbit:  # the walk appends to orbit as it goes
            for move in moves:
                y = move(x)
                k = owner.get(y)
                if k is None:
                    owner[y] = number
                    orbit.append(y)
                    if cap is not None and len(orbit) > cap:
                        raise BoundExceeded(
                            f"orbit exceeded bound {cap} (ZK_MAX_GROUP / --max-group)"
                        )
                elif k != number:
                    raise ConsistencyError("orbits of the moves overlap")
        number += 1
        yield orbit


# ---------------------------------------------------------------------------
# conjugation orbits


def _walk(table: GroupTable, seed: int) -> int:
    """Root id of seed's conjugation orbit, walking the orbit first when no
    earlier walk reached seed.

    The walk is breadth-first over x -> g x g^-1 for the table generators,
    with seed as root; each new member records its parent and generator.
    """
    from array import array  # an extension module: loaded by table work only

    root = table._orbit_root
    if root is None:
        root = table._orbit_root = array("i", [-1]) * table.order
        table._orbit_parent = array("i", [0]) * table.order
        table._orbit_gen = array("i", [0]) * table.order
    if root[seed] >= 0:
        return root[seed]
    parent, via = table._orbit_parent, table._orbit_gen
    mat_of, id_of = table.mat_of, table.id_of
    conj = list(enumerate(zip(table.gens, table._gens_inv)))
    root[seed] = parent[seed] = seed
    orbit = array("i", [seed])
    head = 0
    while head < len(orbit):
        x = orbit[head]
        head += 1
        mx = mat_of(x)
        for k, (g, gi) in conj:
            y = id_of(g * mx * gi)
            if root[y] < 0:
                root[y], parent[y], via[y] = seed, x, k
                orbit.append(y)
    table._orbits[seed] = orbit
    return seed


def _transversal(table: GroupTable, b: int) -> tuple[Mat, Mat]:
    """(t, t^-1) with t r t^-1 = b, r the root of b's (walked) orbit: the
    generators on b's Schreier-tree path, read from b up to r."""
    parent, via = table._orbit_parent, table._orbit_gen
    t = ti = table.mat_of(table.identity_id)
    while parent[b] != b:
        k = via[b]
        t, ti = t * table.gens[k], table._gens_inv[k] * ti
        b = parent[b]
    return t, ti


def _schreier_stabilizer(table: GroupTable, r: int) -> list[Mat]:
    """C(r) closed from the Schreier generators t_c^-1 g t_b of r's orbit
    (c = g b g^-1), which generate it (Schreier's lemma); the closure stops
    once it holds |G| / |cl(r)| elements."""
    mat_of, id_of = table.mat_of, table.id_of
    parent, via = table._orbit_parent, table._orbit_gen
    gens, gens_inv = table.gens, table._gens_inv
    orbit = table._orbits[r]
    g_r = mat_of(r)
    ident = mat_of(table.identity_id)
    t, ti = {r: ident}, {r: ident}
    for b in orbit[1:]:  # walk order: a parent comes before its children
        p, k = parent[b], via[b]
        t[b], ti[b] = gens[k] * t[p], ti[p] * gens_inv[k]
    want = table.order // len(orbit)
    found, seen, schreier = [ident], {ident}, []
    for b in orbit:
        if len(found) >= want:
            break
        mb = mat_of(b)
        for g, gi in zip(gens, gens_inv):
            s = ti[id_of(g * mb * gi)] * g * t[b]
            if s in seen:
                continue
            if s * g_r != g_r * s:
                raise ConsistencyError("Schreier generator does not centralize")
            found = _adjoin(found, schreier, s, operator.mul)
            schreier.append(s)
            seen = set(found)
    return [mat_of(id_of(m)) for m in found]  # the table's own objects


def _stabilizer(table: GroupTable, r: int) -> list[Mat]:
    """The members of C(r): for GL/SL the units of the commutant algebra of
    r (of determinant 1 for SL), each checked to lie in the table and to
    commute with r; for other families, or a commutant with more than
    SPAN_CAP elements, the Schreier closure."""
    g = table.mat_of(r)
    kind = table.family.kind if table.family else None
    if kind in (GL, SL):
        if g.is_scalar():
            return list(table.elements)
        alg = centralizer_algebra(g)
        if table.ctx.q**alg.dim <= limits.SPAN_CAP:
            members = []
            for x in alg.units(1 if kind == SL else None):
                i = table._find(x)
                if i is None or x * g != g * x:
                    raise ConsistencyError("commutant unit outside the centralizer")
                members.append(table.mat_of(i))
            return members
    return _schreier_stabilizer(table, r)


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
    """Conjugation orbits under the certified generators, each led by its
    least-encoding member; for |G| <= FULL_TABLE_LIMIT each is checked
    against its stabilizer, |cl(a)|·|C(a)| = |G|."""
    if table._classes is not None:
        return table._classes
    table._certify_generators()
    order_ids = table.ids()  # a ranked table's ids ascend with the encoding
    if table._ranks is None:
        order_ids = sorted(order_ids, key=lambda i: table.mat_of(i).data)
    classes = []
    done = set()
    small = table.order <= limits.FULL_TABLE_LIMIT
    for seed in order_ids:
        root = _walk(table, seed)
        if root in done:
            continue
        done.add(root)
        orbit = table._orbits[root]
        if table.order % len(orbit):
            raise ConsistencyError("class size fails orbit-stabilizer divisibility")
        if small and len(orbit) * len(_centralizer_parts(table, seed)[0]) != table.order:
            raise ConsistencyError("orbit-stabilizer product mismatch")
        classes.append(ConjClass(seed, tuple(sorted(orbit))))
    if sum(c.size for c in classes) != table.order:
        raise ConsistencyError("conjugacy classes do not partition the group")
    table._classes = tuple(classes)
    return table._classes


def centralizer(table: GroupTable, g_id: int) -> Subgroup:
    """{x : xg = gx}, cached per id.

    For the root r of g's orbit this is the stabilizer of r, certified by
    |C(r)|·|cl(r)| = |G|; for g = t r t^-1 it is t C(r) t^-1, built from
    the table's own elements.
    """
    sub = Subgroup.__new__(Subgroup)
    sub.parent = table
    sub.members, sub.member_set, sub.gens = _centralizer_parts(table, g_id)
    sub._pivot = g_id
    return sub


def _centralizer_parts(table: GroupTable, g_id: int) -> tuple:
    """(members, member set, generators) of C(g), from the table's cache.
    The cache keeps these parts rather than subgroups, so it holds no
    reference back to the table. Once this returns, g's orbit is certified
    to be all of cl(g)."""
    parts = table._centralizers.get(g_id)
    if parts is not None:
        return parts
    root = _walk(table, g_id)
    if root != g_id:
        r_members, _, r_gens = _centralizer_parts(table, root)
        t, ti = _transversal(table, g_id)
        mat_of, id_of = table.mat_of, table.id_of
        members = sorted((mat_of(id_of(t * m * ti)) for m in r_members), key=lambda m: m.data)
        gens = tuple(mat_of(id_of(t * m * ti)) for m in r_gens)
        parts = tuple(members), frozenset(members), gens
    else:
        members = _stabilizer(table, g_id)
        if len(members) * len(table._orbits[g_id]) != table.order:
            if table._certify_generators():  # the orbit was walked by a non-generating set
                return _centralizer_parts(table, g_id)
            raise ConsistencyError("orbit-stabilizer product mismatch")
        if len(members) == table.order:
            sub = whole_group(table)
        else:
            sub = subgroup_from_members(table, members)
        parts = sub.members, sub.member_set, sub.gens
    table._centralizers[g_id] = parts
    return parts


def center(table: GroupTable) -> Subgroup:
    """Z(G): the closed form of a ranked family (_center_members), else
    the elements that commute with every certified generator."""
    if table._ranks:
        members = _center_members(table.family, table.ctx)
    else:
        table._certify_generators()
        members = [m for m in table.elements if all(m * g == g * m for g in table.gens)]
    if len(members) == table.order:
        return whole_group(table)
    return subgroup_from_members(table, members)


def _center_members(spec: FamilySpec, ctx: FieldCtx) -> list[Mat]:
    """Z(G) of a ranked family: its scalars cI (c^n = 1 for SL and Borel-SL,
    c = 1 if unitriangular), times I + a*E_1n for a in F_q where the diagonal
    fixes E_1n: unitriangular groups, Borel groups over F_2, Borel-SL_2(F_3)."""
    n, q, kind = spec.n, ctx.q, spec.kind
    unitriangular = kind in (UNIPOTENT, HEISENBERG)
    corner = (unitriangular or kind in (BOREL_GL, BOREL_SL) and q == 2
              or (kind, n, q) == (BOREL_SL, 2, 3))
    scalars = [1] if unitriangular else [
        c for c in ctx.units() if kind in (GL, BOREL_GL) or ctx.pow(c, n) == 1]
    return [Mat.scalar(ctx, n, c) * _transvection(ctx, n, 0, n - 1, a)
            for c in scalars for a in (range(q) if corner else [0])]


# ---------------------------------------------------------------------------
# conjugators


def _transporter(table: GroupTable, a: int, b: int) -> list[Mat]:
    """{x : x a x^-1 = b}: the coset t_b t_a^-1 C(a), empty when b is not
    conjugate to a."""
    za = _centralizer_parts(table, a)[0]
    if table._orbit_root[b] != table._orbit_root[a]:
        return []
    _, tai = _transversal(table, a)
    tb, _ = _transversal(table, b)
    s = tb * tai
    return [s * c for c in za]


def element_conjugator(table: GroupTable, a: int, b: int) -> int | None:
    """Least-encoding x with x a x^-1 = b (ids a, b), as an id, or None."""
    xs = _transporter(table, a, b)
    return table.id_of(min(xs, key=lambda x: x.data)) if xs else None


def _pivot(table: GroupTable, H1: Subgroup, H2: Subgroup) -> int:
    """An element a of H1 with few candidates |cl(a) ∩ H2|·|C(a)|: the
    element a centralizer was built for, else the best generator of H1."""
    if H1._pivot is not None:
        return H1._pivot
    h2_ids = [table.id_of(m) for m in H2.members]
    best = None
    for m in H1.gens:
        a = table.id_of(m)
        root = _walk(table, a)
        hits = sum(table._orbit_root[b] == root for b in h2_ids)
        cost = hits * (table.order // len(table._orbits[root]))
        if best is None or cost < best[0]:
            best = (cost, a)
    return best[1]


def _conjugators(table: GroupTable, H1: Subgroup, H2: Subgroup):
    """Every x with x H1 x^-1 = H2, as ids, ascending by encoding.

    Such an x sends the pivot a in H1 to some b in cl(a) ∩ H2, so x lies
    in t_b t_a^-1 C(a); only those cosets are tried (Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, 2005, ch. 4). When
    H1 is C(a) itself, x H1 x^-1 = C(b) for the whole coset, which is H2
    exactly when b is central in H2 (the orders being equal); otherwise
    each candidate takes the generator image test.
    """
    a = _pivot(table, H1, H2)
    _centralizer_parts(table, a)  # certifies a's orbit as all of cl(a)
    root = table._orbit_root[a]
    bs = [m for m in H2.members if table._orbit_root[table.id_of(m)] == root]
    whole_cosets = H1._pivot == a
    if whole_cosets:
        bs = [b for b in bs if all(b * g == g * b for g in H2.gens)]
    candidates = [x for b in bs for x in _transporter(table, a, table.id_of(b))]
    candidates.sort(key=lambda x: x.data)
    for x in candidates:
        if not whole_cosets:
            xi = x.inverse()
            if not all((x * g * xi) in H2.member_set for g in H1.gens):
                continue
        yield table.id_of(x)


def normalizer(table: GroupTable, H: Subgroup) -> Subgroup:
    """{x : x H x^-1 = H}: every hit of the conjugator walk from H to H."""
    if H.order == table.order:
        return whole_group(table)
    members = [table.mat_of(i) for i in _conjugators(table, H, H)]
    if len(members) == table.order:
        return whole_group(table)
    return subgroup_from_members(table, members)


def subgroups_conjugate(table: GroupTable, H1: Subgroup, H2: Subgroup) -> int | None:
    """Id of the least-encoding x with x H1 x^-1 = H2, or None: the first
    hit of the conjugator walk. Equal member sets short-cut to the
    identity's id, which need not be the least element of N(H1)."""
    if H1.order != H2.order:
        return None
    if H1.member_set == H2.member_set:
        return table.identity_id
    return next(_conjugators(table, H1, H2), None)


# ---------------------------------------------------------------------------
# quotients


class QuotientGroup:
    """Coset group N/D with an explicit multiplication table."""

    __slots__ = ("numerator", "denominator", "reps", "table", "_coset_of", "_inverse")

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
        self._inverse = tuple(coset_of[r.inverse().data] for r in reps)

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
        return self._inverse[i]

    def conjugacy_class_count(self) -> int:
        """Orbits of the cosets under conjugation by the cosets of the
        numerator's generators, which generate the quotient."""
        t, inv = self.table, self._inverse
        moves = [
            lambda x, g=self.coset_index(g): t[t[g][x]][inv[g]] for g in self.numerator.gens
        ]
        return sum(1 for _ in key_orbits(range(self.order), moves))


def quotient(numerator: Subgroup, denominator: Subgroup) -> QuotientGroup:
    q = QuotientGroup(numerator, denominator)
    if q.order * denominator.order != numerator.order:
        raise ConsistencyError("coset count disagrees with the index")
    return q

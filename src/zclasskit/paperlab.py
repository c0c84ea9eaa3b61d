"""Named replication experiments over the other engines.

Each catalog entry pins a predicted value (or marks the point report-only)
and a runner that recomputes the quantity by brute force. Predictions are
data, not code branches: adding a parameter point never touches a runner.
Experiments are independent and deterministic; only the runtime field of a
record varies between runs. A failing record carries a witness string with
the matrices behind the mismatch.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from math import gcd
from typing import Callable

from .ff import FieldCtx, make_field, parse_field, poly_is_squarefree
from .grpcore import (
    GL,
    SL,
    BOREL_GL,
    BOREL_SL,
    DIHEDRAL,
    UNIPOTENT,
    FamilySpec,
    centralizer,
    conjugacy_classes,
    family_order,
    instantiate,
    normalizer,
    parse_element_spec,
    parse_group_spec,
    quotient,
    subgroup_from_members,
)
from .galh1 import h1_mu_n, twisted_classes, twisted_from_matrices
from .matfq import (
    Mat,
    heisenberg_element,
    mat_embed,
    mat_literal,
    regular_unipotent,
    sl_conjugate,
)
from .zclass import (
    _member,
    _refine,
    _seed_partition,
    base_change_probe,
    regular_semisimple_filter,
    regular_unipotent_filter,
    fusion_count,
    geometric_stabilize,
    growth_degree,
    z_partition,
)

PASS = "pass"
FAIL = "fail"
REPORT_ONLY = "report-only"

PINNED = "pinned"
ORACLE = "oracle"


# ---------------------------------------------------------------------------
# records


def _plain(value):
    """JSON-friendly copy: tuples become lists, dict values recurse."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@dataclass(frozen=True)
class Experiment:
    """One finished run: parameters, prediction, computed value, verdict."""

    id: str
    params: dict
    predicted: object
    prediction_source: str
    computed: object
    verdict: str
    runtime: float
    witness: str = ""
    notes: dict = field(default_factory=dict)

    def summary(self) -> dict:
        return {
            "id": self.id,
            "params": _plain(self.params),
            "predicted": _plain(self.predicted),
            "prediction_source": self.prediction_source,
            "computed": _plain(self.computed),
            "verdict": self.verdict,
            "runtime": round(self.runtime, 6),
            "witness": self.witness,
            "notes": _plain(self.notes),
        }


@dataclass(frozen=True)
class CatalogEntry:
    """Experiment template: defaults, prediction rule, and runner."""

    id: str
    title: str
    defaults: dict
    predict: Callable[[dict], tuple[object, str] | None]
    run: Callable[..., tuple[object, dict]]


def _witness(predicted, computed, notes: dict) -> str:
    if isinstance(predicted, dict) and isinstance(computed, dict):
        bad = sorted(
            k
            for k in set(predicted) | set(computed)
            if predicted.get(k) != computed.get(k)
        )
        head = "; ".join(
            f"{k}: predicted {predicted.get(k)!r}, computed {computed.get(k)!r}"
            for k in bad
        )
    else:
        head = f"predicted {predicted!r}, computed {computed!r}"
    tail = "; ".join(f"{k}={notes[k]!r}" for k in sorted(notes))
    return f"{head} [{tail}]" if tail else head


def _checked(exp_id: str, key: str, default, value):
    """An override of the type of the parameter's default: an int for an
    int or None (a bool is no int), a tuple of ints for a tuple (a single
    int is a one-element tuple), else the default's own type."""
    def is_int(v) -> bool:
        return isinstance(v, int) and not isinstance(v, bool)

    if isinstance(default, tuple):
        value = (value,) if is_int(value) else value
        ok = isinstance(value, tuple) and all(map(is_int, value))
    elif default is None or is_int(default):
        ok = is_int(value) or value is default
    else:
        ok = type(value) is type(default)
    if not ok:
        raise ValueError(f"experiment {exp_id!r}: parameter {key!r} cannot take {value!r}")
    return value


def run_experiment(exp_id: str, params: dict | None = None) -> Experiment:
    """Run one catalog experiment with defaults overridden by params."""
    entry = CATALOG.get(exp_id)
    if entry is None:
        known = ", ".join(sorted(CATALOG))
        raise ValueError(f"unknown experiment {exp_id!r}: choose from {known}")
    merged = dict(entry.defaults)
    for key, value in (params or {}).items():
        if key not in merged:
            raise ValueError(f"experiment {exp_id!r} takes no parameter {key!r}")
        merged[key] = _checked(exp_id, key, merged[key], value)
    start = time.perf_counter()
    computed, notes = entry.run(**merged)
    runtime = time.perf_counter() - start
    prediction = entry.predict(merged)
    if prediction is None:
        return Experiment(
            exp_id, merged, None, "", computed, REPORT_ONLY, runtime, "", notes
        )
    predicted, source = prediction
    if computed == predicted:
        return Experiment(
            exp_id, merged, predicted, source, computed, PASS, runtime, "", notes
        )
    return Experiment(
        exp_id,
        merged,
        predicted,
        source,
        computed,
        FAIL,
        runtime,
        _witness(predicted, computed, notes),
        notes,
    )


# ---------------------------------------------------------------------------
# shared helpers


def _is_diagonal(m: Mat) -> bool:
    return all(
        m.data[i * m.n + j] == 0 for i in range(m.n) for j in range(m.n) if i != j
    )


def _monomial_members(ctx: FieldCtx, n: int) -> list[Mat]:
    units = list(ctx.units())
    out = []
    for perm in itertools.permutations(range(n)):
        for diag in itertools.product(units, repeat=n):
            data = [0] * (n * n)
            for i in range(n):
                data[i * n + perm[i]] = diag[i]
            out.append(Mat(ctx, n, data))
    return out


def _diagonal_members(ctx: FieldCtx, n: int) -> list[Mat]:
    return [Mat.diagonal(ctx, d) for d in itertools.product(ctx.units(), repeat=n)]


# ---------------------------------------------------------------------------
# runners


def _run_gl2_zclasses(q: int, max_r: int | None) -> tuple[object, dict]:
    ctx = parse_field(str(q))
    spec = FamilySpec(GL, 2)
    table = instantiate(spec, ctx)
    base = z_partition(table)
    seeds = [table.mat_of(c.rep_id) for c in conjugacy_classes(table)]
    if max_r is None:
        max_r = 4 if q == 3 else 2
    stab = geometric_stabilize(spec, ctx, seeds, max_r)
    notes = {
        "base_zclass_count": base.zclass_count,
        "block_counts": list(stab.block_counts),
        "stable_at": stab.stable_at,
        "seeds": [mat_literal(s) for s in seeds],
    }
    return len(stab.final_partition), notes


def _run_sl2_unipotent(q: int) -> tuple[object, dict]:
    ctx = parse_field(str(q))
    if ctx.p == 2:
        raise ValueError("needs odd q: the two unipotent orbits merge at p = 2")
    table = instantiate(FamilySpec(SL, 2), ctx)
    part = z_partition(table, regular_unipotent_filter(ctx, 2))
    rational = sum(b.class_count for b in part.blocks)
    notes = {
        "reps": [mat_literal(table.mat_of(b.rep_id)) for b in part.blocks],
        "centralizer_orders": [b.centralizer.order for b in part.blocks],
    }
    return (rational, part.zclass_count), notes


def _run_sl3_unipotent(q: int, allow_bad_characteristic: bool) -> tuple[object, dict]:
    ctx = parse_field(str(q))
    spec = FamilySpec(SL, 3, allow_bad_characteristic=allow_bad_characteristic)
    if family_order(spec, ctx) <= 10_000:
        table = instantiate(spec, ctx)
        part = z_partition(table, regular_unipotent_filter(ctx, 3))
        rational = sum(b.class_count for b in part.blocks)
        notes = {
            "route": "table",
            "reps": [mat_literal(table.mat_of(b.rep_id)) for b in part.blocks],
        }
        return (rational, part.zclass_count), notes
    mats = [regular_unipotent(3, b, ctx) for b in ctx.units()]
    rational_blocks = _refine(mats, sl_conjugate)
    z_blocks = _seed_partition(spec, ctx, mats)
    notes = {
        "route": "structural",
        "reps": [mat_literal(mats[b[0]]) for b in rational_blocks],
    }
    return (len(rational_blocks), len(z_blocks)), notes


def _run_sln_unipotent_forms(n: int, q: int) -> tuple[object, dict]:
    ctx = parse_field(str(q))
    mats = [regular_unipotent(n, b, ctx) for b in ctx.units()]
    blocks = _refine(mats, sl_conjugate)
    notes = {
        "candidates": len(mats),
        "reps": [mat_literal(mats[b[0]]) for b in blocks],
    }
    return len(blocks), notes


def _run_tori_gln(n: int, q: int) -> tuple[object, dict]:
    ctx = parse_field(str(q))
    if q <= n:
        raise ValueError("needs q > n: the split torus of GL_n(F_q) has no regular semisimple element")
    if n == 2:
        table = instantiate(FamilySpec(GL, 2), ctx)
        part = z_partition(table, regular_semisimple_filter(ctx))
        computed = part.zclass_count
        reps = [mat_literal(table.mat_of(b.rep_id)) for b in part.blocks]
    elif n == 3:
        polys = [
            (c0, c1, c2, 1)
            for c0 in ctx.units()
            for c1 in range(ctx.q)
            for c2 in range(ctx.q)
            if poly_is_squarefree(ctx, (c0, c1, c2, 1))
        ]
        mats = [Mat.companion(ctx, f) for f in polys]
        blocks = _seed_partition(FamilySpec(GL, 3), ctx, mats)
        computed = len(blocks)
        reps = [mat_literal(mats[b[0]]) for b in blocks]
    else:
        raise ValueError("regular semisimple census covers n in {2, 3}")
    notes = {"reps": reps}
    return computed, notes


def _weyl_class_count(n: int, q: int) -> int:
    """Conjugacy classes of the split-torus normalizer quotient in GL_n."""
    ctx = parse_field(str(q))
    parent = instantiate(FamilySpec(GL, n), ctx)
    diag = subgroup_from_members(parent, _diagonal_members(ctx, n))
    mono = subgroup_from_members(parent, _monomial_members(ctx, n))
    return quotient(mono, diag).conjugacy_class_count()


def _run_borel_counterexample(which: str) -> tuple[object, dict]:
    if which == "gl2":
        ctx = parse_field("2")
        spec = FamilySpec(BOREL_GL, 2)
    elif which == "sl2":
        ctx = parse_field("3")
        spec = FamilySpec(BOREL_SL, 2)
    else:
        raise ValueError("which must be 'gl2' or 'sl2'")
    u = regular_unipotent(2, 1, ctx)
    probe = base_change_probe(
        spec, ctx, 2, [(Mat.identity(ctx, 2), u)]
    )
    row = probe.rows[0]
    theta_fails = bool(row.base_equivalent and not row.ext_equivalent)
    computed: dict = {"theta_fails": theta_fails}
    notes = {
        "pair": [mat_literal(Mat.identity(ctx, 2)), mat_literal(u)],
        "base_equivalent": row.base_equivalent,
        "ext_equivalent": row.ext_equivalent,
    }
    if which == "gl2":
        growth = growth_degree(spec, ctx, u, (1, 2, 3, 4))
        computed["growth_degree"] = growth.degree
        notes["centralizer_orders"] = list(growth.orders)
    return computed, notes


def _run_heisenberg(q: int) -> tuple[object, dict]:
    ctx = parse_field(str(q))
    mats = [heisenberg_element(t, ctx) for t in ctx.units()]
    blocks = _seed_partition(FamilySpec(UNIPOTENT, 3), ctx, mats)
    notes = {
        "candidates": len(mats),
        "reps": [mat_literal(mats[b[0]]) for b in blocks],
    }
    return len(blocks), notes


def _run_curious(n: int, q: int, allow_bad_characteristic: bool) -> tuple[object, dict]:
    if q != 2:
        raise ValueError("needs q = 2: larger fields give a nontrivial torus")
    ctx = parse_field("2")
    spec = FamilySpec(SL, n, allow_bad_characteristic=allow_bad_characteristic)
    table = instantiate(spec, ctx)
    torus = {m for m in table.elements if _is_diagonal(m)}
    hits = sum(
        1
        for i in table.ids()
        if centralizer(table, i).member_set == torus
    )
    notes = {"torus_order": len(torus), "group_order": table.order}
    return hits, notes


def _run_dihedral(m: int) -> tuple[object, dict]:
    table = instantiate(FamilySpec(DIHEDRAL, m))
    part = z_partition(table)
    notes = {
        "group_order": table.order,
        "centralizer_orders": [b.centralizer.order for b in part.blocks],
    }
    return part.zclass_count, notes


def _run_normalizer_structure(n: int, q: int) -> tuple[object, dict]:
    if n != 3:
        raise ValueError("the closed form is pinned for n = 3 only")
    ctx = parse_field(str(q))
    spec = FamilySpec(SL, 3, allow_bad_characteristic=(ctx.p == 3))
    table = instantiate(spec, ctx)
    u = regular_unipotent(3, 1, ctx)
    zu = centralizer(table, table.id_of(u))
    nz = normalizer(table, zu)
    diag = [m for m in nz.members if _is_diagonal(m)]
    notes = {
        "centralizer_order": zu.order,
        "diagonal_reps": [mat_literal(m) for m in diag[:4]],
    }
    return (nz.order, len(diag)), notes


def _run_fiber_bound(family: str, seed: str) -> tuple[object, dict]:
    spec, ctx = parse_group_spec(family)
    if ctx is None:
        raise ValueError("fiber bound needs a matrix family over a named field")
    base_table = instantiate(spec, ctx)
    g = _member(base_table, parse_element_spec(spec, ctx, seed))
    ext = make_field(ctx.p, ctx.m * 2)
    ext_table = instantiate(spec, ext)
    zg_ext = centralizer(ext_table, ext_table.id_of(mat_embed(g, ext)))
    nz = normalizer(ext_table, zg_ext)
    carrier = twisted_from_matrices(
        list(nz.members), ctx, 2, label=f"N(Z)({ext.name})"
    )
    cls = twisted_classes(carrier)
    forms = fusion_count(spec, ctx, 2, g, table=base_table)
    cocycle_count = len(cls.cocycle_class_reps())
    notes = {
        "fiber": forms.zclass_count,
        "fused_classes": forms.class_count,
        "cocycle_classes": cocycle_count,
        "twisted_classes": cls.size,
        "normalizer_order": nz.order,
    }
    return bool(forms.zclass_count <= cocycle_count <= cls.size), notes


def _run_h1_triple(max_n: int, qs: tuple[int, ...]) -> tuple[object, dict]:
    computed = {
        f"{n}@{q}": h1_mu_n(q, n).size
        for n in range(1, max_n + 1)
        for q in qs
    }
    if not computed:
        raise ValueError(f"the grid max_n={max_n}, qs={qs} has no point")
    notes = {"points": len(computed)}
    return computed, notes


# ---------------------------------------------------------------------------
# the catalog


def _h1_grid_prediction(params: dict) -> tuple[object, str]:
    grid = {
        f"{n}@{q}": gcd(n, q - 1)
        for n in range(1, params["max_n"] + 1)
        for q in params["qs"]
    }
    return grid, PINNED


CATALOG: dict[str, CatalogEntry] = {
    e.id: e
    for e in (
        CatalogEntry(
            "gl2-zclasses",
            "geometric z-class count of GL_2 stabilizes at three blocks",
            {"q": 3, "max_r": None},
            lambda p: (3, PINNED),
            _run_gl2_zclasses,
        ),
        CatalogEntry(
            "sl2-unipotent",
            "regular unipotents of SL_2: two rational classes, one z-class",
            {"q": 5},
            lambda p: ((2, 1), PINNED),
            _run_sl2_unipotent,
        ),
        CatalogEntry(
            "sl3-unipotent",
            "regular unipotents of SL_3: both counts equal gcd(3, q-1)",
            {"q": 4, "allow_bad_characteristic": False},
            lambda p: ((gcd(3, p["q"] - 1), gcd(3, p["q"] - 1)), PINNED),
            _run_sl3_unipotent,
        ),
        CatalogEntry(
            "sln-unipotent-forms",
            "rational classes of the leading-entry unipotent family",
            {"n": 4, "q": 5},
            lambda p: (gcd(p["n"], p["q"] - 1), PINNED),
            _run_sln_unipotent_forms,
        ),
        CatalogEntry(
            "tori-gln",
            "regular semisimple z-classes match split-Weyl class counts",
            {"n": 2, "q": 5},
            lambda p: (_weyl_class_count(p["n"], p["q"]), ORACLE),
            _run_tori_gln,
        ),
        CatalogEntry(
            "borel-counterexample",
            "z-equivalence in a Borel breaks under quadratic extension",
            {"which": "gl2"},
            lambda p: (
                {"theta_fails": True, "growth_degree": 2}
                if p["which"] == "gl2"
                else {"theta_fails": True},
                PINNED,
            ),
            _run_borel_counterexample,
        ),
        CatalogEntry(
            "heisenberg",
            "upper-corner parameters stay pairwise z-inequivalent",
            {"q": 5},
            lambda p: (p["q"] - 1, PINNED),
            _run_heisenberg,
        ),
        CatalogEntry(
            "curious",
            "the trivial diagonal torus of SL_n(F_2) is no centralizer",
            {"n": 3, "q": 2, "allow_bad_characteristic": False},
            lambda p: (0, PINNED),
            _run_curious,
        ),
        CatalogEntry(
            "dihedral",
            "odd dihedral groups have three z-classes",
            {"m": 5},
            lambda p: (3, PINNED) if p["m"] % 2 else None,
            _run_dihedral,
        ),
        CatalogEntry(
            "normalizer-structure",
            "unipotent-centralizer normalizer order and diagonal part",
            {"n": 3, "q": 4},
            lambda p: (
                (
                    (p["q"] - 1) * gcd(3, p["q"] - 1) * p["q"] ** 3,
                    (p["q"] - 1) * gcd(3, p["q"] - 1),
                ),
                PINNED,
            ),
            _run_normalizer_structure,
        ),
        CatalogEntry(
            "fiber-bound",
            "fused base classes stay within the twisted-class bound",
            {"family": "sl:2@3", "seed": "u_beta:1"},
            lambda p: (True, PINNED),
            _run_fiber_bound,
        ),
        CatalogEntry(
            "h1-triple",
            "twisted classes, power classes, and gcd agree on a grid",
            {"max_n": 12, "qs": (2, 3, 4, 5, 7, 8, 9)},
            _h1_grid_prediction,
            _run_h1_triple,
        ),
    )
}


# ---------------------------------------------------------------------------
# suites


SUITES: dict[str, tuple[tuple[str, dict], ...]] = {
    "smoke": (
        ("gl2-zclasses", {"q": 2}),
        ("sl2-unipotent", {"q": 3}),
        ("borel-counterexample", {}),
        ("curious", {}),
    ),
    "paper": tuple((exp_id, {}) for exp_id in CATALOG),
    "full": (
        ("gl2-zclasses", {"q": 2}),
        ("gl2-zclasses", {"q": 3}),
        ("gl2-zclasses", {"q": 5}),
        ("sl2-unipotent", {"q": 3}),
        ("sl2-unipotent", {"q": 5}),
        ("sl2-unipotent", {"q": 7}),
        ("sl2-unipotent", {"q": 9}),
        ("sl3-unipotent", {"q": 2}),
        ("sl3-unipotent", {"q": 3, "allow_bad_characteristic": True}),
        ("sl3-unipotent", {"q": 4}),
        ("sln-unipotent-forms", {"n": 2, "q": 3}),
        ("sln-unipotent-forms", {"n": 2, "q": 5}),
        ("sln-unipotent-forms", {"n": 3, "q": 4}),
        ("sln-unipotent-forms", {"n": 3, "q": 5}),
        ("sln-unipotent-forms", {"n": 4, "q": 5}),
        ("sln-unipotent-forms", {"n": 4, "q": 9}),
        ("tori-gln", {"n": 2, "q": 3}),
        ("tori-gln", {"n": 2, "q": 4}),
        ("tori-gln", {"n": 2, "q": 5}),
        ("tori-gln", {"n": 3, "q": 5}),
        ("borel-counterexample", {"which": "gl2"}),
        ("borel-counterexample", {"which": "sl2"}),
        ("heisenberg", {"q": 3}),
        ("heisenberg", {"q": 5}),
        ("heisenberg", {"q": 7}),
        ("curious", {"n": 2, "allow_bad_characteristic": True}),
        ("curious", {"n": 3}),
        ("dihedral", {"m": 3}),
        ("dihedral", {"m": 4}),
        ("dihedral", {"m": 5}),
        ("dihedral", {"m": 6}),
        ("dihedral", {"m": 7}),
        ("normalizer-structure", {"q": 2}),
        ("normalizer-structure", {"q": 4}),
        ("fiber-bound", {"family": "sl:2@3", "seed": "u_beta:1"}),
        ("fiber-bound", {"family": "gl:2@3", "seed": "[0,2;1,0]"}),
        ("h1-triple", {}),
    ),
}


@dataclass(frozen=True)
class SuiteReport:
    """Suite outcome: every record plus pass/fail/report-only tallies."""

    name: str
    experiments: tuple[Experiment, ...]

    @property
    def passed(self) -> int:
        return sum(1 for e in self.experiments if e.verdict == PASS)

    @property
    def failed(self) -> int:
        return sum(1 for e in self.experiments if e.verdict == FAIL)

    @property
    def report_only(self) -> int:
        return sum(1 for e in self.experiments if e.verdict == REPORT_ONLY)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def summary(self) -> dict:
        return {
            "suite": self.name,
            "passed": self.passed,
            "failed": self.failed,
            "report_only": self.report_only,
            "ok": self.ok,
            "experiments": [e.summary() for e in self.experiments],
        }


def verify_suite(name: str) -> SuiteReport:
    """Run a named suite of catalog experiments."""
    plan = SUITES.get(name)
    if plan is None:
        known = ", ".join(sorted(SUITES))
        raise ValueError(f"unknown suite {name!r}: choose from {known}")
    return SuiteReport(name, tuple(run_experiment(i, p) for i, p in plan))

"""Batch command-line front end.

Exit codes: 0 success (or all experiments passing), 1 experiment failure,
2 usage error, 3 resource bound exceeded. Data goes to stdout and is
byte-identical across identical invocations; the runtime footer goes to
stderr and is suppressed by --no-footer.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import limits, report
from .errors import BadCharacteristic, BoundExceeded, ConsistencyError
from .ff import make_field
from .galh1 import h1_mu_n, twisted_classes, twisted_from_matrices
from .grpcore import (
    GL,
    SL,
    FamilySpec,
    centralizer,
    element_conjugator,
    instantiate,
    parse_element_spec,
    parse_group_spec,
    whole_group,
)
from .matfq import gl_conjugate_test, mat_literal, sl_conjugate_test
from .paperlab import FAIL, run_experiment, verify_suite
from .zclass import (
    base_change_probe,
    regular_semisimple_filter,
    regular_unipotent_filter,
    unipotent_filter,
    z_partition,
)

MEMBER_LIST_CAP = 100

FILTERS = {
    "unipotent": lambda ctx, n: unipotent_filter(),
    "regular-unipotent": regular_unipotent_filter,
    "regular-semisimple": lambda ctx, n: regular_semisimple_filter(ctx),
}


def _group(args, text: str) -> tuple[FamilySpec, object]:
    spec, ctx = parse_group_spec(text)
    if args.allow_bad_characteristic:
        spec = FamilySpec(spec.kind, spec.n, allow_bad_characteristic=True)
    return spec, ctx


def _strip_runtime(obj):
    if isinstance(obj, dict):
        return {k: _strip_runtime(v) for k, v in obj.items() if k != "runtime"}
    if isinstance(obj, list):
        return [_strip_runtime(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload, rows, exit_code)


def _cmd_zclasses(args):
    spec, ctx = _group(args, args.group)
    table = instantiate(spec, ctx)
    pred = None
    if args.filter is not None:
        factory = FILTERS.get(args.filter)
        if factory is None:
            known = ", ".join(sorted(FILTERS))
            raise ValueError(f"unknown filter {args.filter!r}: choose from {known}")
        pred = factory(table.ctx, spec.matrix_dim)
    part = z_partition(table, pred)
    head, *data = part.csv_rows()
    rows = [dict(zip(head, r)) for r in data]
    return part.summary(), rows, 0


def _cmd_centralizer(args):
    spec, ctx = _group(args, args.group)
    table = instantiate(spec, ctx)
    g = parse_element_spec(spec, table.ctx, args.element)
    try:
        gid = table.id_of(g)
    except KeyError:
        raise ValueError(
            f"element {args.element!r} is not a member of {args.group}"
        ) from None
    z = centralizer(table, gid)
    payload = {
        "group": table.label,
        "element": mat_literal(g),
        "order": z.order,
        "abelian": z.is_abelian(),
        "member_count": z.order,
    }
    if z.order <= MEMBER_LIST_CAP:
        payload["members"] = [mat_literal(m) for m in z.members]
    rows = [
        {
            "group": payload["group"],
            "element": payload["element"],
            "order": z.order,
            "abelian": z.is_abelian(),
        }
    ]
    return payload, rows, 0


def _cmd_conjtest(args):
    spec, ctx = _group(args, args.group)
    if spec.kind in (GL, SL):
        a = parse_element_spec(spec, ctx, args.first)
        b = parse_element_spec(spec, ctx, args.second)
        for lit, m in ((args.first, a), (args.second, b)):
            if m.det() == 0:
                raise ValueError(f"element {lit!r} is singular")
            if spec.kind == SL and m.det() != 1:
                raise ValueError(f"element {lit!r} has determinant != 1")
        use_sl = args.sl or spec.kind == SL
        witness = sl_conjugate_test(a, b) if use_sl else gl_conjugate_test(a, b)
        route = "sl-witness" if use_sl else "gl-witness"
        label = f"{spec.label()}@{ctx.name}"
    else:
        if args.sl:
            raise ValueError("--sl applies to gl and sl families only")
        table = instantiate(spec, ctx)
        a = parse_element_spec(spec, table.ctx, args.first)
        b = parse_element_spec(spec, table.ctx, args.second)
        for lit, m in ((args.first, a), (args.second, b)):
            if not table.contains(m):
                raise ValueError(f"element {lit!r} is not a member of {args.group}")
        wid = element_conjugator(table, table.id_of(a), table.id_of(b))
        witness = None if wid is None else table.mat_of(wid)
        route = "table-scan"
        label = table.label
    payload = {
        "group": label,
        "first": mat_literal(a),
        "second": mat_literal(b),
        "conjugate": witness is not None,
        "witness": None if witness is None else mat_literal(witness),
        "route": route,
    }
    rows = [
        {k: payload[k] for k in ("first", "second", "conjugate", "witness", "route")}
    ]
    return payload, rows, 0


def _cmd_probe(args):
    spec, ctx = _group(args, f"{args.family}@{args.q}")
    if len(args.elements) % 2:
        raise ValueError("probe needs an even number of elements (pairs)")
    mats = [parse_element_spec(spec, ctx, t) for t in args.elements]
    pairs = list(zip(mats[::2], mats[1::2]))
    rep = base_change_probe(spec, ctx, args.r, pairs)
    payload = rep.summary()
    rows = []
    for row, (a, b) in zip(rep.rows, pairs):
        rows.append(
            {
                "index": row.index,
                "first": mat_literal(a),
                "second": mat_literal(b),
                "equivalent_base": row.base_equivalent,
                "equivalent_ext": row.ext_equivalent,
                "changed": row.changed,
            }
        )
    return payload, rows, 0


def _cmd_h1(args):
    if args.mu is not None:
        if args.q is None:
            raise ValueError("--mu needs --q")
        res = h1_mu_n(args.q, args.mu, r_realizing=args.degree)
        payload = res.summary()
    else:
        if args.group is None or args.frobenius is None:
            raise ValueError("pass either --mu N --q Q or --group SPEC --frobenius R")
        spec, ctx = _group(args, args.group)
        if ctx is None:
            raise ValueError("twisted classes need a family over a named field")
        r = args.frobenius
        if r < 1:
            raise ValueError("--frobenius must be a positive degree")
        ext = make_field(ctx.p, ctx.m * r)
        table = instantiate(spec, ext)
        carrier = twisted_from_matrices(
            table.elements,
            ctx,
            r,
            gens=whole_group(table).gens,
            label=f"{spec.label()}@{ext.name}",
        )
        payload = twisted_classes(carrier).summary()
    row = dict(payload)
    row["reps"] = " ".join(str(x) for x in row["reps"])
    return payload, [row], 0


def _parse_param(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise ValueError(f"parameter {text!r} is not of the form key=value")
    key, raw = text.split("=", 1)
    value: object
    if raw.lower() in ("true", "false"):
        value = raw.lower() == "true"
    else:
        try:
            value = int(raw)
        except ValueError:
            if "," in raw and all(
                p.strip().lstrip("-").isdigit() for p in raw.split(",")
            ):
                value = tuple(int(p) for p in raw.split(","))
            else:
                value = raw
    return key, value


def _cmd_experiment(args):
    params = dict(_parse_param(p) for p in args.param)
    exp = run_experiment(args.id, params)
    payload = exp.summary()
    rows = report.experiment_rows([payload])
    return payload, rows, 1 if exp.verdict == FAIL else 0


def _cmd_verify(args):
    rep = verify_suite(args.suite)
    payload = rep.summary()
    rows = report.experiment_rows(payload["experiments"])
    rows.append(
        {
            "id": f"suite:{rep.name}",
            "params": f"passed={rep.passed} failed={rep.failed} report_only={rep.report_only}",
            "predicted": "",
            "computed": "",
            "verdict": "ok" if rep.ok else "fail",
        }
    )
    return payload, rows, 0 if rep.ok else 1


# ---------------------------------------------------------------------------
# parser and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zclasskit",
        description="z-class computations in matrix groups over finite fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--format", choices=report.FORMATS, default="table", help="output format"
        )
        p.add_argument(
            "--no-footer", action="store_true", help="suppress the runtime footer"
        )
        p.add_argument(
            "--max-group",
            type=int,
            default=None,
            metavar="N",
            help="largest group order to enumerate (env ZK_MAX_GROUP)",
        )
        p.add_argument(
            "--max-field",
            type=int,
            default=None,
            metavar="N",
            help="largest field order to build (env ZK_MAX_FIELD)",
        )
        p.add_argument(
            "--allow-bad-characteristic",
            action="store_true",
            help="override the determinant-one characteristic guard",
        )

    p = sub.add_parser("zclasses", help="partition a group into z-classes")
    p.add_argument("group", help="group spec, e.g. gl:2@3^1 or dihedral:7")
    p.add_argument(
        "--filter",
        default=None,
        help="restrict seeds: unipotent, regular-unipotent, regular-semisimple",
    )
    common(p)
    p.set_defaults(handler=_cmd_zclasses)

    p = sub.add_parser("centralizer", help="centralizer of one element")
    p.add_argument("group")
    p.add_argument("element", help='element spec: "[1,1;0,1]", u_beta:B, h:T')
    common(p)
    p.set_defaults(handler=_cmd_centralizer)

    p = sub.add_parser("conjtest", help="test two elements for conjugacy")
    p.add_argument("group")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument(
        "--sl", action="store_true", help="demand a determinant-one witness"
    )
    common(p)
    p.set_defaults(handler=_cmd_conjtest)

    p = sub.add_parser("probe", help="retest z-equivalence after base change")
    p.add_argument("family", help="family spec without field, e.g. borel-gl:2")
    p.add_argument("q", type=int, help="base field order")
    p.add_argument("r", type=int, help="extension degree")
    p.add_argument("elements", nargs="+", help="element specs, two per pair")
    common(p)
    p.set_defaults(handler=_cmd_probe)

    p = sub.add_parser("h1", help="twisted (Frobenius-conjugacy) classes")
    p.add_argument("--mu", type=int, default=None, metavar="N", help="mu_N coefficients")
    p.add_argument("--q", type=int, default=None, help="base field order")
    p.add_argument(
        "--degree", type=int, default=None, help="override the realizing degree"
    )
    p.add_argument("--group", default=None, help="group spec for a full carrier")
    p.add_argument(
        "--frobenius", type=int, default=None, metavar="R", help="twist degree"
    )
    common(p)
    p.set_defaults(handler=_cmd_h1)

    p = sub.add_parser("experiment", help="run one catalog experiment")
    p.add_argument("id", help="experiment id, e.g. gl2-zclasses")
    p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="K=V",
        help="override a default parameter (repeatable)",
    )
    common(p)
    p.set_defaults(handler=_cmd_experiment)

    p = sub.add_parser("verify", help="run an experiment suite")
    p.add_argument("suite", help="smoke, paper, or full")
    common(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    start = time.perf_counter()
    bounds = limits.INVOCATION.set(
        {"ZK_MAX_GROUP": args.max_group, "ZK_MAX_FIELD": args.max_field}
    )
    try:
        limits.max_group()  # a bad bound is a usage error on every subcommand
        limits.max_field()
        payload, rows, code = args.handler(args)
    except BoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (BadCharacteristic, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 1
    finally:
        limits.INVOCATION.reset(bounds)
    print(report.render(args.format, _strip_runtime(payload), rows))
    if not args.no_footer:
        print(f"# runtime: {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

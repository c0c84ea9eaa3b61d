"""One cold benchmark process.

Reads a job (JSON) on stdin, runs the workload's operations once in this
fresh interpreter, and writes one JSON object on stdout: when the import of
zclasskit returned, wall and CPU time of the operations, peak RSS, each
operation's answer and, for a traced job, the per-layer metrics.

Run by run.py; a job without operations only reports the import time.
"""
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import zclasskit as zk  # noqa: E402

IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)

# everything below is benchmark machinery, imported after the set-up stamp
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402

import zclasskit.cli  # noqa: E402
import zclasskit.limits  # noqa: E402


def run_verify(state, op):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = zk.cli.main(op["argv"])
    out = buf.getvalue()
    verdicts = [[e["id"], e["verdict"]] for e in json.loads(out)["experiments"]] if rc == 0 else []
    return {"rc": rc, "digest": hashlib.sha256(out.encode()).hexdigest(), "verdicts": verdicts}


def run_partition(state, op):
    table = zk.instantiate(zk.FamilySpec(op["family"], op["n"]), zk.make_field(op["p"], op["m"]))
    part = zk.z_partition(table)
    state[op["table"]] = (table, part)
    return {"order": table.order, "zclasses": part.zclass_count}


def run_centralizer(state, op):
    table, _ = state[op["table"]]
    return {"z_order": zk.centralizer(table, op["g"]).order}


def run_z_equivalent(state, op):
    table, _ = state[op["table"]]
    return {"equivalent": zk.z_equivalent(table, op["g"], op["h"]) is not None}


def run_h1(state, op):
    return {"size": zk.h1_mu_n(op["q"], op["n"]).size}


def _pair(op):
    ctx = zk.make_field(op["p"], op["m"])
    if list(ctx.modulus) != op["modulus"]:
        raise ValueError(f"F_{ctx.name} modulus {ctx.modulus} differs from the inputs' {op['modulus']}")
    return zk.Mat(ctx, op["n"], op["a"]), zk.Mat(ctx, op["n"], op["b"])


def run_gl_pair(state, op):
    a, b = _pair(op)
    return {"conj": zk.gl_conjugate_test(a, b) is not None,
            "zeq": zk.structural_z_equivalent(zk.GL, a, b) is not None}


def run_sl_pair(state, op):
    a, b = _pair(op)
    return {"conj": zk.sl_conjugate_test(a, b) is not None}


RUN = {
    "verify": run_verify,
    "partition": run_partition,
    "centralizer": run_centralizer,
    "z_equivalent": run_z_equivalent,
    "h1": run_h1,
    "gl_pair": run_gl_pair,
    "sl_pair": run_sl_pair,
}


def add_support(state, ops, answers) -> None:
    """After the clock stops: facts the group-table oracle compares against."""
    lookup = {}
    for key, (table, part) in state.items():
        class_of = {}
        for c in zk.conjugacy_classes(table):
            for i in c.member_ids:
                class_of[i] = c
        block_of = {cid: k for k, b in enumerate(part.blocks) for cid in b.class_ids}
        lookup[key] = (class_of, block_of)
    for op, ans in zip(ops, answers):
        if "error" in ans or op["kind"] not in ("centralizer", "z_equivalent"):
            continue
        class_of, block_of = lookup[op["table"]]
        if op["kind"] == "centralizer":
            ans["class_size"] = class_of[op["g"]].size
        else:
            g, h = class_of[op["g"]].rep_id, class_of[op["h"]].rep_id
            ans["same_block"] = block_of[g] == block_of[h]


def run_ops(ops):
    state = {}
    answers = []
    for op in ops:
        try:
            answers.append(RUN[op["kind"]](state, op))
        except Exception as exc:  # every failure is recorded against its operation, never retried
            answers.append({"error": f"{type(exc).__name__}: {exc}"})
    return state, answers


def main() -> int:
    if not os.path.abspath(zk.__file__).startswith(SRC + os.sep):
        print(f"zclasskit imported from {zk.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    job = json.load(sys.stdin)
    result = {"imported_at": IMPORTED_AT}
    if job.get("ops") is not None:
        tracer = None
        if job["trace"]:
            from tracer import Tracer
            tracer = Tracer(job["run_id"])
            tracer.install()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        state, answers = run_ops(job["ops"])
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.metrics()
            if job.get("spans_path"):
                tracer.write(job["spans_path"])
        add_support(state, job["ops"], answers)
        result.update(wall_s=wall, cpu_s=cpu, peak_rss_mb=peak_kb / 1024, answers=answers)
    limits = zclasskit.limits
    bounds = (limits.max_group(), limits.max_field())
    result["env"] = {
        "python": platform.python_version(),
        "max_group": bounds[0],
        "max_field": bounds[1],
        "default_bounds": bounds == (limits.DEFAULT_MAX_GROUP, limits.DEFAULT_MAX_FIELD),
    }
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

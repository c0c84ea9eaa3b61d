"""Self-check of the benchmark itself: python3 perfbench/selfcheck.py

Runs every workload once at a tiny size and checks that
  * every metric named in BENCHMARK.json prints, with its unit;
  * every answer passes its oracle, and a deliberately wrong expected value
    fails it, both for each kind of operation and through the whole
    pipeline into `failed` and `correct`;
  * the tracer wraps functions where they are looked up: calls between
    modules (z_partition -> centralizer, h1_mu_n -> make_field) show as
    child spans, and uninstalling restores every original;
  * run.py exits non-zero without printing a result when the checkout holds
    no sources.
Exits 0 when all hold.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads

PROBLEMS: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        PROBLEMS.append(what)


def corrupt(op: dict) -> dict | None:
    """The same operation with a wrong expected value; None if it has none."""
    bad = dict(op)
    kind = op["kind"]
    if kind == "verify":
        bad["expect_digest"] = "0" * 64
    elif kind == "partition":
        bad["expect_zclasses"] += 1
    elif kind == "centralizer":
        bad["expect_order"] += 1
    elif kind == "h1":
        bad["expect"] += 1
    elif kind in ("gl_pair", "sl_pair"):
        bad["expect_conj"] = not bad["expect_conj"]
    else:
        return None
    return bad


def check_oracles(name: str, ops: list[dict]) -> None:
    child = run.spawn({"ops": ops, "trace": False})
    answers = child["answers"]
    expect(all(workloads.check(op, a) == [] for op, a in zip(ops, answers)),
           f"{name}: every tiny answer passes its oracle")
    for kind in sorted({op["kind"] for op in ops}):
        op, ans = next((o, a) for o, a in zip(ops, answers) if o["kind"] == kind)
        if kind == "z_equivalent":  # its expectation is the partition's block membership
            wrong = workloads.check(op, {**ans, "same_block": not ans["same_block"]})
        else:
            wrong = workloads.check(corrupt(op), ans)
        expect(len(wrong) == workloads.attempted(op), f"{name}: wrong expected value fails a {kind} operation")


def check_pipeline(name: str, ops: list[dict], units: dict) -> None:
    for trace in (False, True):
        res = run.measure(ops, f"{name}-selfcheck", 0.1, trace)
        line = run.result_line(res)
        wanted = units["per_layer" if trace else "end_to_end"]
        missing = [m["name"] for m in wanted
                   if line["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
        expect(not missing, f"{name} --trace {int(trace)}: every metric prints with its unit {missing or ''}")
        expect(line["correct"] and line["failed"] == 0, f"{name} --trace {int(trace)}: correct, no failures")
    bad_ops = [corrupt(ops[0])] + ops[1:]
    res = run.measure(bad_ops, f"{name}-selfcheck", 0.1, False)
    line = run.result_line(res)
    expect(not line["correct"] and line["failed"] == workloads.attempted(ops[0]) * res["report"]["repetitions"],
           f"{name}: a wrong expected value is counted in failed, once per repetition")


def check_tracer() -> None:
    sys.path.insert(0, str(run.SRC))
    import zclasskit as zk
    import zclasskit.cli  # noqa: F401  (the tracer also wraps cli.main)
    from tracer import Tracer

    original = zk.zclass.centralizer
    tracer = Tracer("selfcheck")
    tracer.install()
    try:
        expect(zk.zclass.centralizer is zk.grpcore.centralizer is zk.paperlab.centralizer is not original,
               "tracer: centralizer is wrapped in every namespace that imports it")
        table = zk.instantiate(zk.FamilySpec(zk.GL, 2), zk.make_field(3, 1))
        zk.z_partition(table)
        zk.h1_mu_n(4, 3)
    finally:
        tracer.uninstall()
    expect(zk.zclass.centralizer is original, "tracer: uninstall restores the originals")
    expect({"grpcore.centralizer", "grpcore.subgroups_conjugate"} <= tracer.children_of("zclass.z_partition"),
           "tracer: z_partition -> centralizer, subgroups_conjugate are child spans")
    expect("ff.make_field" in tracer.children_of("galh1.h1_mu_n"),
           "tracer: h1_mu_n -> make_field is a child span")
    layers = tracer.metrics()
    expect(layers["matfq.mat_mul.calls"] > 0 and layers["ff.fields_built.table"] > 0,
           "tracer: per-element methods and field construction are counted")


def check_no_sources() -> None:
    bare = run.ROOT / ".bench_build" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "twisted-grid", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"a checkout without sources exits {proc.returncode} and prints no result")


def main() -> int:
    units = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in units["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json names every workload")
    for name in workloads.WORKLOADS:
        ops = workloads.generate(name, 1, tiny=True)
        check_oracles(name, ops)
        check_pipeline(name, ops, units)
    check_tracer()
    check_no_sources()
    print(f"{len(PROBLEMS)} problem(s)")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    raise SystemExit(main())

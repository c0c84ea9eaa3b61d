"""Cold-process benchmark of zclass-kit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and measures the package under
src/. Each repetition of the workload is a fresh interpreter (child.py),
started one at a time, as a command-line user runs the code: every process
pays for its own field, embedding and class caches. Repetitions continue
until the next one would overrun --seconds (at least two always run,
or one traced pair).

--trace 0 prints the end-to-end metrics (medians over the repetitions);
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones plus the tracing overhead. Every
answer is checked against its oracle; the last stdout line is
{"correct", "attempted", "failed", "metrics"}, and the line before it is
the full report: environment, samples and each failure with its inputs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
OUT_DIR = ROOT / ".bench_build" / "perfbench"  # span files of traced runs

# import-only processes before each repetition, so set-up samples spread over
# the run like the repetitions do; each repetition adds one more sample
SETUP_PROBES = 3
CHILD_TIMEOUT = 170
MAX_REPORTED_FAILURES = 50


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env() -> dict:
    """The caller's environment, minus Python settings that change start-up or bytecode caching."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"  # the same string hashing in every child
    return env


def spawn(job: dict) -> dict:
    """Run one child to completion; adds setup_s, measured from spawn to import."""
    started = _clock()
    proc = subprocess.run(
        [sys.executable, str(CHILD)], input=json.dumps(job), capture_output=True,
        text=True, timeout=CHILD_TIMEOUT, env=_child_env(), cwd=ROOT,
    )
    if proc.returncode != 0:
        raise ChildFailed(f"child exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout)
    out["setup_s"] = out["imported_at"] - started
    return out


class ChildFailed(RuntimeError):
    pass


def environment(child_env: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": child_env["python"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "ZK_MAX_GROUP": child_env["max_group"],
        "ZK_MAX_FIELD": child_env["max_field"],
        "bounds": "default" if child_env["default_bounds"] else "non-default",
    }


def tally(ops: list[dict], child: dict | None, error: str | None, failures: list) -> int:
    """Check one repetition's answers; returns the operations attempted."""
    count = 0
    answers = child["answers"] if child else [{"error": error}] * len(ops)
    for op, ans in zip(ops, answers):
        count += workloads.attempted(op)
        failures.extend({"op": op, "error": msg} for msg in workloads.check(op, ans))
    return count


def measure(ops: list[dict], label: str, seconds: float, trace: bool) -> dict:
    """Repeat the operations in fresh processes for about `seconds`; medians and failures."""
    spawn({})  # warm-up: compiles __pycache__, measures nothing
    setup: list[float] = []
    plain: list[dict] = []
    traced: list[dict] = []
    failures: list[dict] = []
    attempted = 0
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    # untraced runs take at least two repetitions, so a median never rests on
    # one sample of a ~12 s workload; a traced repetition already pairs two
    min_reps = 1 if trace else 2
    begin = _clock()
    rep = 0
    while True:
        started = _clock()
        setup += [spawn({})["setup_s"] for _ in range(SETUP_PROBES)]
        kinds = (False, True) if trace else (False,)
        for traced_rep in kinds:
            job = {"ops": ops, "trace": traced_rep, "run_id": f"{label}-{rep}",
                   "spans_path": str(OUT_DIR / f"spans-{label}.jsonl") if traced_rep else None}
            try:
                child, error = spawn(job), None
            except (ChildFailed, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
                child, error = None, f"{type(exc).__name__}: {exc}"
            attempted += tally(ops, child, error, failures)
            if child:
                (traced if traced_rep else plain).append(child)
                if not traced_rep:
                    setup.append(child["setup_s"])
        rep += 1
        now = _clock()
        if rep >= min_reps and now - begin + (now - started) > seconds:
            break
    if not plain or (trace and not traced):
        raise ChildFailed(failures[0]["error"] if failures else "no repetition finished")

    def median(key, runs=plain):
        return statistics.median(r[key] for r in runs)

    if trace:
        metrics = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = median("wall_s", traced) - median("wall_s")
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": median("wall_s"),
            "cpu_s": median("cpu_s"),
            "peak_rss_mb": median("peak_rss_mb"),
        }
    report = {
        "run": label,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(plain[0]["env"]),
        "repetitions": len(plain),
        "traced_repetitions": len(traced),
        "samples": {
            "setup_s": setup,
            "wall_s": [r["wall_s"] for r in plain],
            "cpu_s": [r["cpu_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
            "traced_wall_s": [r["wall_s"] for r in traced],
        },
        "failures": failures[:MAX_REPORTED_FAILURES],
    }
    return {"report": report, "attempted": attempted, "failed": len(failures), "metrics": metrics}


def result_line(res: dict) -> dict:
    """The final stdout line: the metrics BENCHMARK.json names, each with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {name: {"value": value, "unit": unit_of[name]}
               for name, value in res["metrics"].items() if name in unit_of}
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zclasskit" / "__init__.py").is_file():
        print(f"error: no zclasskit sources under {SRC}", file=sys.stderr)
        return 2
    ops = workloads.generate(args.workload, args.seed)
    try:
        res = measure(ops, f"{args.workload}-{args.seed}", args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"workload": args.workload, "seed": args.seed, **res["report"]}))
    print(json.dumps(result_line(res)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

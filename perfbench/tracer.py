"""Spans and counters around zclasskit's public functions, for the traced run.

The tracer wraps functions from outside the package. zclasskit modules
import each other's functions by name (`from .grpcore import centralizer`),
so a call between modules looks the name up in the importing module; the
wrapper therefore replaces the function in every zclasskit namespace that
holds it, not only in the defining module.

Public functions get spans (name, start, end, parent span, run id), kept in
memory and written out when the run ends. Per-element methods (matrix
multiply, inverse, determinant, field arithmetic) are only counted: a span
there would cost more than the call it measures. A layer's self time is
the time of its spans minus the time their child spans cover.
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from itertools import count

import zclasskit as zk

# field orders at which zclasskit switches arithmetic path: full q*q tables
# up to TABLE_Q, exp/log tables up to LOG_Q, raw polynomial arithmetic above
TABLE_Q = 512
LOG_Q = 1 << 16

# spanned function -> the metric prefix its calls and self time are reported under
SPANS = {
    "ff.make_field": "ff.make_field",
    "ff.power_class_count": "ff.power_class_count",
    "matfq.rcf": "matfq.rcf",
    "matfq.gl_conjugate_test": "matfq.conj_test",
    "matfq.sl_conjugate_test": "matfq.conj_test",
    "matfq.centralizer_algebra": "matfq.centralizer_algebra",
    "matfq.charpoly": "matfq.charpoly",
    "matfq.minpoly": "matfq.charpoly",
    "matfq.mat_embed": "matfq.mat_embed",
    "matfq.TransporterSpace.elements": "matfq.algebra_elements",
    "grpcore.instantiate": "grpcore.instantiate",
    "grpcore.conjugacy_classes": "grpcore.conjugacy_classes",
    "grpcore.centralizer": "grpcore.centralizer",
    "grpcore.normalizer": "grpcore.normalizer",
    "grpcore.subgroups_conjugate": "grpcore.subgroups_conjugate",
    "grpcore.subgroup_from_members": "grpcore.subgroup_from_members",
    "zclass.z_partition": "zclass.z_partition",
    "zclass.z_equivalent": "zclass.z_equivalent",
    "zclass.structural_z_equivalent": "zclass.structural_z_equivalent",
    "zclass.geometric_stabilize": "zclass.towers",
    "zclass.fusion_count": "zclass.towers",
    "zclass.growth_degree": "zclass.towers",
    "zclass.base_change_probe": "zclass.towers",
    "galh1.h1_mu_n": "galh1.h1_mu_n",
    "galh1.make_twisted": "galh1.make_twisted",
    "galh1.twisted_classes": "galh1.twisted_classes",
    "paperlab.run_experiment": "paperlab.run_experiment",
    "report.render": "report.render",
    "cli.main": "cli.main",
}

# counted methods -> counter name
COUNTED = {
    "matfq.Mat.__mul__": "matfq.mat_mul.calls",
    "matfq.Mat.inverse": "matfq.inverse.calls",
    "matfq.Mat.det": "matfq.det.calls",
    "ff.FieldCtx.mul": "ff.arith.calls",
    "ff.FieldCtx.inv": "ff.arith.calls",
    "ff.FieldCtx.pow": "ff.arith.calls",
}

HIT_RATIOS = ("matfq.conj_test", "grpcore.subgroups_conjugate", "zclass.z_equivalent",
              "zclass.structural_z_equivalent")


def _observe(prefix: str, args, result, counts: Counter) -> None:
    """Counts taken from what a spanned call received and returned."""
    if prefix in HIT_RATIOS:
        counts[prefix + ".hits"] += result is not None
    elif prefix == "grpcore.instantiate":
        counts["grpcore.elements_tabulated"] += result.order
    elif prefix in ("grpcore.centralizer", "grpcore.normalizer"):
        counts[prefix + ".elements_scanned"] += args[0].order
    elif prefix == "galh1.make_twisted":
        counts["galh1.carrier_elements"] += len(result.elements)
    elif prefix == "paperlab.run_experiment":
        counts["paperlab.verdicts_failed"] += result.verdict == "fail"
    elif prefix == "report.render":
        counts["report.bytes_out"] += len(result.encode())


class Tracer:
    """Installs wrappers into zclasskit, records spans and counts, then restores."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []  # (namespace, attribute, original)
        self._ticks: dict = {}  # counter -> itertools.count, for per-element calls

    def _span(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        prefix = SPANS[name]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = [name, start, end, parent]
            _observe(prefix, args, result, counts)
            return result

        return wrapper

    def _tick(self, counter: str):
        """A C-level incrementer for a hot counter; uninstall() folds it into counts."""
        ticks = self._ticks.setdefault(counter, count())
        return ticks.__next__

    def _counted(self, name: str, fn):
        tick = self._tick(COUNTED[name])
        if name.startswith("ff.FieldCtx."):
            raw_tick = self._tick("ff.arith.raw")

            def wrapper(ctx, *args):
                tick()
                if ctx.q > LOG_Q:
                    raw_tick()
                return fn(ctx, *args)
        else:
            def wrapper(*args):
                tick()
                return fn(*args)
        return wrapper

    def _field_init(self, fn):
        counts = self.counts

        def wrapper(ctx, *args):
            fn(ctx, *args)
            path = "table" if ctx.q <= TABLE_Q else "explog" if ctx.q <= LOG_Q else "raw"
            counts["ff.fields_built." + path] += 1

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target wherever a zclasskit namespace holds it."""
        namespaces = [m for name, m in sys.modules.items()
                      if name == "zclasskit" or name.startswith("zclasskit.")]
        for name in SPANS:
            module, _, attr = name.partition(".")
            owner = getattr(zk, module)
            if "." in attr:  # a method: patch it on its class
                cls, _, attr = attr.partition(".")
                owner = getattr(owner, cls)
                self._patch(owner, attr, self._span(name, getattr(owner, attr)))
                continue
            original = getattr(owner, attr)
            wrapped = self._span(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, wrapped)
        for name in COUNTED:
            module, cls, attr = name.split(".")
            owner = getattr(getattr(zk, module), cls)
            self._patch(owner, attr, self._counted(name, getattr(owner, attr)))
        self._patch(zk.ff.FieldCtx, "__init__", self._field_init(zk.ff.FieldCtx.__init__))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for counter, ticks in self._ticks.items():
            self.counts[counter] += next(ticks)
        self._ticks.clear()

    def children_of(self, name: str) -> set[str]:
        """Names of the spans opened directly inside spans of `name`."""
        return {s[0] for s in self.spans if s[3] >= 0 and self.spans[s[3]][0] == name}

    def metrics(self) -> dict[str, float]:
        """Per-layer calls, self time, ratios and counts from this run's spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            prefix = SPANS[name]
            calls[prefix] += 1
            self_s[prefix] += (end - start) - child
        out: dict[str, float] = {}
        for prefix in sorted(set(SPANS.values())):
            out[prefix + ".calls"] = calls[prefix]
            out[prefix + ".self_s"] = self_s[prefix]
        for prefix in HIT_RATIOS:
            out[prefix + ".hit_ratio"] = self.counts[prefix + ".hits"] / calls[prefix] if calls[prefix] else 0.0
        for key in set(COUNTED.values()) | {
            "ff.fields_built.table", "ff.fields_built.explog", "ff.fields_built.raw",
            "grpcore.elements_tabulated", "grpcore.centralizer.elements_scanned",
            "grpcore.normalizer.elements_scanned", "galh1.carrier_elements",
            "paperlab.verdicts_failed", "report.bytes_out",
        }:
            out[key] = self.counts[key]
        arith = self.counts["ff.arith.calls"]
        out["ff.arith.raw_share"] = self.counts["ff.arith.raw"] / arith if arith else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path) -> None:
        """Write the spans, one JSON list per line: name, start, end, parent, run id."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent, self.run_id]) + "\n")

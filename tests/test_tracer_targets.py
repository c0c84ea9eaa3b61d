"""Every function the benchmark tracer wraps still exists under its name.

perfbench/tracer.py patches zclasskit functions and methods by name from
outside the package and skips nothing, so a rename there would make its
per-layer metrics raise or go empty. The tracer is read with ast, not
imported, so this check runs without the benchmark's own path set-up.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import zclasskit as zk
import zclasskit.cli  # noqa: F401  (the benchmark child loads it before tracing)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _table(name: str) -> dict:
    tree = ast.parse(TRACER.read_text(), str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/tracer.py has no {name} table")


def _targets() -> list[str]:
    return sorted(set(_table("SPANS")) | set(_table("COUNTED")))


def test_tracer_tables_are_not_empty():
    assert len(_table("SPANS")) >= 20 and len(_table("COUNTED")) >= 5


@pytest.mark.parametrize("target", _targets())
def test_tracer_target_resolves(target):
    owner = zk  # the tracer looks each name up from the package, as here
    for attr in target.split("."):
        assert hasattr(owner, attr), f"{target}: no attribute {attr!r} on {owner!r}"
        owner = getattr(owner, attr)
    assert callable(owner), f"{target} is not callable"

"""Every function, class and method in zclasskit is reached from outside
tests, and every module-level import is used by its module.

A definition whose name appears nowhere in src/ or perfbench/ except in
its own `def`/`class` line has no caller but the tests, and should go or
move into the tests that use it as an oracle. Names exported from
`zclasskit/__init__.py` are the public interface and count as reached.
Dunder methods are called by the interpreter and are exempt. An import
counts as used when its module loads the name; `__init__.py` imports
are re-exports and are exempt.
"""
from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "zclasskit"
SEARCHED = ("src", "perfbench")  # tests/ does not count as a caller


def _definitions() -> Counter:
    defs: Counter = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defs[node.name] += 1
    return defs


def _word_counts() -> Counter:
    words: Counter = Counter()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            words.update(re.findall(r"\w+", path.read_text()))
    return words


def test_every_definition_is_named_elsewhere():
    words = _word_counts()
    dead = sorted(name for name, n in _definitions().items() if words[name] <= n)
    assert dead == [], f"defined but never named outside its definition and tests/: {dead}"


def _unused_imports() -> list[str]:
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = [
            (alias.asname or alias.name).split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in imported if name not in loaded]
    return unused


def test_every_module_level_import_is_used():
    assert _unused_imports() == [], "imported but never used"

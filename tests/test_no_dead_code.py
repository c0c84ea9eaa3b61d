"""Every function, class, method and module-level upper-case constant in
zclasskit is reached from outside tests, and every module-level import
is used by its module.

A definition is reached when src/ or perfbench/ refers to it in code.
A function, class or constant is referred to by its name (an assignment
to the name is no reference), by an import, as an
attribute of an imported module or object (`limits.max_group`,
`zk.make_field`), or as a part of a dotted string constant in perfbench/
that names a zclasskit module first (the benchmark tracer resolves such
strings to functions). A method is referred to by any attribute of its
name. Docstrings, comments and other strings do not count, nor does an
attribute like `args.frobenius` for a module-level function, nor a
reference from inside the definition itself (recursion). Names exported
from `zclasskit/__init__.py` are the public interface and count as
reached. Dunder methods are called by the interpreter and are exempt. An
import counts as used when its module loads the name; `__init__.py`
imports are re-exports and are exempt.
"""
from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "zclasskit"
SEARCHED = ("src", "perfbench")  # tests/ does not count as a caller
MODULES = {path.stem for path in PACKAGE.glob("*.py")}
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions() -> set[tuple[str, bool]]:
    """(name, is_method) of every non-dunder definition in the package,
    module-level upper-case constants (`SPAN_CAP`, `_FIELDS`) included."""
    out = set()

    def visit(body, in_class: bool, top: bool) -> None:
        for node in body:
            if isinstance(node, DEFS):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    out.add((node.name, in_class))
                visit(node.body, isinstance(node, ast.ClassDef), False)
            elif top and isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                out.update(
                    (t.id, False) for t in targets if isinstance(t, ast.Name) and t.id.isupper()
                )
            elif hasattr(node, "body"):  # if/try/with blocks
                visit(node.body, in_class, top)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)).body, False, True)
    return out


class _References(ast.NodeVisitor):
    """Counts what a module's code refers to, outside the definitions of
    the same names: `names` reach functions and classes, `attrs` (every
    attribute) reach methods."""

    def __init__(self, tree: ast.Module, dotted_strings: bool):
        self.names: Counter = Counter()
        self.attrs: Counter = Counter()
        self.enclosing: list[str] = []
        self.dotted_strings = dotted_strings
        self.imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        self.visit(tree)

    def _count(self, counter: Counter, name: str) -> None:
        if name not in self.enclosing:
            counter[name] += 1

    def _visit_def(self, node) -> None:
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _visit_def

    def visit_Name(self, node: ast.Name) -> None:
        if not isinstance(node.ctx, ast.Store):
            self._count(self.names, node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._count(self.attrs, node.attr)
        root = node.value
        while isinstance(root, ast.Attribute):
            root = root.value
        if isinstance(root, ast.Name) and root.id in self.imported:
            self._count(self.names, node.attr)
        self.generic_visit(node)

    def visit_alias(self, node: ast.alias) -> None:
        for part in node.name.split("."):
            self._count(self.names, part)

    def visit_Constant(self, node: ast.Constant) -> None:
        if self.dotted_strings and isinstance(node.value, str):
            head, *rest = node.value.split(".")
            if head in MODULES and rest and all(p.isidentifier() for p in rest):
                for part in rest:
                    self._count(self.names, part)


def _references() -> tuple[Counter, Counter]:
    names: Counter = Counter()
    attrs: Counter = Counter()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            refs = _References(ast.parse(path.read_text(), str(path)), top == "perfbench")
            names.update(refs.names)
            attrs.update(refs.attrs)
    return names, attrs


def test_every_definition_is_named_elsewhere():
    names, attrs = _references()
    dead = sorted(
        name
        for name, is_method in _definitions()
        if not names[name] and not (is_method and attrs[name])
    )
    assert dead == [], f"defined but never referenced outside its definition and tests/: {dead}"


def test_references_ignore_docstrings_strings_and_recursion():
    source = '''
import ff
CAP = 3
def used(): pass
def lonely():
    """lonely and used are only words here"""
    return lonely() + len("lonely") + args.hidden
used()
ff.reached.method()
'''
    refs = _References(ast.parse(source), dotted_strings=True)
    assert refs.names["used"] == 1 and refs.names["lonely"] == 0
    assert refs.names["CAP"] == 0
    assert refs.names["hidden"] == 0 and refs.attrs["hidden"] == 1
    assert refs.names["reached"] == refs.names["method"] == 1


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

"""No module-level import in ``src/repro``, ``tests`` or ``examples``
goes unused.

An unused import costs launch time when it names a module, and a
reader's time always: it claims a dependency that is not there. The
scan is the stdlib ``ast`` alone. A name counts as used when the module
reads it anywhere (a ``Name`` node, including inside a quoted
annotation) or lists it in ``__all__``; ``__future__`` imports are
directives, not names. Imports nested in a module-level ``if`` or
``try`` (``TYPE_CHECKING`` blocks, optional fallbacks) are module-level
too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: The scanned trees: the package, its tests and its examples.
SCANNED = (ROOT / "src" / "repro", ROOT / "tests", ROOT / "examples")


def _module_imports(body):
    """``{bound name: line}`` of the imports in a module body."""
    bound = {}
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.If):
            bound.update(_module_imports(node.body + node.orelse))
        elif isinstance(node, ast.Try):
            bound.update(_module_imports(
                node.body + node.orelse + node.finalbody
                + [stmt for handler in node.handlers
                   for stmt in handler.body]))
    return bound


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            if (isinstance(annotation, ast.Constant)
                    and isinstance(annotation.value, str)):
                used.update(sub.id for sub in ast.walk(
                    ast.parse(annotation.value, mode="eval"))
                    if isinstance(sub, ast.Name))
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name)
                        and target.id == "__all__"
                        for target in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def test_no_module_level_import_is_unused():
    unused = []
    for path in sorted(path for tree in SCANNED
                       for path in tree.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used_names(tree)
        unused.extend(f"{path.relative_to(ROOT)}:{line}: {name}"
                      for name, line in _module_imports(tree.body).items()
                      if name not in used)
    assert unused == []


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os\n"
                     "from typing import List, Optional\n"
                     "if True:\n"
                     "    from json import dumps\n"
                     "__all__ = ['dumps']\n"
                     "def f(x: 'Optional[int]') -> None:\n"
                     "    return None\n")
    used = _used_names(tree)
    assert sorted(name for name in _module_imports(tree.body)
                  if name not in used) == ["List", "os"]

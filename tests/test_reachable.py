"""Every module in ``src/repro`` is reachable from a product entry point,
and every name it defines is used outside the tests.

A module only tests or examples import is code the product does not
run: it costs review, coverage and reading time and answers to no
command, figure or benchmark. The entry points are ``repro.__main__``
(the CLI), every ``repro.experiments`` module (``__main__`` loads them
by name with ``import_module``) and every ``benchmarks/**/*.py`` file.
The scan is the stdlib ``ast`` alone: an import anywhere in a module
(a function-level import counts) is an edge, and loading a module loads
its parent packages.

The same holds one level down, by name: a ``def`` or ``class`` whose
name occurs nowhere but at its definition in ``src``, ``benchmarks``
and ``examples`` is called only by tests, or by nothing.
"""

import ast
import re
from collections import Counter, deque
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: Defined names the product need not use: ``ReferenceGenome.from_dict``
#: is kept as the tests' and docs' fixture builder.
UNUSED_ALLOWED = {"from_dict"}


def _imported(tree, module, package):
    """Every dotted name an import in ``tree`` may load. ``module`` is
    the importing module's name and ``package`` whether it is an
    ``__init__``, so a relative import resolves as Python resolves it."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = module if package else module.rpartition(".")[0]
                for _ in range(node.level - 1):
                    parent = parent.rpartition(".")[0]
                base = ".".join(part for part in (parent, base) if part)
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def _orphans(sources, roots):
    """Names in ``sources`` (``{module: (source, is_package)}``) that no
    chain of imports reaches from ``roots``; a root need not be one of
    ``sources``' modules (a benchmark file is not)."""
    edges = {name: _imported(ast.parse(text), name, package)
             for name, (text, package) in sources.items()}
    seen, queue = set(roots), deque(roots)
    while queue:
        name = queue.popleft()
        parents = {name.rsplit(".", i)[0] for i in range(1, name.count(".") + 1)}
        for nxt in (edges.get(name, set()) | parents) - seen:
            if nxt in sources:
                seen.add(nxt)
                queue.append(nxt)
    return sorted(set(sources) - seen)


def _repo_sources():
    sources = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        package = parts[-1] == "__init__"
        name = ".".join(parts[:-1] if package else parts)
        sources[name] = (path.read_text(), package)
    for path in sorted((REPO / "benchmarks").rglob("*.py")):
        name = str(path.relative_to(REPO))
        sources[name] = (path.read_text(), False)
    return sources


def test_every_module_is_reachable_from_an_entry_point():
    sources = _repo_sources()
    roots = ["repro.__main__"] + [
        name for name in sources
        if name.startswith("repro.experiments.") or name.endswith(".py")]
    assert _orphans(sources, roots) == []


def test_the_scan_sees_an_orphan():
    sources = {
        "pkg": ("", True),
        "pkg.__main__": ("from . import used\n"
                         "from .sub import helper\n", False),
        "pkg.used": ("def f():\n    import pkg.deep.lazy\n", False),
        "pkg.deep": ("", True),
        "pkg.deep.lazy": ("from ..sub import helper\n", False),
        "pkg.sub": ("def helper():\n    pass\n", False),
        "pkg.orphan": ("from pkg.sub import helper\n", False),
        "pkg.deep.only_tested": ("import os\n", False),
    }
    assert _orphans(sources, ["pkg.__main__"]) == [
        "pkg.deep.only_tested", "pkg.orphan"]


def _used_once(definers, corpus):
    """Names a ``def`` or ``class`` in ``definers`` (module sources)
    defines that occur as a word fewer than twice across ``corpus``
    (every source scanned, ``definers`` among them): only at their
    definition. A dunder method is called by the language, not by its
    name, and is not a candidate."""
    defined = {node.name for text in definers
               for node in ast.walk(ast.parse(text))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))
               and not re.fullmatch(r"__\w+__", node.name)}
    words = Counter(re.findall(r"\w+", "\n".join(corpus)))
    return sorted(name for name in defined if words[name] < 2)


def test_every_defined_name_is_used_outside_the_tests():
    definers = [path.read_text()
                for path in sorted((SRC / "repro").rglob("*.py"))]
    corpus = definers + [
        path.read_text()
        for folder in ("benchmarks", "examples")
        for path in sorted((REPO / folder).rglob("*.py"))]
    unused = set(_used_once(definers, corpus)) - UNUSED_ALLOWED
    assert sorted(unused) == []


def test_the_name_scan_sees_a_name_used_once():
    definers = ["class Used:\n    def method(self):\n        helper()\n"
                "    def __enter__(self):\n        return self\n",
                "def helper():\n    pass\n\ndef orphan():\n    pass\n",
                "def _private():\n    pass\n"]
    corpus = definers + ["from pkg import Used\nUsed().method()\n",
                         "x._private_too = 1\n"]
    assert _used_once(definers, corpus) == ["_private", "orphan"]

"""Every module in ``src/repro`` is reachable from a product entry point.

A module only tests or examples import is code the product does not
run: it costs review, coverage and reading time and answers to no
command, figure or benchmark. The entry points are ``repro.__main__``
(the CLI), every ``repro.experiments`` module (``__main__`` loads them
by name with ``import_module``) and every ``benchmarks/**/*.py`` file.
The scan is the stdlib ``ast`` alone: an import anywhere in a module
(a function-level import counts) is an edge, and loading a module loads
its parent packages.
"""

import ast
from collections import deque
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"


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

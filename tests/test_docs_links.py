"""Dead-link check for the repository's markdown documentation.

Every relative link in ``docs/*.md`` and ``README.md`` must resolve to a
file (or directory) inside the repo. External ``http(s)``/``mailto``
links are skipped -- CI has no network and their liveness is not this
repo's contract -- and pure ``#anchor`` fragments are checked only for
the target file's existence, not the heading.

So must every Python file those documents cite in inline code: a
backticked ``repro/...``, ``src/repro/...``, ``examples/...``,
``benchmarks/...`` or ``tests/...`` path ending ``.py`` (``repro/`` is
read under ``src/``; a ``*`` in the path must match a file), so deleting
a module leaves no citation of it behind.

And so must every command line they cite: on each ``python -m repro
<command> ...`` or ``repro <command> ...`` line of those documents and
of ``repro.__main__``'s docstring (fenced or not, backslash continuations
joined), the command must be a registered subcommand and every
``--option`` after it, up to the end of that shell command or inline
code span, one of that subparser's options -- so deleting a command or
a flag leaves no example of it behind.
"""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = sorted(
    [REPO_ROOT / "README.md"] + list((REPO_ROOT / "docs").glob("*.md"))
)

# [text](target) -- ignores images' leading "!" (same target rules) and
# skips fenced code blocks below.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

# `...` spans, and in them a cited repository Python file.
CODE_RE = re.compile(r"`([^`]+)`")
PY_PATH_RE = re.compile(
    r"(?<![\w/.])((?:src/)?repro|examples|benchmarks|tests)/[\w/*.-]*?\.py\b")

# A cited command line: ``repro <command>``, its ``--options``, and what
# ends one citation's scope (an inline code span, a shell separator, a
# trailing comment).
CLI_RE = re.compile(r"(?<![\w./-])repro\s+([a-z][\w-]*)")
OPTION_RE = re.compile(r"(?<![\w-])--[a-z][\w-]*")
SEGMENT_RE = re.compile(r"`|;|\|\||&&|\||\s#\s")


def _prose(path: Path):
    """``(lineno, line)`` of ``path`` outside fenced code blocks."""
    in_fence = False
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            yield lineno, line


def _links(path: Path):
    for lineno, line in _prose(path):
        for match in LINK_RE.finditer(line):
            yield lineno, match.group(1)


def _cited_py_paths(path: Path):
    for lineno, line in _prose(path):
        for code in CODE_RE.finditer(line):
            for match in PY_PATH_RE.finditer(code.group(1)):
                yield lineno, match.group(0)


def test_doc_files_exist():
    assert (REPO_ROOT / "README.md").exists()
    assert len(DOC_FILES) >= 4, "docs/*.md shrank unexpectedly"


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_intra_repo_links_resolve(doc):
    dead = []
    for lineno, target in _links(doc):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part = target.split("#", 1)[0]
        if not path_part:  # pure #anchor into the same file
            continue
        resolved = (doc.parent / path_part).resolve()
        if not resolved.exists():
            dead.append(f"{doc.relative_to(REPO_ROOT)}:{lineno} -> {target}")
    assert not dead, "dead intra-repo links:\n" + "\n".join(dead)


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_cited_python_paths_resolve(doc):
    dead = []
    for lineno, cited in _cited_py_paths(doc):
        relative = f"src/{cited}" if cited.startswith("repro/") else cited
        if not list(REPO_ROOT.glob(relative)):
            dead.append(f"{doc.relative_to(REPO_ROOT)}:{lineno} -> {cited}")
    assert not dead, "cited files that do not exist:\n" + "\n".join(dead)


def test_the_citation_scan_finds_every_cited_path(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("`repro/align/smith_waterman.py::smith_waterman`, "
                   "`src/repro/realign/whd.py` and `python examples/x.py`\n"
                   "```\n`tests/in_a_fence.py`\n```\n"
                   "see `benchmarks/bench_figure9_*.py` (`perf/model.py`)\n")
    assert list(_cited_py_paths(doc)) == [
        (1, "repro/align/smith_waterman.py"), (1, "src/repro/realign/whd.py"),
        (1, "examples/x.py"), (5, "benchmarks/bench_figure9_*.py")]


def _logical_lines(text: str):
    """``(lineno, line)`` with ``\\``-continued lines joined."""
    lines = text.splitlines()
    index = 0
    while index < len(lines):
        lineno, line = index + 1, lines[index]
        while line.rstrip().endswith("\\") and index + 1 < len(lines):
            index += 1
            line = line.rstrip()[:-1] + " " + lines[index].strip()
        yield lineno, line
        index += 1


def _cli_citations(text: str):
    """``(lineno, command, options)`` for every cited command line."""
    for lineno, line in _logical_lines(text):
        for segment in SEGMENT_RE.split(line):
            matches = list(CLI_RE.finditer(segment))
            for match, following in zip(matches, matches[1:] + [None]):
                end = following.start() if following else len(segment)
                yield (lineno, match.group(1),
                       OPTION_RE.findall(segment[match.end():end]))


def _stale_citations(name: str, text: str):
    from repro.__main__ import build_parser

    subparsers = next(action.choices
                      for action in build_parser()._subparsers._group_actions
                      if hasattr(action, "choices"))
    stale = []
    for lineno, command, options in _cli_citations(text):
        if command not in subparsers:
            stale.append(f"{name}:{lineno}: no command {command!r}")
            continue
        known = {option for action in subparsers[command]._actions
                 for option in action.option_strings}
        stale.extend(f"{name}:{lineno}: {command} has no {option}"
                     for option in options if option not in known)
    return stale


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_cited_commands_and_options_exist(doc):
    stale = _stale_citations(doc.relative_to(REPO_ROOT), doc.read_text())
    assert not stale, "stale CLI citations:\n" + "\n".join(stale)


def test_cli_docstring_cites_only_live_commands_and_options():
    import repro.__main__

    stale = _stale_citations("repro/__main__.py", repro.__main__.__doc__)
    assert not stale, "stale CLI citations:\n" + "\n".join(stale)


def test_the_cli_citation_scan_catches_stale_commands_and_options():
    text = ("```\npython -m repro realign --reference r.fa \\\n"
            "    --no-such-flag 1  # --not-scanned\n"
            "python -m repro gone --x\n```\n"
            "run `repro trace --fleet 2` (not `--nor-this`) or "
            "`python -m repro <command>`\n")
    assert list(_cli_citations(text)) == [
        (2, "realign", ["--reference", "--no-such-flag"]),
        (4, "gone", ["--x"]), (6, "trace", ["--fleet"])]
    assert _stale_citations("doc", text) == [
        "doc:2: realign has no --no-such-flag", "doc:4: no command 'gone'"]

"""The CLI surface cannot drift from its documentation.

PR 7 shipped an ``evaluate`` subcommand that ``--help`` never
mentioned. The fix is structural: the parser's subcommands, the
``COMMANDS`` registry (which generates the ``--help`` epilog), and
``docs/CLI.md`` are all checked against each other here, so adding a
subcommand without documenting it fails CI instead of shipping.
"""

import re
from pathlib import Path

from repro.__main__ import COMMANDS, _epilog, build_parser

REPO_ROOT = Path(__file__).resolve().parent.parent
CLI_DOC = REPO_ROOT / "docs" / "CLI.md"


def _subcommands():
    parser = build_parser()
    actions = [action for action in parser._subparsers._group_actions
               if hasattr(action, "choices")]
    assert len(actions) == 1
    return dict(actions[0].choices)


class TestCommandRegistry:
    def test_every_subcommand_is_registered(self):
        missing = set(_subcommands()) - set(COMMANDS)
        assert not missing, (
            f"subcommands missing from COMMANDS (so missing from --help "
            f"epilog and docs): {sorted(missing)}"
        )

    def test_no_stale_registry_entries(self):
        stale = set(COMMANDS) - set(_subcommands())
        assert not stale, f"COMMANDS documents removed subcommands: {stale}"

    def test_every_subcommand_has_help_text(self):
        for name, description in COMMANDS.items():
            assert description.strip(), f"{name} has an empty description"

    def test_regressed_commands_are_present(self):
        # The specific regression this file exists to prevent, plus the
        # serving pair added alongside it.
        for name in ("evaluate", "serve", "loadgen"):
            assert name in COMMANDS
            assert name in _subcommands()


class TestParserImports:
    def test_building_the_parser_loads_no_engine_and_no_numpy(self):
        """``--help`` and every usage error stop inside the parser: they
        must cost the interpreter and ``argparse``, not the kernels."""
        import subprocess
        import sys

        code = (
            "import sys\n"
            "import repro.__main__\n"
            "repro.__main__.build_parser()\n"
            "loaded = [m for m in sys.modules if m == 'numpy' "
            "or m.startswith('repro.engine')]\n"
            "assert not loaded, loaded\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)

    def test_flagless_realign_loads_no_fpga_model(self, tmp_path):
        """A software run pays for the software path: no FPGA model, no
        refinement pipeline, no hardware-recovery scheduler, and at most
        40 of the package's modules."""
        import subprocess
        import sys

        from repro.__main__ import main as cli_main

        sample = tmp_path / "sample"
        assert cli_main(["simulate", "--out", str(sample), "--length",
                         "4000", "--coverage", "12", "--seed", "3"]) == 0
        argv = ["realign", "--reference", str(sample / "reference.fa"),
                "--sam", str(sample / "aligned.sam"),
                "--out", str(sample / "out.sam")]
        code = (
            "import sys\n"
            "from repro.__main__ import main\n"
            f"assert main({argv!r}) == 0\n"
            "banned = [m for m in sys.modules if m == 'networkx' "
            "or m in ('repro.resilience.recovery', 'repro.resilience.health') "
            "or m.startswith(('repro.core', 'repro.hw', "
            "'repro.refinement'))]\n"
            "assert not banned, banned\n"
            "ours = sorted(m for m in sys.modules if m.startswith('repro.'))\n"
            "assert len(ours) <= 40, ours\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)


class TestDependencies:
    def test_numpy_is_the_only_third_party_import(self):
        """``pyproject.toml`` declares numpy and CI installs numpy: any
        other import in ``src/repro`` -- top-level or nested in a
        function -- breaks a clean install the first time it runs."""
        import ast
        import sys

        foreign = set()
        for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                foreign.update(
                    (path.name, name) for name in names
                    if name.split(".")[0] not in {"repro", "numpy"}
                    | sys.stdlib_module_names
                )
        assert not foreign, sorted(foreign)


class TestHelpEpilog:
    def test_epilog_lists_every_command(self):
        epilog = _epilog()
        for name, description in COMMANDS.items():
            assert re.search(rf"^  {re.escape(name)}\s", epilog, re.M), (
                f"{name} missing from the --help epilog"
            )
            first_line = description.split("\n")[0][:30]
            assert first_line in epilog

    def test_epilog_points_at_the_docs(self):
        assert "docs/CLI.md" in _epilog()
        assert "docs/SERVING.md" in _epilog()


class TestCliDoc:
    def test_doc_exists(self):
        assert CLI_DOC.exists(), "docs/CLI.md is the CLI reference"

    def test_doc_lists_every_command(self):
        text = CLI_DOC.read_text()
        for name in COMMANDS:
            assert re.search(rf"`{re.escape(name)}`", text), (
                f"docs/CLI.md does not mention `{name}`"
            )

    def test_doc_descriptions_match_registry(self):
        # The index table must carry the same one-liners as --help; a
        # reworded registry entry must be reflected here.
        text = CLI_DOC.read_text()
        for name, description in COMMANDS.items():
            flat = " ".join(description.split())
            row = f"| `{name}` | {flat}"
            assert any(line.startswith(row)
                       for line in text.splitlines()), (
                f"docs/CLI.md index row for {name} does not match "
                f"COMMANDS ({flat!r})"
            )

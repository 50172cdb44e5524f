"""The CLI surface cannot drift from its documentation.

PR 7 shipped an ``evaluate`` subcommand that ``--help`` never
mentioned. The fix is structural: the parser's subcommands, the
``COMMANDS`` registry (which generates the ``--help`` epilog), and
``docs/CLI.md`` are all checked against each other here, so adding a
subcommand without documenting it fails CI instead of shipping.
"""

import importlib
import json
import re
from pathlib import Path

import pytest

from repro.__main__ import COMMANDS, _epilog, build_parser, main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent
CLI_DOC = REPO_ROOT / "docs" / "CLI.md"
#: The commands that print one ``repro.experiments`` module's tables.
PAPER_COMMANDS = ("figure2", "figure3", "figure4", "figure7", "figure9",
                  "tables", "appendix", "microarch", "comparisons")


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

    def test_paper_commands_describe_their_experiment(self):
        # A paper command's one-liner is its experiment module's
        # docstring heading, so the help cannot describe an experiment
        # the command does not run.
        for name in PAPER_COMMANDS:
            module = importlib.import_module(f"repro.experiments.{name}")
            heading = module.__doc__.strip().splitlines()[0].rstrip(".")
            assert COMMANDS[name] == heading, name

    def test_regressed_commands_are_present(self):
        # The specific regression this file exists to prevent, plus the
        # serving pair added alongside it.
        for name in ("evaluate", "serve", "loadgen"):
            assert name in COMMANDS
            assert name in _subcommands()


class TestHelpPages:
    def test_every_subcommand_help_renders(self):
        # A stray ``%`` in a help string only fails at format time.
        for name, subparser in _subcommands().items():
            assert f"python -m repro {name}" in subparser.format_help()


class TestDispatch:
    def test_all_runs_each_experiment_at_its_own_defaults(self,
                                                         monkeypatch):
        # The parser's flagless paper commands in order, then figure9:
        # every experiment, comparisons included.
        order = ("figure2", "figure3", "figure4", "figure7", "tables",
                 "appendix", "microarch", "comparisons", "figure9")
        assert sorted(order) == sorted(PAPER_COMMANDS)
        calls = []
        for name in order:
            module = importlib.import_module(f"repro.experiments.{name}")
            monkeypatch.setattr(
                module, "main",
                lambda name=name, **kwargs: calls.append((name, kwargs)),
            )
        assert cli_main(["all"]) == 0
        assert tuple(name for name, _ in calls) == order
        kwargs = dict(calls)
        assert kwargs["figure9"] == {"sites_per_chromosome": 96,
                                     "replication": 24}

    def test_trace_engine_session_uses_the_site_cache(self, tmp_path):
        out = tmp_path / "trace.json"
        assert cli_main(["trace", "--out", str(out), "--sites", "6",
                         "--site-cache-mb", "8"]) == 0
        counters = json.loads(out.read_text())["otherData"]["counters"]
        assert counters["engine"]["engine.cache_misses"] > 0


class TestChaosFlags:
    """Nothing injects faults: the FPGA model is the paper's fault-free
    F1, and the host plane raises instead of retrying. Every chaos flag
    is an argparse error on every command, and ``resilience`` is no
    command."""

    @staticmethod
    def _argv(tmp_path):
        reference = tmp_path / "ref.fa"
        reference.write_text(">c\nACGT\n")
        return {
            "realign": ["realign", "--reference", str(reference), "--sam",
                        str(reference), "--out", str(tmp_path / "o.sam")],
            "trace": ["trace", "--out", str(tmp_path / "t.json")],
            "evaluate": ["evaluate"],
            "serve": ["serve", "--reference", str(reference)],
            "loadgen": ["loadgen"],
        }

    def test_host_fault_flags_are_gone(self, tmp_path, capsys):
        for name, argv in self._argv(tmp_path).items():
            with pytest.raises(SystemExit) as exit_info:
                cli_main(argv + ["--worker-fault-rate", "0.3"])
            assert exit_info.value.code == 2, name
            assert ("unrecognized arguments: --worker-fault-rate"
                    in capsys.readouterr().err)
        chaos = re.compile(r"fault|chaos|preempt")
        for name, subparser in _subcommands().items():
            options = [option for action in subparser._actions
                       for option in action.option_strings]
            assert not [o for o in options if chaos.search(o)], name
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["resilience"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'resilience'" in capsys.readouterr().err


class TestFlagRanges:
    """A flag out of range is one ``error:`` line and exit 2 from
    ``_flag_errors``, before the command runs: not a traceback, and not
    an empty sample."""

    @pytest.mark.parametrize("argv, flag", [
        (["trace", "--sites", "0"], "--sites"),
        (["trace", "--replication", "0"], "--replication"),
        (["figure9", "--sites", "0"], "--sites"),
        (["figure9", "--replication", "0"], "--replication"),
        (["simulate", "--coverage", "0"], "--coverage"),
        (["simulate", "--length", "0"], "--length"),
        (["loadgen", "--selftest", "--length", "0"], "--length"),
        (["loadgen", "--selftest", "--coverage", "-1"], "--coverage"),
        (["loadgen", "--selftest", "--time-scale", "-1"], "--time-scale"),
    ])
    def test_out_of_range_flag_exits_2(self, argv, flag, tmp_path, capsys):
        out = tmp_path / "out"
        if argv[0] in ("trace", "simulate"):
            argv = [*argv, "--out", str(out)]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["trace", "--out", "t.json", "--fleet", "2"], "--fleet 2"),
        (["loadgen", "--dry-run"], "--dry-run"),
        (["serve", "--reference", "ref.fa", "--canary"], "--canary"),
    ])
    def test_removed_side_paths_are_unknown(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


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

    @staticmethod
    def _check_after_flagless_realign(tmp_path, check, flags=()):
        """Run a ``repro realign`` (flagless, or with ``flags``) in a
        fresh interpreter, then ``check`` (Python source) in it."""
        import subprocess
        import sys

        sample = tmp_path / "sample"
        assert cli_main(["simulate", "--out", str(sample), "--length",
                         "4000", "--coverage", "12", "--seed", "3"]) == 0
        argv = ["realign", "--reference", str(sample / "reference.fa"),
                "--sam", str(sample / "aligned.sam"),
                "--out", str(sample / "out.sam"), *flags]
        code = (
            "import sys\n"
            "from repro.__main__ import main\n"
            f"assert main({argv!r}) == 0\n" + check
        )
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)

    def test_flagless_realign_loads_no_fpga_model(self, tmp_path):
        """A software run pays for the software path: no FPGA model, no
        refinement pipeline, and at most 25 of the package's modules."""
        self._check_after_flagless_realign(tmp_path, (
            "banned = [m for m in sys.modules if m == 'networkx' "
            "or m.startswith(('repro.core', 'repro.hw', "
            "'repro.refinement'))]\n"
            "assert not banned, banned\n"
            "ours = sorted(m for m in sys.modules if m.startswith('repro.'))\n"
            "assert len(ours) <= 25, ours\n"
        ))

    def test_telemetry_realign_loads_no_perf_model(self, tmp_path):
        """The engine records its chunk spans itself: a traced software
        run loads the telemetry package, not ``repro.perf``."""
        self._check_after_flagless_realign(tmp_path, (
            "assert 'repro.telemetry' in sys.modules\n"
            "loaded = [m for m in sys.modules if m.startswith('repro.perf')]\n"
            "assert not loaded, loaded\n"
        ), flags=("--telemetry", str(tmp_path / "trace.json")))

    def test_flagless_realign_loads_only_the_kernel_it_runs(self, tmp_path):
        """``from repro.engine import Engine`` loads no kernel module:
        the dispatch imports the one it runs. A flagless realign runs
        ``native``, so the FFT kernel, the prefilter and -- unless the
        compiled tier is unavailable and bitpack serves instead -- the
        bit-packed kernel stay unloaded."""
        self._check_after_flagless_realign(tmp_path, (
            "from repro.engine.native import native_available\n"
            "unused = {'repro.engine.batch', 'repro.engine.prefilter'}\n"
            "if native_available():\n"
            "    unused.add('repro.engine.bitpack')\n"
            "loaded = sorted(unused & set(sys.modules))\n"
            "assert not loaded, loaded\n"
        ))

    def test_pooled_engine_is_one_process(self):
        """``workers=2`` runs its units as threads of this process: no
        process-pool machinery is loaded, and ``close()`` joins every
        thread it started."""
        import subprocess
        import sys

        code = (
            "import sys, threading\n"
            "import numpy as np\n"
            "from repro.engine import Engine, EngineConfig\n"
            "from repro.workloads.generator import REAL_PROFILE, "
            "synthesize_site\n"
            "rng = np.random.default_rng(3)\n"
            "sites = [synthesize_site(rng, REAL_PROFILE, start=i * 5000) "
            "for i in range(8)]\n"
            "engine = Engine(EngineConfig(workers=2, batch=2))\n"
            "assert len(engine.run_sites(sites)) == 8\n"
            "loaded = [m for m in ('multiprocessing', "
            "'concurrent.futures.process') if m in sys.modules]\n"
            "assert not loaded, loaded\n"
            "engine.close()\n"
            "assert threading.active_count() == 1, threading.enumerate()\n"
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

    def test_doc_mentions_every_long_option(self):
        text = CLI_DOC.read_text()
        missing = sorted({
            (name, option)
            for name, subparser in _subcommands().items()
            for action in subparser._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
            and not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])",
                              text)
        })
        assert not missing, f"options missing from docs/CLI.md: {missing}"

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

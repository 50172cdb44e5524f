"""The default unit count: one engine thread per CPU this process may run
on, shared by ``EngineConfig`` and every CLI command's ``--workers``.

Pinned here: the default follows the affinity mask (a process pinned to
one CPU runs inline, with no thread and no ``stream:`` line), the
default's output is the inline run's byte for byte, and no unit thread
outlives the engine that started it -- including the default engine an
``IndelRealigner`` builds for itself.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main as cli_main
from repro.engine import EngineConfig
from repro.kernels import default_workers

SRC = Path(__file__).resolve().parents[1] / "src"

needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"),
    reason="the platform has no CPU affinity API",
)


@pytest.fixture(scope="module")
def panel(tmp_path_factory):
    """The ``panel_80x`` shape, smaller: four 2 kb contigs at 80x, which
    build more sites than one chunk holds."""
    from repro.genomics.fasta import write_reference
    from repro.genomics.samlite import write_sam
    from repro.genomics.simulate import SimulationProfile, simulate_sample

    out = tmp_path_factory.mktemp("panel")
    sample = simulate_sample(
        {f"ctg{i:02d}": 2_000 for i in range(4)},
        profile=SimulationProfile(coverage=80.0, indel_rate=3e-3),
        seed=2019,
    )
    write_reference(sample.reference, out / "reference.fa")
    write_sam(sample.reads, out / "reads.sam", sample.reference)
    return out


def _realign_argv(panel: Path, out_name: str, *flags: str) -> list:
    return ["realign", "--reference", str(panel / "reference.fa"),
            "--sam", str(panel / "reads.sam"),
            "--out", str(panel / out_name), *flags]


def _sites(count: int):
    import numpy as np

    from repro.workloads.generator import REAL_PROFILE, synthesize_site

    rng = np.random.default_rng(3)
    return [synthesize_site(rng, REAL_PROFILE, start=i * 5000)
            for i in range(count)]


class TestDefaultFollowsAffinity:
    def test_unpinned_default_is_the_affinity_mask(self):
        expected = (len(os.sched_getaffinity(0))
                    if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)
        assert default_workers() == expected
        assert EngineConfig().workers == expected
        # The API and every engine-backed command share the one default.
        for argv in (["realign", "--reference", "r", "--sam", "s",
                      "--out", "o"],
                     ["trace", "--out", "t.json"],
                     ["evaluate"],
                     ["serve", "--reference", "r"],
                     ["loadgen"]):
            assert build_parser().parse_args(argv).workers == expected

    @needs_affinity
    def test_one_cpu_process_runs_inline(self, panel):
        """Pinned to one CPU before ``repro`` is imported: the default
        is 1, a several-chunk run starts no thread, and a flagless
        ``repro realign`` is inline (no ``stream:`` line)."""
        argv = _realign_argv(panel, "pinned.sam")
        code = (
            "import contextlib, io, os, threading\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from repro.engine import Engine, EngineConfig\n"
            "from repro.__main__ import main\n"
            "from tests.test_default_workers import _sites\n"
            "assert EngineConfig().workers == 1, EngineConfig()\n"
            "engine = Engine()\n"
            "assert len(engine.run_sites(_sites(20))) == 20\n"
            "assert engine.stream_stats['stream.chunks'] == 3\n"
            "assert engine._executor is None\n"
            "assert threading.active_count() == 1, threading.enumerate()\n"
            "stdout = io.StringIO()\n"
            "with contextlib.redirect_stdout(stdout):\n"
            f"    assert main({argv!r}) == 0\n"
            "assert 'engine: workers=1 ' in stdout.getvalue()\n"
            "assert 'stream:' not in stdout.getvalue(), stdout.getvalue()\n"
            "assert threading.active_count() == 1, threading.enumerate()\n"
        )
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([str(SRC), str(SRC.parent)]))
        subprocess.run([sys.executable, "-c", code], check=True, env=env,
                       timeout=180)

    def test_flagless_realign_is_the_inline_run(self, panel, capsys):
        assert cli_main(_realign_argv(panel, "inline.sam",
                                      "--workers", "1")) == 0
        inline = capsys.readouterr().out
        assert cli_main(_realign_argv(panel, "default.sam")) == 0
        default = capsys.readouterr().out
        # More sites than one chunk holds, so a pool has chunks to share.
        sites = int(inline.split(" sites, ")[0].rsplit(" ", 1)[1])
        assert sites > EngineConfig().batch
        assert ((panel / "default.sam").read_bytes()
                == (panel / "inline.sam").read_bytes())
        assert ("stream: " in default) == (default_workers() >= 2)


class TestNoUnitThreadOutlivesItsEngine:
    def _settled_thread_count(self) -> int:
        gc.collect()
        return threading.active_count()

    def test_default_realigner_engine(self, panel):
        from repro.genomics.fasta import read_reference
        from repro.genomics.samlite import read_sam
        from repro.realign.realigner import IndelRealigner

        reference = read_reference(panel / "reference.fa")
        reads = read_sam(panel / "reads.sam", reference)
        before = self._settled_thread_count()
        realigner = IndelRealigner(reference)
        realigner.realign(reads)
        pooled = realigner._engine_instance()._executor is not None
        assert pooled == (default_workers() >= 2)
        del realigner
        assert threading.active_count() == before, threading.enumerate()

    def test_in_process_realign(self, panel):
        before = self._settled_thread_count()
        assert cli_main(_realign_argv(panel, "threads.sam")) == 0
        assert threading.active_count() == before, threading.enumerate()

    def test_in_process_server(self, panel):
        # loadgen --selftest serves from an in-process server on the
        # engine the flags describe, then realigns the same reads with a
        # default IndelRealigner for the byte comparison; the panel's
        # sites fill more than one chunk on both.
        before = self._settled_thread_count()
        assert cli_main(["loadgen", "--selftest",
                         "--reference", str(panel / "reference.fa"),
                         "--sam", str(panel / "reads.sam"),
                         "--tenants", "2", "--requests-per-tenant", "2",
                         "--time-scale", "0"]) == 0
        assert threading.active_count() == before, threading.enumerate()

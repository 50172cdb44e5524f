"""The serve/loadgen CLI surface, end to end through ``main()``.

tests/test_serve.py proves the serving library; this file drives the
same machinery through the exact entry points users run -- the
``repro serve`` process loop (bound port, shutdown op, final snapshot
line), the ``repro loadgen`` selftest/compare paths, and the
flag-validation exits.
"""

import json
import socket
import threading
import time

import pytest

from repro.__main__ import main as cli_main
from repro.serve.client import ServiceClient


@pytest.fixture(scope="module")
def sample_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("serve-cli") / "sample"
    assert cli_main([
        "simulate", "--out", str(out), "--length", "8000",
        "--coverage", "12", "--indel-rate", "0.0015", "--seed", "11",
    ]) == 0
    return out


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestLoadgenCli:
    def test_selftest_is_byte_identical(self, tmp_path, capsys):
        report_path = tmp_path / "load.json"
        assert cli_main([
            "loadgen", "--selftest", "--length", "6000",
            "--coverage", "10", "--tenants", "2",
            "--requests-per-tenant", "2", "--seed", "3",
            "--json", str(report_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "byte-identical" in out
        report = json.loads(report_path.read_text())
        assert report["completed"] >= 4
        assert report["server"]["counters"]["serve.requests_completed"] > 0

    def test_selftest_from_files_with_out_and_compare(self, sample_dir,
                                                      tmp_path, capsys):
        batch = tmp_path / "batch.sam"
        assert cli_main([
            "realign", "--reference", str(sample_dir / "reference.fa"),
            "--sam", str(sample_dir / "aligned.sam"), "--out", str(batch),
            "--workers", "1",
        ]) == 0
        served = tmp_path / "served.sam"
        assert cli_main([
            "loadgen", "--selftest",
            "--reference", str(sample_dir / "reference.fa"),
            "--sam", str(sample_dir / "aligned.sam"),
            "--tenants", "2", "--seed", "5",
            "--out", str(served), "--compare", str(batch),
        ]) == 0
        assert "matches" in capsys.readouterr().out
        # The compare already passed; pin the raw-bytes claim too.
        assert served.read_bytes() == batch.read_bytes()

    @pytest.mark.parametrize("flag", ["--sam", "--compare"])
    def test_non_utf8_sam_is_one_located_error(self, sample_dir, tmp_path,
                                                capsys, flag):
        lines = (sample_dir / "aligned.sam").read_bytes().split(b"\n")
        at = next(k for k, line in enumerate(lines)
                  if not line.startswith(b"@")) + 2
        lines[at] += b"\tXX:Z:a\xffb"
        bad = tmp_path / "bad.sam"
        bad.write_bytes(b"\n".join(lines))
        sam = bad if flag == "--sam" else sample_dir / "aligned.sam"
        capsys.readouterr()
        assert cli_main([
            "loadgen", "--selftest", "--tenants", "2", "--seed", "5",
            "--reference", str(sample_dir / "reference.fa"),
            "--sam", str(sam), *((flag, str(bad)) if flag != "--sam" else ()),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:{at + 1}: line is not UTF-8: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_header_only_sam_is_one_error(self, sample_dir, tmp_path,
                                          capsys):
        header = tmp_path / "header.sam"
        header.write_text("".join(
            f"{line}\n" for line in
            (sample_dir / "aligned.sam").read_text().splitlines()
            if line.startswith("@")))
        assert cli_main([
            "loadgen", "--selftest",
            "--reference", str(sample_dir / "reference.fa"),
            "--sam", str(header),
        ]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {header}: no alignment lines to serve\n"

    def test_sam_without_reference_is_rejected(self, sample_dir, capsys):
        assert cli_main([
            "loadgen", "--selftest",
            "--sam", str(sample_dir / "aligned.sam"),
        ]) == 2
        assert "--sam requires --reference" in capsys.readouterr().err

    def test_bad_engine_flags_rejected(self, capsys):
        assert cli_main([
            "loadgen", "--selftest", "--length", "6000", "--workers", "0",
        ]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_bad_load_profile_rejected(self, capsys):
        # A NaN deadline used to send every request with a deadline the
        # server refuses, report the failures and still exit 0.
        for flags, field in (
            (("--deadline-s", "nan"), "deadline_s"),
            (("--deadline-s", "inf"), "deadline_s"),
            (("--deadline-s", "0"), "deadline_s"),
            (("--mean-interarrival-ms", "nan"), "mean_interarrival_s"),
            (("--mean-interarrival-ms", "inf"), "mean_interarrival_s"),
            (("--mean-interarrival-ms", "0"), "mean_interarrival_s"),
        ):
            assert cli_main([
                "loadgen", "--selftest", "--length", "6000", *flags,
            ]) == 2, flags
            err = capsys.readouterr().err
            assert field in err and "Traceback" not in err, flags


class TestServeCli:
    def test_serve_accepts_traffic_then_shuts_down(self, sample_dir,
                                                   capsys):
        import asyncio

        port = _free_port()
        rc = {}

        def serve():
            rc["serve"] = cli_main([
                "serve", "--reference", str(sample_dir / "reference.fa"),
                "--host", "127.0.0.1", "--port", str(port),
            ])

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()

        async def drive():
            deadline = time.perf_counter() + 30.0
            while True:
                try:
                    client = await ServiceClient.open("127.0.0.1", port)
                    break
                except OSError:
                    if time.perf_counter() > deadline:
                        raise
                    await asyncio.sleep(0.05)
            try:
                assert await client.ping()
                lines = (sample_dir / "aligned.sam").read_text().splitlines()
                reads = [ln for ln in lines if not ln.startswith("@")]
                result = await client.realign(reads[:40])
                stats = await client.stats()
                await client.shutdown()
            finally:
                await client.close()
            return result, stats

        result, stats = asyncio.run(drive())
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "serve process did not shut down"
        assert rc["serve"] == 0
        assert len(result.sam) == 40
        assert result.latency_ms > 0.0
        assert stats["counters"]["serve.requests_completed"] >= 1
        assert "canary" not in stats
        out = capsys.readouterr().out
        assert f"serving on 127.0.0.1:{port}" in out
        assert "completed" in out  # the final snapshot line

    def test_bad_service_config_rejected(self, sample_dir, capsys):
        # A NaN deadline never expired: it exits 2 before serving.
        for flags, field in (
            (("--max-queue-sites", "0"), "max_queue_sites"),
            (("--deadline-s", "nan"), "default_deadline_s"),
            (("--deadline-s", "inf"), "default_deadline_s"),
            (("--deadline-s", "0"), "default_deadline_s"),
        ):
            assert cli_main([
                "serve", "--reference", str(sample_dir / "reference.fa"),
                *flags,
            ]) == 2, flags
            err = capsys.readouterr().err
            assert field in err and "Traceback" not in err, flags

    def test_admission_flags_are_gone(self, sample_dir, capsys):
        # Reject is the one admission policy and the cap is global: no
        # queue mode and no per-tenant cap get past the parser. (The
        # parser alone, so a regression fails here instead of serving.)
        from repro.__main__ import build_parser

        for gone, flags in (("--admission", ("--admission", "queue")),
                            ("--max-tenant-sites",
                             ("--max-tenant-sites", "3"))):
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args([
                    "serve", "--reference",
                    str(sample_dir / "reference.fa"), *flags,
                ])
            assert exit_info.value.code == 2
            assert (f"unrecognized arguments: {gone}"
                    in capsys.readouterr().err)

    def test_admission_config_fields_are_gone(self):
        from repro.serve.request import ServiceConfig

        for field, value in (("admission", "queue"),
                             ("max_tenant_sites", 3)):
            with pytest.raises(TypeError, match=field):
                ServiceConfig(**{field: value})

    def test_bad_engine_flags_rejected(self, sample_dir, capsys):
        assert cli_main([
            "serve", "--reference", str(sample_dir / "reference.fa"),
            "--workers", "0",
        ]) == 2
        assert "--workers" in capsys.readouterr().err

"""Tests for the extension features: industry comparison, CLI."""

import pytest

from repro.baselines.industry import (
    RELATED_SYSTEMS,
    amdahl_ceiling,
    whole_analysis_advantage,
)
from repro.__main__ import build_parser, main as cli_main


class TestIndustryComparison:
    def test_amdahl_ceilings(self):
        bounds = whole_analysis_advantage()
        # Infinite Smith-Waterman speedup buys ~5%; IR buys up to 52%.
        assert bounds["smith_waterman"] == pytest.approx(1 / 0.95)
        assert bounds["indel_realignment"] == pytest.approx(1 / 0.66)
        assert 1.4 < bounds["indel_realignment_at_81x"] < 1.52
        assert bounds["indel_realignment"] > bounds["primary_alignment"] \
            > bounds["smith_waterman"]

    def test_amdahl_validation(self):
        with pytest.raises(ValueError):
            amdahl_ceiling(0.0)
        with pytest.raises(ValueError):
            amdahl_ceiling(0.5, 0)

    def test_related_systems_include_dragen_and_this_work(self):
        names = {s.name for s in RELATED_SYSTEMS}
        assert "DRAGEN" in names
        assert any("IR ACC" in n for n in names)


class TestCli:
    def test_parser_knows_every_experiment(self):
        parser = build_parser()
        for command in ("figure2", "figure3", "figure4", "figure7",
                        "figure9", "tables", "microarch", "all"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_simulate_and_realign_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "sample"
        assert cli_main([
            "simulate", "--out", str(out), "--length", "8000",
            "--seed", "2", "--coverage", "15",
        ]) == 0
        assert (out / "reference.fa").exists()
        assert (out / "aligned.sam").exists()
        assert (out / "truth.txt").exists()
        assert cli_main([
            "realign", "--reference", str(out / "reference.fa"),
            "--sam", str(out / "aligned.sam"),
            "--out", str(out / "realigned.sam"),
        ]) == 0
        captured = capsys.readouterr().out
        assert "reads realigned" in captured
        assert (out / "realigned.sam").exists()

    def test_figure4_command(self, capsys):
        assert cli_main(["figure4"]) == 0
        assert "all figure values match: True" in capsys.readouterr().out

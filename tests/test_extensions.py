"""Tests for the extension features: the CLI."""

from repro.__main__ import build_parser, main as cli_main


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

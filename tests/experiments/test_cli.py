"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "table3", "table4", "table5", "table6", "table7", "table8",
            "table9", "fig4", "fig5", "fig6"}

    def test_parses_experiment_with_options(self):
        args = build_parser().parse_args(
            ["table3", "--scale", "smoke", "--datasets", "ETTh1", "--seed", "3"])
        assert args.experiment == "table3"
        assert args.scale == "smoke"
        assert args.datasets == ["ETTh1"]
        assert args.seed == 3

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table99"])

    def test_rejects_unknown_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table3", "--scale", "gigantic"])

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_profile_rejects_nonpositive_steps(self, steps, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["profile", "--steps", steps])
        assert exit_info.value.code != 0
        err = capsys.readouterr().err
        assert f"argument --steps: must be >= 1, got {int(steps)}" in err
        assert "Traceback" not in err


class TestMain:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out and "fig6" in out

    def test_runs_small_experiment_and_writes_output(self, tmp_path, capsys):
        code = main(["table6", "--scale", "smoke", "--datasets", "ETTh1",
                     "--output", str(tmp_path)])
        assert code == 0
        written = list(tmp_path.glob("*.md"))
        assert len(written) == 1
        content = written[0].read_text()
        assert "None" in content and "rotation" in content

    def test_fig5_writes_two_tables(self, tmp_path):
        code = main(["fig5", "--scale", "smoke", "--datasets", "ETTh1",
                     "--output", str(tmp_path)])
        assert code == 0
        names = sorted(p.name for p in tmp_path.glob("*.md"))
        assert names == ["fig5_classification.md", "fig5_forecasting.md"]

"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == "btree"
        assert args.scheme == "nvoverlay"

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "bogus"])

    @pytest.mark.parametrize("argv", [
        ["run", "--workload", "nope"],
        ["compare", "--workload", "nope"],
        ["trace", "--workload", "nope", "--out", "x.trace"],
        ["diff", "--workload", "nope"],
        ["crash-sweep", "--workload", "nope"],
        ["scaling", "--workload", "nope"],
        ["serve", "--workload", "nope"],
        ["experiment", "fig11", "--workloads", "btree,nope"],
    ])
    def test_unknown_workload_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unknown workload 'nope'" in err and "btree" in err

    def test_experiment_names(self):
        args = build_parser().parse_args(["experiment", "fig13"])
        assert args.name == "fig13"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestCommands:
    def test_workloads_lists_names(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "btree" in out and "kmeans" in out

    def test_run_prints_stats(self, capsys):
        assert main([
            "run", "--workload", "uniform", "--scheme", "picl", "--scale", "0.02",
        ]) == 0
        out = capsys.readouterr().out
        assert "cycles:" in out and "nvm bytes" in out

    def test_run_nvoverlay_extras(self, capsys):
        assert main([
            "run", "--workload", "uniform", "--scale", "0.02",
        ]) == 0
        assert "rec_epoch" in capsys.readouterr().out

    def test_compare_prints_table(self, capsys):
        assert main(["compare", "--workload", "uniform", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "nvoverlay" in out and "norm_cycles" in out

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "nvoverlay" in capsys.readouterr().out

    def test_experiment_fig13(self, capsys):
        assert main(["experiment", "fig13", "--scale", "0.02"]) == 0
        assert "pct_of_ws" in capsys.readouterr().out

    def test_experiment_fig14(self, capsys):
        assert main(["experiment", "fig14", "--scale", "0.02"]) == 0
        assert "epoch=" in capsys.readouterr().out

    def test_experiment_fig15(self, capsys):
        assert main(["experiment", "fig15", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "with_walker" in out and "tag_walk" in out

    def test_experiment_fig16(self, capsys):
        assert main(["experiment", "fig16", "--scale", "0.05"]) == 0
        assert "buffer" in capsys.readouterr().out

    def test_experiment_fig17_bursty(self, capsys):
        assert main(["experiment", "fig17", "--scale", "0.02", "--bursty"]) == 0
        assert "Fig. 17b" in capsys.readouterr().out

    def test_trace_capture(self, tmp_path, capsys):
        out_file = tmp_path / "u.trace"
        assert main([
            "trace", "--workload", "uniform", "--scale", "0.02",
            "--threads", "2", "--out", str(out_file),
        ]) == 0
        assert out_file.exists()
        assert "wrote" in capsys.readouterr().out

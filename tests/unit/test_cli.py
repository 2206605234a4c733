"""Unit tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import main

PARAMS = ["--capacity", "10e9", "--flows", "50", "--q0", "2.5e6",
          "--buffer", "20e6"]


class TestAnalyze:
    def test_stable_config_exits_zero(self, capsys):
        code = main(["analyze", *PARAMS])
        out = capsys.readouterr().out
        assert code == 0
        assert "strongly stable: True" in out
        assert "case1" in out

    def test_unstable_config_exits_nonzero(self, capsys):
        code = main(["analyze", "--capacity", "10e9", "--flows", "50",
                     "--q0", "2.5e6", "--buffer", "5e6"])
        out = capsys.readouterr().out
        assert code == 1
        assert "strongly stable: False" in out

    def test_plot_flag_renders_ascii(self, capsys):
        main(["analyze", *PARAMS, "--plot"])
        out = capsys.readouterr().out
        assert "phase plane" in out
        assert "+---" in out


class TestDesign:
    def test_admitted_config(self, capsys):
        code = main(["design", *PARAMS])
        out = capsys.readouterr().out
        assert code == 0
        assert "ADMITTED" in out
        assert "max flows" in out

    def test_rejected_config(self, capsys):
        code = main(["design", "--capacity", "10e9", "--flows", "50",
                     "--q0", "2.5e6", "--buffer", "5e6"])
        assert code == 1
        assert "REJECTED" in capsys.readouterr().out


class TestSimulate:
    def test_simulate_reports_metrics(self, capsys):
        code = main(["simulate", "--capacity", "1e8", "--flows", "4",
                     "--q0", "1e5", "--buffer", "1e6", "--pm", "0.1",
                     "--ru", "1e5", "--duration", "0.02"])
        out = capsys.readouterr().out
        assert code == 0
        assert "utilization" in out
        assert "Jain fairness" in out


class TestParser:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_missing_required_arg_rejected(self):
        with pytest.raises(SystemExit):
            main(["analyze", "--capacity", "1e9"])


class TestFabric:
    def test_reports_the_run(self, capsys):
        code = main(["fabric", "--topology", "dcell", "--k", "2",
                     "--rounds", "1", "--duration", "2e-4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "aggregate throughput" in out
        assert "mode" not in out

    def test_shards_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fabric", "--shards", "2"])
        assert exc.value.code != 0
        assert "--shards" in capsys.readouterr().err

"""Tests for the CLI and the ASCII renderer."""

import pytest

from repro.analysis.render import curve_table, sparkline
from repro.cli import main
from repro.errors import ConfigError


class TestSparkline:
    def test_monotone_series(self):
        assert sparkline([0, 1, 2, 3]) == "▁▃▆█"

    def test_constant_series(self):
        line = sparkline([5.0, 5.0, 5.0])
        assert len(line) == 3
        assert len(set(line)) == 1

    def test_length_matches_input(self):
        assert len(sparkline(list(range(17)))) == 17

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            sparkline([])


class TestCurveTable:
    def test_has_header_and_trend(self):
        table = curve_table({0.5: 1.0, 1.0: 2.0}, x_label="f", y_label="ipc")
        assert table.startswith("         f  ipc")
        assert "trend" in table


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig17+18" in out and "table4" in out

    def test_run_cheap_experiment(self, capsys):
        assert main(["run", "profiling"]) == 0
        assert "68.8" in capsys.readouterr().out

    def test_run_table(self, capsys):
        assert main(["run", "table1"]) == 0
        assert "388" in capsys.readouterr().out

    def test_run_writes_file(self, tmp_path, capsys):
        out_file = tmp_path / "result.txt"
        assert main(["run", "table4", "--out", str(out_file)]) == 0
        assert "374" in out_file.read_text()

    def test_catalog_overview(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "S13" in out

    def test_catalog_module_detail(self, capsys):
        assert main(["catalog", "S6"]) == 0
        out = capsys.readouterr().out
        assert "K4A8G085WD-BCTD" in out
        assert "3900" in out

    def test_catalog_unknown_module_errors(self, capsys):
        assert main(["catalog", "Z9"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_run_refuses_a_tolerant_check(self, capsys):
        # ``run`` keeps only figure data, so it has no count to report.
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "profiling", "--check-protocol", "tolerant"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'tolerant'" in capsys.readouterr().err

    def test_campaign_subcommand(self, tmp_path, capsys):
        result_dir = str(tmp_path / "camp")
        assert main(["campaign", "--dir", result_dir,
                     "--modules", "M2", "--rows", "4"]) == 0
        out = capsys.readouterr().out
        assert "done M2" in out
        assert "1/1" in out

    def test_campaign_status(self, tmp_path, capsys):
        result_dir = str(tmp_path / "camp")
        assert main(["campaign", "--dir", result_dir,
                     "--modules", "M2,S6", "--status"]) == 0
        assert "0/2" in capsys.readouterr().out

    def test_sweep_subcommand(self, tmp_path, capsys):
        result_dir = str(tmp_path / "sweep")
        assert main(["sweep", "--dir", result_dir,
                     "--mitigations", "Graphene", "--nrh", "128",
                     "--requests", "500"]) == 0
        out = capsys.readouterr().out
        assert "PaCRAM-H" in out

    def test_sweep_status(self, tmp_path, capsys):
        result_dir = str(tmp_path / "sweep")
        assert main(["sweep", "--dir", result_dir, "--status"]) == 0
        assert "0/" in capsys.readouterr().out

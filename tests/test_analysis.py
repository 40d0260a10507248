"""Tests for box statistics, tables, runner, and the experiment registry."""

import pytest

from repro.analysis.boxstats import BoxStats
from repro.analysis.experiments import EXPERIMENTS, experiment_ids, run_experiment
from repro.analysis.runner import (
    EVALUATED_NRH_VALUES,
    PACRAM_BEST_FACTORS,
    pacram_reference_config,
    run_simulation,
)
from repro.analysis.tables import (
    render_table1,
    render_table3,
    render_table4,
    table4_formula_check,
)
from repro.errors import CharacterizationError, ConfigError


class TestBoxStats:
    def test_five_number_summary(self):
        stats = BoxStats.from_values([1, 2, 3, 4, 5, 6, 7, 8])
        assert stats.minimum == 1
        assert stats.median == 4.5
        assert stats.maximum == 8
        assert stats.q1 == 2.5
        assert stats.q3 == 6.5

    def test_footnote4_quartiles_odd(self):
        # Footnote 4: quartiles are medians of the ordered halves.
        stats = BoxStats.from_values([1, 2, 3, 4, 5])
        assert stats.q1 == 1.5
        assert stats.q3 == 4.5
        assert stats.median == 3

    def test_single_value(self):
        stats = BoxStats.from_values([7.0])
        assert stats.minimum == stats.median == stats.maximum == 7.0
        assert stats.q1 == stats.q3 == 7.0

    def test_unordered_input(self):
        stats = BoxStats.from_values([5, 1, 3])
        assert stats.minimum == 1 and stats.maximum == 5

    def test_empty_rejected(self):
        with pytest.raises(CharacterizationError):
            BoxStats.from_values([])

    def test_row_renders(self):
        assert "med=" in BoxStats.from_values([1.0, 2.0]).row()


class TestTables:
    def test_table1_lists_all_modules_and_388_chips(self):
        text = render_table1()
        assert "Total chips: 388" in text
        for module_id in ("H0", "M6", "S13"):
            assert module_id in text

    def test_table3_published_values(self):
        text = render_table3()
        assert "No bitflips" in text  # module H0
        assert "0 (retention)" in text  # red cells
        assert "7.8K" in text  # S6 nominal

    def test_table4_renders_na_cells(self):
        text = render_table4()
        assert "N/A" in text
        assert "374" in text  # S6 at 0.36 t_FCRI

    def test_formula_check_mostly_clean(self):
        # 28 of 30 modules match within 10 %; the two H outliers are the
        # paper's single-significant-digit printed values (1 ms / 2 ms).
        mismatches = table4_formula_check(tolerance=0.10)
        assert len(mismatches) <= 2
        assert all(m.startswith(("H2", "H3")) for m in mismatches)


class TestRunner:
    def test_best_factors(self):
        # §9.2 obs. 5: best-observed latencies per vendor.
        assert PACRAM_BEST_FACTORS == {"H": 0.36, "M": 0.18, "S": 0.45}

    def test_evaluated_nrh_values(self):
        assert EVALUATED_NRH_VALUES == (1024, 512, 256, 128, 64, 32)

    def test_reference_configs_resolve(self):
        for vendor in "HMS":
            config = pacram_reference_config(vendor)
            assert config.module_id in ("H5", "M2", "S6")

    def test_unknown_vendor_rejected(self):
        with pytest.raises(ConfigError):
            pacram_reference_config("X")

    def test_run_simulation_smoke(self):
        result = run_simulation(("spec06.gcc",), mitigation="PARA",
                                nrh=256, requests=800)
        assert result.mean_ipc > 0

    def test_run_simulation_with_pacram(self):
        pacram = pacram_reference_config("H")
        result = run_simulation(("spec06.gcc",), mitigation="PARA", nrh=64,
                                pacram=pacram, requests=800)
        assert result.controller_stats.preventive_refresh_partial > 0 or \
            result.controller_stats.preventive_refresh_rows == 0


class TestExperimentRegistry:
    def test_covers_every_table_and_figure(self):
        expected = {"table1", "table3", "table4", "fig3", "fig4", "fig6",
                    "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
                    "fig13", "fig14", "fig16", "fig17+18", "fig19",
                    "area", "profiling"}
        assert set(experiment_ids()) == expected

    def test_descriptions_nonempty(self):
        for experiment in EXPERIMENTS.values():
            assert experiment.description

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment("fig99")

    def test_cheap_experiments_run(self):
        assert "388" in run_experiment("table1")
        area = run_experiment("area")
        assert area["xeon_fraction"] == pytest.approx(0.0009, rel=0.05)
        cost = run_experiment("profiling")
        assert cost.bank_minutes == pytest.approx(68.8, abs=0.1)

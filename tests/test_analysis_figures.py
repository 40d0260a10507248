"""Unit tests for the figure data builders (fast configurations)."""

import pytest

from repro.analysis.figures import (
    MITIGATIONS,
    fig4_inflection,
    fig4_motivation,
    fig8_sensitive_fraction,
    fig10_temperature,
    fig12_npr_scaling,
    fig14_retention,
    fig16_latency_sweep,
    fig19_periodic,
)
from repro.errors import ConfigError
from repro.units import MS


class TestFig4:
    def test_curve_definitions(self):
        data = fig4_motivation(("S6",))
        curves = data["S6"]
        # Latency is (f*tRAS + tRP) / (tRAS + tRP): at f=1 it is 1.
        assert curves["latency"][1.00] == pytest.approx(1.0)
        assert curves["latency"][0.36] == pytest.approx(
            (0.36 * 33 + 15) / 48, rel=0.01)
        # Count = 1 / N_RH ratio; time = count x latency; energy = count x time.
        for factor, ratio in curves["nrh"].items():
            if ratio > 0:
                count = curves["count"][factor]
                assert count == pytest.approx(1.0 / ratio)
                assert curves["time"][factor] == pytest.approx(
                    count * curves["latency"][factor])
                assert curves["energy"][factor] == pytest.approx(
                    count * curves["time"][factor])

    def test_retention_fail_factors_excluded_from_costs(self):
        curves = fig4_motivation(("S6",))["S6"]
        assert 0.18 not in curves["count"]  # N_RH = 0 there

    def test_inflection_below_nominal(self):
        curves = fig4_motivation(("S6",))["S6"]
        factor, value = fig4_inflection(curves, "time")
        assert factor < 1.0
        assert value < curves["time"][1.00]

    def test_invulnerable_module_rejected(self):
        with pytest.raises(ConfigError):
            fig4_motivation(("H0",))


class TestFig8Fraction:
    def test_counts_below_threshold(self):
        points = [(10_000, 0.9), (12_000, 0.7), (15_000, 0.5)]
        assert fig8_sensitive_fraction(points) == pytest.approx(2 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            fig8_sensitive_fraction([])


class TestFig10:
    def test_pools_every_module_of_a_vendor(self):
        kw = dict(temperatures_c=(50.0, 80.0), tras_factors=(1.00, 0.18),
                  per_region=4)
        pooled = fig10_temperature(("H5", "H7"), **kw)["H"]
        h7_alone = fig10_temperature(("H7",), **kw)["H"]
        assert set(pooled) == {50.0, 80.0}
        # H7 alone reads min=0.389 med=0.617: the last module must not
        # set the vendor's box.
        assert pooled[50.0][0.18] != h7_alone[50.0][0.18]
        assert pooled[50.0][0.18].row().startswith(
            "min=0.000 q1=0.595 med=0.646 ")


class TestFig12:
    def test_structure_and_boundary(self):
        data = fig12_npr_scaling(("S6",), n_prs=(1, 2_500), per_region=4)
        assert set(data) == {"S6"}
        assert data["S6"][1] > 0
        assert data["S6"][2_500] == 0


class TestFig14:
    def test_all_points_present(self):
        data = fig14_retention(("M2",), tras_factors=(1.0, 0.27))
        series = data["M2"]
        assert (0.27, 10, 256 * MS) in series
        assert all(0.0 <= v <= 1.0 for v in series.values())


class TestFig16:
    def test_skips_na_operating_points(self):
        # Vendor S has no 0.18 operating point (Table 4 N/A): the series
        # simply omits the factor instead of crashing.
        data = fig16_latency_sweep(
            mitigations=("Graphene",), vendors=("S",), nrh_values=(128,),
            tras_factors=(0.45, 0.18), workloads=("spec06.gcc",),
            requests=400)
        series = data[("Graphene", "S", 128)]
        assert 0.45 in series
        assert 0.18 not in series


class TestFig19:
    def test_structure(self):
        data = fig19_periodic(densities_gbit=(8,),
                              latency_factors=(1.0, 0.36), requests=400)
        metrics = data[8][0.36]
        assert set(metrics) == {"performance", "energy"}
        assert metrics["performance"] > 0


class TestConstants:
    def test_five_mitigations(self):
        assert MITIGATIONS == ("PARA", "RFM", "PRAC", "Hydra", "Graphene")

"""Tests for the RowPress disturbance extension."""

import pytest

from repro.dram.disturbance import HammerDose
from repro.dram.rowpress import (
    MIN_ON_TIME_NS,
    equivalent_nrh,
    press_amplification,
)
from repro.errors import ConfigError
from repro.units import US


class TestPressAmplification:
    def test_minimum_on_time_is_plain_hammering(self):
        assert press_amplification(MIN_ON_TIME_NS) == pytest.approx(1.0)

    def test_monotone_in_on_time(self):
        values = [press_amplification(t)
                  for t in (36.0, 360.0, 3_600.0, 7_800.0, 36_000.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_trefi_on_time_order_of_magnitude(self):
        # RowPress headline: one-tREFI on-time cuts the needed activation
        # count by roughly 10x.
        assert press_amplification(7_800.0) == pytest.approx(10.0, rel=0.15)

    def test_clamped_below_minimum(self):
        assert press_amplification(1.0) == press_amplification(MIN_ON_TIME_NS)

    def test_invalid_rejected(self):
        with pytest.raises(ConfigError):
            press_amplification(0.0)


class TestCombinedPattern:
    def test_equivalent_nrh_sub_1k(self):
        # §2.2: combined patterns make mitigations face sub-1K thresholds.
        assert equivalent_nrh(8_000, 7_800.0) < 1_000

    def test_combined_flips_below_pure_threshold(self, host_s6):
        # A pressed pattern flips a row at an activation count far below
        # its pure-hammer N_RH.
        population = host_s6.module.row_population(0, 500)
        pattern_obj = population.worst_case_pattern()
        nrh = population.effective_nrh(pattern=pattern_obj)
        # Both aggressors, each activation held open for 2 us.
        activations = int(nrh // 5)
        dose = HammerDose(
            near=2.0 * activations * press_amplification(2 * US))
        flips = population.hammer_flips(dose, pattern=pattern_obj)
        assert flips > 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            equivalent_nrh(0, 100.0)

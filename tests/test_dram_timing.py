"""Tests for DRAM timing parameters."""

import pytest

from repro.dram.timing import (
    TESTED_TRAS_FACTORS,
    TESTED_TRAS_NS,
    TimingParams,
    ddr4_timing,
    ddr5_timing,
)
from repro.errors import ConfigError


class TestDDR4:
    def test_nominal_tras_is_33ns(self):
        assert ddr4_timing().tRAS == 33.0

    def test_trc_is_48ns(self):
        # Table 4's t_FCRI values are computed with tRC = 48 ns.
        assert ddr4_timing().tRC == 48.0

    def test_refresh_window_64ms(self):
        assert ddr4_timing().tREFW == 64e6

    def test_refresh_interval_7_8us(self):
        assert ddr4_timing().tREFI == 7800.0


class TestDDR5:
    def test_refresh_window_32ms(self):
        assert ddr5_timing().tREFW == 32e6

    def test_refresh_interval_3_9us(self):
        assert ddr5_timing().tREFI == 3900.0

    def test_trfc_195ns(self):
        assert ddr5_timing().tRFC == 195.0


class TestTestedLatencies:
    def test_factors_match_absolute_values(self):
        nominal = ddr4_timing().tRAS
        for factor, ns in zip(TESTED_TRAS_FACTORS, TESTED_TRAS_NS):
            assert factor * nominal == pytest.approx(ns, abs=0.35)

    def test_seven_points(self):
        assert len(TESTED_TRAS_FACTORS) == 7
        assert TESTED_TRAS_FACTORS[0] == 1.00
        assert TESTED_TRAS_FACTORS[-1] == 0.18


class TestValidation:
    def test_negative_timing_rejected(self):
        with pytest.raises(ConfigError):
            TimingParams(standard="X", tRAS=-1, tRP=15, tRCD=14, tCL=14,
                         tWR=15, tRFC=350, tREFI=7800, tREFW=64e6,
                         tBL=3.3, tCCD=5, tRRD=5, tFAW=21)

    def test_trefi_must_be_below_trefw(self):
        with pytest.raises(ConfigError):
            TimingParams(standard="X", tRAS=33, tRP=15, tRCD=14, tCL=14,
                         tWR=15, tRFC=350, tREFI=64e6, tREFW=64e6,
                         tBL=3.3, tCCD=5, tRRD=5, tFAW=21)

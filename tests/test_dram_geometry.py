"""Tests for module geometry."""

import pytest

from repro.dram.geometry import ModuleGeometry, geometry_for_density
from repro.errors import ConfigError


class TestModuleGeometry:
    def test_defaults_consistent(self):
        geometry = ModuleGeometry()
        assert geometry.total_banks == 16

    def test_valid_row_bounds(self):
        geometry = ModuleGeometry()
        assert geometry.valid_row(0, 0)
        assert geometry.valid_row(15, 65_535)
        assert not geometry.valid_row(16, 0)
        assert not geometry.valid_row(0, 65_536)
        assert not geometry.valid_row(-1, 0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigError):
            ModuleGeometry(rows_per_bank=0)


class TestGeometryForDensity:
    def test_8gb_reference(self):
        geometry = geometry_for_density(8)
        assert geometry.rows_per_bank == 65_536

    def test_rows_scale_with_density(self):
        assert geometry_for_density(16).rows_per_bank == 2 * 65_536
        assert geometry_for_density(4).rows_per_bank == 65_536 // 2

    def test_appendix_b_densities(self):
        # The Fig. 19 sweep goes up to 512 Gb chips.
        geometry = geometry_for_density(512)
        assert geometry.rows_per_bank == 64 * 65_536

    def test_invalid_density_rejected(self):
        with pytest.raises(ConfigError):
            geometry_for_density(0)

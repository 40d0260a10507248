"""Tests for system config and MOP address mapping."""

import pytest

from repro.errors import ConfigError
from repro.sim.addrmap import AddressMapper
from repro.sim.config import SystemConfig


class TestSystemConfig:
    def test_table2_defaults(self):
        config = SystemConfig()
        assert config.core_clock_ghz == 3.2
        assert config.issue_width == 4
        assert config.instruction_window == 128
        assert config.channels == 1
        assert config.ranks == 2
        assert config.bank_groups == 8
        assert config.banks_per_group == 2
        assert config.rows_per_bank == 65_536
        assert config.read_queue_depth == 64

    def test_derived_counts(self):
        config = SystemConfig()
        assert config.banks_per_rank == 16
        assert config.total_banks == 32
        assert config.row_bytes == 8192

    def test_core_cycle(self):
        assert SystemConfig().core_cycle_ns == pytest.approx(1 / 3.2)

    def test_validation(self):
        with pytest.raises(ConfigError):
            SystemConfig(num_cores=0)
        with pytest.raises(ConfigError):
            SystemConfig(write_low_watermark=0.9, write_high_watermark=0.5)


class TestAddressMapper:
    def test_round_trip(self):
        mapper = AddressMapper(SystemConfig())
        for address in (0, 1, 17, 4095, 123_456_789):
            decoded = mapper.decode(address)
            assert mapper.encode(decoded) == address % mapper.total_lines

    def test_bijective_over_a_window(self):
        mapper = AddressMapper(SystemConfig())
        decoded = {tuple(vars(mapper.decode(a)).values()) for a in range(4096)}
        assert len(decoded) == 4096

    def test_mop_run_stays_in_row(self):
        # Four consecutive lines share channel/rank/bank/row (MOP run).
        mapper = AddressMapper(SystemConfig())
        first = mapper.decode(0)
        for offset in range(1, 4):
            other = mapper.decode(offset)
            assert other.row == first.row
            assert other.bank == first.bank
            assert other.bank_group == first.bank_group

    def test_next_run_changes_bank(self):
        mapper = AddressMapper(SystemConfig())
        assert mapper.decode(4).bank != mapper.decode(0).bank or \
            mapper.decode(4).bank_group != mapper.decode(0).bank_group

    def test_coordinates_in_range(self):
        config = SystemConfig()
        mapper = AddressMapper(config)
        for address in range(0, 100_000, 997):
            d = mapper.decode(address)
            assert 0 <= d.channel < config.channels
            assert 0 <= d.rank < config.ranks
            assert 0 <= d.bank_group < config.bank_groups
            assert 0 <= d.bank < config.banks_per_group
            assert 0 <= d.row < config.rows_per_bank
            assert 0 <= d.column < config.columns_per_row

    def test_wraps_modulo_capacity(self):
        mapper = AddressMapper(SystemConfig())
        total = mapper.total_lines
        assert mapper.decode(total + 5) == mapper.decode(5)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigError):
            AddressMapper(SystemConfig(bank_groups=3, banks_per_group=2))

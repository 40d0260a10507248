"""Tests for the FR bit vector and the PaCRAM refresh-latency policy."""

import tracemalloc

import pytest

from repro.analysis.runner import pacram_reference_config
from repro.core.config import PaCRAMConfig
from repro.core.fr_bitvector import FRBitVector
from repro.core.pacram import PaCRAM
from repro.errors import ConfigError
from repro.sim.config import SystemConfig


class TestFRBitVector:
    def test_all_rows_start_in_f_state(self):
        fr = FRBitVector(4, 128)
        assert all(fr.needs_full_restoration(bank, row)
                   for bank in range(4) for row in range(128))

    def test_full_restoration_moves_to_p(self):
        fr = FRBitVector(4, 128)
        fr.mark_fully_restored(2, 50)
        assert not fr.needs_full_restoration(2, 50)
        assert fr.needs_full_restoration(2, 51)

    def test_reset_pulls_all_to_f(self):
        fr = FRBitVector(2, 64)
        for row in range(64):
            fr.mark_fully_restored(0, row)
        fr.reset_all()
        assert all(fr.needs_full_restoration(0, row) for row in range(64))

    def test_storage_one_bit_per_row(self):
        # §8.4: 8 KB per 64K-row bank.
        fr = FRBitVector(1, 65_536)
        assert fr.storage_bits == 65_536
        assert fr.storage_bits // 8 == 8192

    def test_bounds_checked(self):
        fr = FRBitVector(2, 64)
        with pytest.raises(ConfigError):
            fr.needs_full_restoration(2, 0)
        with pytest.raises(ConfigError):
            fr.mark_fully_restored(0, 64)

    @pytest.mark.parametrize("policy_class", [PaCRAM])
    def test_policy_allocates_no_dense_vector(self, policy_class):
        # The dense 32 x 65,536 bool array cost 2 MiB per PaCRAM run.
        config = SystemConfig()
        pacram_config = pacram_reference_config("H")
        tracemalloc.start()
        try:
            policy = policy_class(config, pacram_config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert policy.fr.storage_bits == 32 * 65_536
        assert peak < 64 * 1024


def make_policy(module_id: str, factor: float) -> tuple[PaCRAM, SystemConfig]:
    config = SystemConfig(num_cores=1)
    pacram_config = PaCRAMConfig.from_catalog(module_id, factor)
    return PaCRAM(config, pacram_config), config


class TestPaCRAMPolicy:
    def test_footnote6_all_partial(self):
        # H5 at 0.36: t_FCRI (7.3 s) >> tREFW (32 ms) -> always partial.
        policy, config = make_policy("H5", 0.36)
        for row in (10, 10, 20, 30):
            tras, full = policy.preventive_tras_ns(0, row, 0.0)
            assert not full
            assert tras == pytest.approx(config.timing.tRAS * 0.36)
        assert policy.full_refreshes == 0

    def test_first_refresh_full_then_partial(self):
        # S6 at 0.36: t_FCRI 374 ms > DDR5 tREFW 32 ms... also always
        # partial.  Force the per-row path with a short-t_FCRI config.
        config = SystemConfig(num_cores=1)
        pacram_config = PaCRAMConfig(
            module_id="S6", tras_factor=0.36, nrh_reduction_ratio=0.5,
            nrh_reduced=3_900, npcr=2, tfcri_ns=1e6)  # 1 ms < tREFW
        policy = PaCRAM(config, pacram_config)
        tras1, full1 = policy.preventive_tras_ns(0, 77, 0.0)
        tras2, full2 = policy.preventive_tras_ns(0, 77, 10.0)
        _, full_other_row = policy.preventive_tras_ns(0, 78, 20.0)
        assert full1 and not full2
        assert full_other_row  # each row owes its own first full restore
        assert tras1 == config.timing.tRAS
        assert tras2 == pytest.approx(config.timing.tRAS * 0.36)

    def test_tfcri_reset_forces_full_again(self):
        config = SystemConfig(num_cores=1)
        pacram_config = PaCRAMConfig(
            module_id="S6", tras_factor=0.36, nrh_reduction_ratio=0.5,
            nrh_reduced=3_900, npcr=2, tfcri_ns=1e6)
        policy = PaCRAM(config, pacram_config)
        policy.preventive_tras_ns(0, 77, 0.0)          # full
        policy.preventive_tras_ns(0, 77, 10.0)         # partial
        _, full = policy.preventive_tras_ns(0, 77, 2e6)  # past t_FCRI
        assert full

    def test_bank_granular_for_in_dram_victims(self):
        config = SystemConfig(num_cores=1)
        pacram_config = PaCRAMConfig(
            module_id="S6", tras_factor=0.36, nrh_reduction_ratio=0.5,
            nrh_reduced=3_900, npcr=2, tfcri_ns=1e6)
        policy = PaCRAM(config, pacram_config)
        _, full_first = policy.preventive_tras_ns(5, -1, 0.0)
        _, full_second = policy.preventive_tras_ns(5, -1, 1.0)
        assert full_first and not full_second

    def test_periodic_refreshes_unaffected(self):
        # Footnote 5: PaCRAM does not touch periodic refresh latency.
        policy, _ = make_policy("H5", 0.36)
        assert policy.periodic_refresh_scale() == 1.0

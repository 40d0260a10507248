"""Tests for §8.5 on-die PaCRAM, §10 SPD configs, and online profiling."""

import struct

import pytest

from repro.core.config import PaCRAMConfig
from repro.core.ondie import ModeRegister, OnDiePaCRAM
from repro.core.online_profiling import OnlineProfiler
from repro.core.spd import SpdEntry, SpdRecord, crc16
from repro.errors import ConfigError
from repro.sim.config import SystemConfig


def with_valid_crc(payload: bytes) -> bytes:
    """An SPD blob whose checksum matches ``payload``, however malformed."""
    return payload + struct.pack("<H", crc16(payload))


def short_tfcri_config() -> PaCRAMConfig:
    """A config whose t_FCRI is below tREFW, exercising the F/P machinery."""
    return PaCRAMConfig(module_id="S6", tras_factor=0.36,
                        nrh_reduction_ratio=0.5, nrh_reduced=3_900,
                        npcr=2, tfcri_ns=1e6)


class TestModeRegister:
    def test_starts_nominal(self):
        register = ModeRegister(32.0)
        assert register.current_tras_ns == 32.0
        assert register.writes == 0

    def test_counts_only_real_writes(self):
        register = ModeRegister(32.0)
        register.program(12.0)
        register.program(12.0)  # no-op
        register.program(32.0)
        assert register.writes == 2

    def test_rejects_out_of_range(self):
        register = ModeRegister(32.0)
        with pytest.raises(ConfigError):
            register.program(40.0)
        with pytest.raises(ConfigError):
            register.program(0.0)


class TestOnDiePaCRAM:
    def test_bank_granular_f_p(self):
        config = SystemConfig(num_cores=1)
        policy = OnDiePaCRAM(config, short_tfcri_config())
        _, full_first = policy.preventive_tras_ns(3, -1, 0.0)
        _, full_second = policy.preventive_tras_ns(3, -1, 1.0)
        assert full_first and not full_second

    def test_known_rows_stay_bank_granular(self):
        # The chip picks the victims: a row the controller names is
        # tracked no finer than its bank.
        config = SystemConfig(num_cores=1)
        policy = OnDiePaCRAM(config, short_tfcri_config())
        _, full_first = policy.preventive_tras_ns(3, 10, 0.0)
        _, full_other_row = policy.preventive_tras_ns(3, 11, 1.0)
        assert full_first and not full_other_row

    def test_mode_register_traffic_counted(self):
        config = SystemConfig(num_cores=1)
        policy = OnDiePaCRAM(config, short_tfcri_config())
        policy.preventive_tras_ns(0, -1, 0.0)  # full (MR -> nominal no-op?)
        policy.preventive_tras_ns(0, -1, 1.0)  # partial (MR -> reduced)
        policy.preventive_tras_ns(0, -1, 2.0)  # partial (no-op)
        assert policy.mode_register_writes() >= 1

    def test_tfcri_reset(self):
        config = SystemConfig(num_cores=1)
        policy = OnDiePaCRAM(config, short_tfcri_config())
        policy.preventive_tras_ns(0, -1, 0.0)
        policy.preventive_tras_ns(0, -1, 1.0)
        _, full = policy.preventive_tras_ns(0, -1, 2e6)
        assert full


class TestSpdRecord:
    def test_round_trip(self):
        record = SpdRecord.from_catalog("S6")
        decoded = SpdRecord.decode(record.encode())
        assert decoded == record

    def test_catalog_record_matches_table4(self):
        record = SpdRecord.from_catalog("S6")
        by_factor = {e.tras_factor: e for e in record.entries}
        assert by_factor[0.36].nrh == 3_900
        assert by_factor[0.36].npcr == 2_000
        assert 0.18 not in by_factor  # N/A cell not stored

    def test_boot_path_builds_config(self):
        record = SpdRecord.from_catalog("S6")
        config = record.to_pacram_config(0.36)
        reference = PaCRAMConfig.from_catalog("S6", 0.36)
        assert config == reference

    def test_corruption_detected(self):
        blob = bytearray(SpdRecord.from_catalog("H5").encode())
        blob[10] ^= 0xFF
        with pytest.raises(ConfigError, match="checksum"):
            SpdRecord.decode(bytes(blob))

    def test_truncation_detected(self):
        blob = SpdRecord.from_catalog("H5").encode()
        with pytest.raises(ConfigError):
            SpdRecord.decode(blob[:4])

    @pytest.mark.parametrize("malform", [
        # The entry count (header byte 5) claims one entry too many.
        lambda p: p[:5] + bytes([p[5] + 1]) + p[6:],
        # The module id (header bytes 6..15) is not ASCII.
        lambda p: p[:6] + b"\xff" * 10 + p[16:],
        # Bytes follow the declared entries.
        lambda p: p + b"\0" * 10,
    ], ids=["count-exceeds-entries", "non-ascii-id", "trailing-bytes"])
    def test_malformed_blob_with_valid_crc_refused(self, malform):
        payload = SpdRecord.from_catalog("H5").encode()[:-2]
        with pytest.raises(ConfigError):
            SpdRecord.decode(with_valid_crc(malform(payload)))

    def test_unknown_operating_point_rejected(self):
        record = SpdRecord.from_catalog("S6")
        with pytest.raises(ConfigError):
            record.to_pacram_config(0.18)

    def test_crc16_known_vector(self):
        # CRC-16/XMODEM("123456789") = 0x31C3.
        assert crc16(b"123456789") == 0x31C3

    def test_entry_validation(self):
        with pytest.raises(ConfigError):
            SpdEntry(1.5, 100, 1)
        with pytest.raises(ConfigError):
            SpdEntry(0.5, 0, 1)


class TestOnlineProfiler:
    def test_batch_count_and_progress(self):
        profiler = OnlineProfiler()
        assert profiler.total_batches == 52  # ceil(65536 / 1270)
        assert profiler.progress == 0.0
        assert profiler.remaining_minutes() == pytest.approx(69.3, abs=0.5)

    def test_full_campaign(self):
        profiler = OnlineProfiler(rows_per_bank=4_000, rows_per_batch=1_270)
        covered = 0
        while not profiler.done:
            batch = profiler.next_batch()
            assert batch.blocked_bytes <= 1_270 * 8192
            covered += batch.row_count
            profiler.complete_batch(batch)
        assert covered == 4_000
        assert profiler.progress == 1.0

    def test_single_batch_in_flight(self):
        profiler = OnlineProfiler()
        profiler.next_batch()
        with pytest.raises(ConfigError):
            profiler.next_batch()

    def test_done_refuses_more(self):
        profiler = OnlineProfiler(rows_per_bank=100, rows_per_batch=100)
        batch = profiler.next_batch()
        profiler.complete_batch(batch)
        with pytest.raises(ConfigError):
            profiler.next_batch()

"""SPD-embedded PaCRAM configuration (§10).

One of the paper's three profiling-deployment paths: the DRAM vendor
profiles modules at manufacturing time and embeds the PaCRAM parameters in
the module's Serial Presence Detect (SPD) EEPROM; at boot the memory
controller reads them back and configures PaCRAM with no online profiling.

This module defines that SPD record: a compact, checksummed binary blob
holding the per-latency operating points (reduced ``N_RH``, ``N_PCR``) for
one module, with encode/decode round-tripping.  The layout follows the SPD
convention of fixed-width little-endian fields plus a CRC-16 over the
payload (JESD 21-C Annex style).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.core.config import PaCRAMConfig, full_charge_restoration_interval_ns
from repro.dram.catalog import PACRAM_TRAS_FACTORS, module_spec
from repro.dram.timing import ddr4_timing
from repro.errors import ConfigError

_MAGIC = b"PaCR"
_VERSION = 1
_HEADER = struct.Struct("<4sBB10s")  # magic, version, entries, module id
_ENTRY = struct.Struct("<HII")  # tras factor (x1000), nrh, npcr


def crc16(payload: bytes) -> int:
    """CRC-16/XMODEM as used by SPD blocks."""
    crc = 0
    for byte in payload:
        crc ^= byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 0x1021) if crc & 0x8000 else (crc << 1)
            crc &= 0xFFFF
    return crc


@dataclass(frozen=True)
class SpdEntry:
    """One (latency, N_RH, N_PCR) operating point stored in SPD."""

    tras_factor: float
    nrh: int
    npcr: int

    def __post_init__(self) -> None:
        if not 0.0 < self.tras_factor <= 1.0:
            raise ConfigError("tras factor out of range")
        if self.nrh <= 0 or self.npcr <= 0:
            raise ConfigError("N_RH and N_PCR must be positive")


@dataclass(frozen=True)
class SpdRecord:
    """The full PaCRAM SPD record for one module."""

    module_id: str
    entries: tuple[SpdEntry, ...]

    def __post_init__(self) -> None:
        if not self.module_id or len(self.module_id) > 10:
            raise ConfigError("module id must be 1..10 characters")
        if not self.entries:
            raise ConfigError("record needs at least one operating point")

    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        """Serialize to the checksummed SPD blob."""
        payload = _HEADER.pack(_MAGIC, _VERSION, len(self.entries),
                               self.module_id.encode("ascii").ljust(10, b"\0"))
        for entry in self.entries:
            payload += _ENTRY.pack(round(entry.tras_factor * 1000),
                                   entry.nrh, entry.npcr)
        return payload + struct.pack("<H", crc16(payload))

    @classmethod
    def decode(cls, blob: bytes) -> "SpdRecord":
        """Parse and verify an SPD blob; any malformed blob is a
        :class:`~repro.errors.ConfigError`."""
        if len(blob) < _HEADER.size + 2:
            raise ConfigError("SPD blob truncated")
        payload, checksum = blob[:-2], struct.unpack("<H", blob[-2:])[0]
        if crc16(payload) != checksum:
            raise ConfigError("SPD checksum mismatch (corrupted EEPROM?)")
        magic, version, count, raw_id = _HEADER.unpack_from(payload)
        if magic != _MAGIC:
            raise ConfigError("not a PaCRAM SPD record")
        if version != _VERSION:
            raise ConfigError(f"unsupported SPD record version {version}")
        if len(payload) != _HEADER.size + count * _ENTRY.size:
            raise ConfigError(
                f"SPD record declares {count} entries in "
                f"{len(payload) - _HEADER.size} bytes of entries")
        try:
            module_id = raw_id.rstrip(b"\0").decode("ascii")
        except UnicodeDecodeError:
            raise ConfigError("SPD module id is not ASCII") from None
        entries = []
        offset = _HEADER.size
        for _ in range(count):
            factor_milli, nrh, npcr = _ENTRY.unpack_from(payload, offset)
            offset += _ENTRY.size
            entries.append(SpdEntry(factor_milli / 1000.0, nrh, npcr))
        return cls(module_id=module_id, entries=tuple(entries))

    # ------------------------------------------------------------------
    @classmethod
    def from_catalog(cls, module_id: str) -> "SpdRecord":
        """What the vendor would burn into SPD at manufacturing time."""
        spec = module_spec(module_id)
        entries = []
        for factor in PACRAM_TRAS_FACTORS:
            params = spec.pacram[factor]
            if params is not None:
                entries.append(SpdEntry(factor, params.nrh, params.npcr))
        if not entries:
            raise ConfigError(
                f"module {module_id} has no PaCRAM-applicable latency")
        return cls(module_id=spec.module_id, entries=tuple(entries))

    def to_pacram_config(self, tras_factor: float) -> PaCRAMConfig:
        """What the memory controller builds at boot from the SPD data."""
        spec = module_spec(self.module_id)
        nominal = spec.nominal_nrh
        if nominal is None:
            raise ConfigError(f"module {self.module_id} has no N_RH baseline")
        for entry in self.entries:
            if abs(entry.tras_factor - tras_factor) < 1e-9:
                timing = ddr4_timing()
                tfcri = full_charge_restoration_interval_ns(
                    entry.nrh, tras_factor * timing.tRAS, entry.npcr, timing)
                return PaCRAMConfig(
                    module_id=self.module_id, tras_factor=tras_factor,
                    nrh_reduction_ratio=entry.nrh / nominal,
                    nrh_reduced=entry.nrh, npcr=entry.npcr, tfcri_ns=tfcri)
        raise ConfigError(
            f"SPD record has no operating point at {tras_factor} x tRAS")

"""On-DRAM-die PaCRAM (§8.5).

When the RowHammer mitigation lives inside the DRAM chip (PRAC, and the
broader on-die TRR family), the memory controller cannot see which victim
rows a preventive refresh touches.  §8.5 describes two integration paths:

1. **Mode-register (MR) signaling** — PaCRAM, still in the controller,
   decides whether the *next* managed refresh may be partial and programs
   the latency into a mode register; the chip uses that latency when it
   services the RFM.
2. **Self-Managing DRAM** — the chip performs maintenance autonomously, so
   PaCRAM (FR vector and all) moves entirely on-die, with no interface or
   controller changes.

Both are modeled here as refresh-latency policies, so they drop into the
same simulator slot as the baseline controller-side PaCRAM.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import PaCRAMConfig
from repro.core.fr_bitvector import FRBitVector
from repro.errors import ConfigError
from repro.sim.config import SystemConfig
from repro.sim.controller import RefreshLatencyPolicy


@dataclass
class ModeRegister:
    """The refresh-latency mode register of one DRAM rank (§8.5).

    Holds the charge-restoration latency the chip applies to the *next*
    managed (preventive) refresh.  Writing the MR costs a command-bus
    transaction, which the policy counts.
    """

    nominal_tras_ns: float
    current_tras_ns: float = field(init=False)
    writes: int = 0

    def __post_init__(self) -> None:
        if self.nominal_tras_ns <= 0:
            raise ConfigError("nominal tRAS must be positive")
        self.current_tras_ns = self.nominal_tras_ns

    def program(self, tras_ns: float) -> None:
        """Write the MR (no-op writes are filtered by the controller)."""
        if tras_ns <= 0 or tras_ns > self.nominal_tras_ns:
            raise ConfigError(f"MR latency {tras_ns} out of range")
        if tras_ns != self.current_tras_ns:
            self.current_tras_ns = tras_ns
            self.writes += 1


class OnDiePaCRAM(RefreshLatencyPolicy):
    """PaCRAM for in-DRAM mitigations via mode-register signaling (§8.5).

    The controller tracks F/P state at **bank** granularity (it cannot see
    rows the chip picks) and programs the rank's MR before each preventive
    refresh.  Semantically this matches the bank-granular fallback of the
    controller-side PaCRAM, but it also accounts the MR traffic.
    """

    def __init__(self, config: SystemConfig, pacram_config: PaCRAMConfig) -> None:
        super().__init__(config)
        self.pacram = pacram_config
        self.reduced_tras_ns = pacram_config.tras_factor * config.timing.tRAS
        self._mode_registers = [
            ModeRegister(config.timing.tRAS)
            for _ in range(config.channels * config.ranks)]
        self._bank_needs_full = set(range(config.total_banks))
        self._next_reset_ns = pacram_config.tfcri_ns
        self._always_partial = pacram_config.all_refreshes_partial(
            config.timing.tREFW)

    def preventive_tras_ns(self, flat_bank: int, row: int,
                           now_ns: float) -> tuple[float, bool]:
        self._maybe_reset(now_ns)
        register = self._register_of(flat_bank)
        if self._always_partial or flat_bank not in self._bank_needs_full:
            register.program(self.reduced_tras_ns)
            return self.reduced_tras_ns, False
        self._bank_needs_full.discard(flat_bank)
        register.program(self.config.timing.tRAS)
        return self.config.timing.tRAS, True

    def mode_register_writes(self) -> int:
        """Total MR transactions issued (the §8.5 interface cost)."""
        return sum(r.writes for r in self._mode_registers)

    def _register_of(self, flat_bank: int) -> ModeRegister:
        rank_index = flat_bank // self.config.banks_per_rank
        return self._mode_registers[rank_index]

    def _maybe_reset(self, now_ns: float) -> None:
        if now_ns < self._next_reset_ns:
            return
        self._bank_needs_full = set(range(self.config.total_banks))
        while self._next_reset_ns <= now_ns:
            self._next_reset_ns += self.pacram.tfcri_ns


class SelfManagingDRAMPaCRAM(RefreshLatencyPolicy):
    """PaCRAM inside a Self-Managing DRAM chip (§8.5).

    The chip holds the FR vector itself and needs *no* controller or
    interface support: full per-row granularity, zero MR traffic.  From the
    simulator's perspective it behaves like the controller-side PaCRAM, with
    no controller-side area.
    """

    def __init__(self, config: SystemConfig, pacram_config: PaCRAMConfig) -> None:
        super().__init__(config)
        self.pacram = pacram_config
        self.reduced_tras_ns = pacram_config.tras_factor * config.timing.tRAS
        self.fr = FRBitVector(config.total_banks, config.rows_per_bank)
        self._next_reset_ns = pacram_config.tfcri_ns
        self._always_partial = pacram_config.all_refreshes_partial(
            config.timing.tREFW)

    def preventive_tras_ns(self, flat_bank: int, row: int,
                           now_ns: float) -> tuple[float, bool]:
        self._maybe_reset(now_ns)
        if self._always_partial:
            return self.reduced_tras_ns, False
        # The chip always knows the victim row, even for RFM-internal
        # refreshes; model unknown-row requests (-1) against row 0's slot.
        tracked_row = row if row >= 0 else 0
        if self.fr.needs_full_restoration(flat_bank, tracked_row):
            self.fr.mark_fully_restored(flat_bank, tracked_row)
            return self.config.timing.tRAS, True
        return self.reduced_tras_ns, False

    def _maybe_reset(self, now_ns: float) -> None:
        if now_ns < self._next_reset_ns:
            return
        self.fr.reset_all()
        while self._next_reset_ns <= now_ns:
            self._next_reset_ns += self.pacram.tfcri_ns

"""On-DRAM-die PaCRAM (§8.5).

When the RowHammer mitigation lives inside the DRAM chip (PRAC, and the
broader on-die TRR family), the memory controller cannot see which victim
rows a preventive refresh touches.  §8.5 describes two integration paths:

1. **Mode-register (MR) signaling** — PaCRAM, still in the controller,
   decides whether the *next* managed refresh may be partial and programs
   the latency into a mode register; the chip uses that latency when it
   services the RFM.  Modeled here as :class:`OnDiePaCRAM`.
2. **Self-Managing DRAM** — the chip performs maintenance autonomously, so
   PaCRAM (FR vector and all) moves entirely on-die, with no interface or
   controller changes.  The chip then runs PaCRAM's own policy
   (:class:`repro.core.pacram.PaCRAM`), refresh for refresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import PaCRAMConfig
from repro.core.pacram import PaCRAM
from repro.errors import ConfigError
from repro.sim.config import SystemConfig


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


class OnDiePaCRAM(PaCRAM):
    """PaCRAM for in-DRAM mitigations via mode-register signaling (§8.5).

    The controller tracks F/P state at **bank** granularity (it cannot see
    rows the chip picks), so every refresh takes PaCRAM's bank-granular
    path, and it programs the rank's MR before each preventive refresh,
    which also accounts the MR traffic.
    """

    def __init__(self, config: SystemConfig, pacram_config: PaCRAMConfig) -> None:
        super().__init__(config, pacram_config)
        self._mode_registers = [
            ModeRegister(config.timing.tRAS)
            for _ in range(config.channels * config.ranks)]

    def preventive_tras_ns(self, flat_bank: int, row: int,
                           now_ns: float) -> tuple[float, bool]:
        tras_ns, full = super().preventive_tras_ns(flat_bank, -1, now_ns)
        rank = flat_bank // self.config.banks_per_rank
        self._mode_registers[rank].program(tras_ns)
        return tras_ns, full

    def mode_register_writes(self) -> int:
        """Total MR transactions issued (the §8.5 interface cost)."""
        return sum(r.writes for r in self._mode_registers)

"""The PaCRAM refresh-latency policy (§8.2, Fig. 15).

PaCRAM plugs into the memory controller next to an existing RowHammer
mitigation mechanism.  When the mechanism schedules a preventive refresh,
PaCRAM consults the FR bit vector: rows in F-state get a full-latency
refresh (and move to P-state); rows in P-state get the reduced latency.
Every ``t_FCRI`` the vector resets, pulling all rows back to F-state, which
bounds consecutive partial restorations at ``N_PCR`` (§8.3).

For preventive refreshes whose victim rows are resolved *inside* the DRAM
chip (RFM / PRAC back-off, §8.5) the controller cannot track per-row state;
PaCRAM then applies the same F/P discipline at bank granularity, mirroring
the mode-register mechanism the paper describes.
"""

from __future__ import annotations

from repro.core.config import PaCRAMConfig
from repro.core.fr_bitvector import FRBitVector
from repro.errors import ConfigError
from repro.sim.config import SystemConfig
from repro.sim.controller import RefreshLatencyPolicy


class PaCRAM(RefreshLatencyPolicy):
    """Partial Charge Restoration for Aggressive Mitigation."""

    def __init__(self, config: SystemConfig, pacram_config: PaCRAMConfig) -> None:
        super().__init__(config)
        self.pacram = pacram_config
        self.reduced_tras_ns = pacram_config.tras_factor * config.timing.tRAS
        if self.reduced_tras_ns <= 0:
            raise ConfigError("reduced tRAS must be positive")
        self.fr = FRBitVector(config.total_banks, config.rows_per_bank)
        self._next_reset_ns = pacram_config.tfcri_ns
        #: Banks that still owe a full-latency in-DRAM refresh this interval.
        self._bank_needs_full = set(range(config.total_banks))
        #: Footnote 6: t_FCRI beyond the refresh window means periodic
        #: refresh restores rows fully before N_PCR can accumulate.
        self._always_partial = pacram_config.all_refreshes_partial(
            config.timing.tREFW)
        self.full_refreshes = 0
        self.partial_refreshes = 0

    # ------------------------------------------------------------------
    # RefreshLatencyPolicy interface
    # ------------------------------------------------------------------
    def preventive_tras_ns(self, flat_bank: int, row: int,
                           now_ns: float) -> tuple[float, bool]:
        self._maybe_reset(now_ns)
        if self._always_partial:
            self.partial_refreshes += 1
            return self.reduced_tras_ns, False
        if row < 0:
            return self._bank_granular(flat_bank)
        if self.fr.needs_full_restoration(flat_bank, row):
            self.fr.mark_fully_restored(flat_bank, row)
            self.full_refreshes += 1
            return self.config.timing.tRAS, True
        self.partial_refreshes += 1
        return self.reduced_tras_ns, False

    def partial_restoration_limit(self) -> int | None:
        """PaCRAM's N_PCR bound on consecutive partial restorations (§8.3)."""
        return self.pacram.npcr

    # ------------------------------------------------------------------
    def _bank_granular(self, flat_bank: int) -> tuple[float, bool]:
        """F/P discipline for in-DRAM-resolved victims (RFM/PRAC, §8.5)."""
        if flat_bank in self._bank_needs_full:
            self._bank_needs_full.discard(flat_bank)
            self.full_refreshes += 1
            return self.config.timing.tRAS, True
        self.partial_refreshes += 1
        return self.reduced_tras_ns, False

    def _maybe_reset(self, now_ns: float) -> None:
        if now_ns < self._next_reset_ns:
            return
        self.fr.reset_all()
        self._bank_needs_full = set(range(self.config.total_banks))
        while self._next_reset_ns <= now_ns:
            self._next_reset_ns += self.pacram.tfcri_ns

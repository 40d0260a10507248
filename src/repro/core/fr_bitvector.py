"""The fully-restored (FR) bit vector (§8.3).

One bit per DRAM row: set (F-state) means the row's next preventive refresh
must use *full* charge restoration; clear (P-state) means partial
restoration is safe.  All rows start in F, a full restoration moves a row to
P, and PaCRAM periodically pulls every row back to F — once per
``t_FCRI`` — so no row ever receives more than ``N_PCR`` consecutive
partial restorations.
"""

from __future__ import annotations

from repro.errors import ConfigError


class FRBitVector:
    """Per-row F/P state for one DRAM module, as the SRAM array would hold it.

    The model stores only the rows in P-state: between two ``t_FCRI``
    resets a run fully restores a few rows out of millions, so a set of
    them answers every query that a dense bit array would, without
    allocating one.  :attr:`storage_bits` still reports the modeled SRAM.
    """

    def __init__(self, banks: int, rows_per_bank: int) -> None:
        if banks <= 0 or rows_per_bank <= 0:
            raise ConfigError("banks and rows_per_bank must be positive")
        self.banks = banks
        self.rows_per_bank = rows_per_bank
        #: (bank, row) pairs in P-state; every other row is in F-state.
        self._restored: set[tuple[int, int]] = set()

    def needs_full_restoration(self, bank: int, row: int) -> bool:
        """Whether the row is in F-state."""
        self._check(bank, row)
        return (bank, row) not in self._restored

    def mark_fully_restored(self, bank: int, row: int) -> None:
        """Full charge restoration performed: row moves to P-state."""
        self._check(bank, row)
        self._restored.add((bank, row))

    def reset_all(self) -> None:
        """Periodic t_FCRI reset: every row returns to F-state."""
        self._restored.clear()

    @property
    def storage_bits(self) -> int:
        """SRAM bits this vector occupies (one per row)."""
        return self.banks * self.rows_per_bank

    def _check(self, bank: int, row: int) -> None:
        if not (0 <= bank < self.banks and 0 <= row < self.rows_per_bank):
            raise ConfigError(f"(bank={bank}, row={row}) out of range")

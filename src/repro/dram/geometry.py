"""DRAM organization: channel / rank / chip / bank / row / column geometry."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class ModuleGeometry:
    """Physical organization of one DRAM module (rank granularity).

    The characterization platform addresses a single rank of a module; the
    system simulator composes several of these into channels.
    """

    ranks: int = 1
    banks_per_rank: int = 16
    rows_per_bank: int = 65_536
    columns_per_row: int = 1024

    def __post_init__(self) -> None:
        for name in ("ranks", "banks_per_rank", "rows_per_bank",
                     "columns_per_row"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")

    @property
    def total_banks(self) -> int:
        """Banks across all ranks."""
        return self.ranks * self.banks_per_rank

    def valid_row(self, bank: int, row: int) -> bool:
        """Whether ``(bank, row)`` addresses a row within this geometry."""
        return 0 <= bank < self.total_banks and 0 <= row < self.rows_per_bank


def geometry_for_density(die_density_gbit: int) -> ModuleGeometry:
    """Geometry for a single-rank module built from dies of a given density.

    Used to instantiate the catalog's modules (4 / 8 / 16 Gb dies) and the
    Appendix-B density sweep (up to 512 Gb).  Rows per bank scale with
    density; banks are fixed at 16 as in DDR4.
    """
    if die_density_gbit <= 0:
        raise ConfigError("die density must be positive")
    # An 8 Gb x8 die has 16 banks x 64K rows x 8 Kb per row per chip.
    rows = 65_536 * die_density_gbit // 8
    if rows <= 0:
        raise ConfigError(f"density {die_density_gbit} Gb too small to model")
    return ModuleGeometry(
        ranks=1,
        banks_per_rank=16,
        rows_per_bank=rows,
        columns_per_row=1024,
    )

"""Physical-address-to-DRAM-coordinate mapping.

The paper's controller uses MOP (Minimalist Open-Page) mapping: consecutive
cache lines map to a small run of columns in one row, then interleave across
channels, bank groups, banks, and ranks before advancing the row — giving
both row-buffer locality for short bursts and bank-level parallelism across
streams.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.sim.config import SystemConfig


@dataclass(frozen=True)
class DecodedAddress:
    """DRAM coordinates of one cache-line address."""

    channel: int
    rank: int
    bank_group: int
    bank: int
    row: int
    column: int


def _bits(value: int) -> int:
    """Number of bits needed to index ``value`` positions (value = 2^k)."""
    if value <= 0 or value & (value - 1):
        raise ConfigError(f"{value} must be a positive power of two")
    return value.bit_length() - 1


class AddressMapper:
    """MOP bit-sliced mapping between line addresses and DRAM coordinates.

    Line-address bit layout, LSB first::

        [col_low (mop run)] [channel] [bank] [bank_group] [rank] [col_high] [row]
    """

    MOP_RUN = 4  #: consecutive cache lines kept in the same row

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self._col_low_bits = _bits(self.MOP_RUN)
        self._channel_bits = _bits(config.channels)
        self._bank_bits = _bits(config.banks_per_group)
        self._group_bits = _bits(config.bank_groups)
        self._rank_bits = _bits(config.ranks)
        if config.columns_per_row < self.MOP_RUN:
            raise ConfigError("columns_per_row smaller than the MOP run")
        self._col_high_bits = _bits(config.columns_per_row // self.MOP_RUN)
        self._row_bits = _bits(config.rows_per_bank)

    @property
    def total_lines(self) -> int:
        """Number of distinct cache-line addresses in the address space."""
        return (self.config.capacity_bytes // self.config.cache_line_bytes)

    def decode(self, line_address: int) -> DecodedAddress:
        """DRAM coordinates of a cache-line address (wraps modulo capacity)."""
        value = line_address % self.total_lines
        value, col_low = divmod(value, 1 << self._col_low_bits)
        value, channel = divmod(value, 1 << self._channel_bits)
        value, bank = divmod(value, 1 << self._bank_bits)
        value, group = divmod(value, 1 << self._group_bits)
        value, rank = divmod(value, 1 << self._rank_bits)
        value, col_high = divmod(value, 1 << self._col_high_bits)
        row = value
        column = (col_high << self._col_low_bits) | col_low
        return DecodedAddress(channel=channel, rank=rank, bank_group=group,
                              bank=bank, row=row, column=column)

    def encode(self, decoded: DecodedAddress) -> int:
        """Inverse of :meth:`decode` (exact round trip)."""
        col_low = decoded.column & (self.MOP_RUN - 1)
        col_high = decoded.column >> self._col_low_bits
        value = decoded.row
        value = (value << self._col_high_bits) | col_high
        value = (value << self._rank_bits) | decoded.rank
        value = (value << self._group_bits) | decoded.bank_group
        value = (value << self._bank_bits) | decoded.bank
        value = (value << self._channel_bits) | decoded.channel
        value = (value << self._col_low_bits) | col_low
        return value

"""DRAM timing parameters (JEDEC-style), in nanoseconds.

The characterization side of the paper runs on DDR4 modules with a nominal
charge-restoration latency ``tRAS = 33 ns``; the system-evaluation side
simulates a DDR5 memory system.  Both presets live here.

A *preventive refresh* is functionally equivalent to opening and closing a
row, so its latency is ``tRAS + tRP`` (§3 of the paper), and an ``ACT``
following an ``ACT`` to the same bank needs ``tRC = tRAS + tRP``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

#: The reduced charge-restoration latencies tested by the paper, as
#: multipliers of the nominal tRAS (§9.1): 33, 27, 21, 15, 12, 9, 6 ns.
TESTED_TRAS_FACTORS: tuple[float, ...] = (1.00, 0.81, 0.64, 0.45, 0.36, 0.27, 0.18)

#: The corresponding absolute latencies in nanoseconds for DDR4.
TESTED_TRAS_NS: tuple[float, ...] = (33.0, 27.0, 21.0, 15.0, 12.0, 9.0, 6.0)


@dataclass(frozen=True)
class TimingParams:
    """A minimal set of DRAM timing parameters, all in nanoseconds.

    Attributes mirror the JEDEC names used in the paper's background section.
    """

    standard: str
    tRAS: float  #: ACT -> PRE minimum (charge-restoration latency).
    tRP: float  #: PRE -> ACT minimum (precharge latency).
    tRCD: float  #: ACT -> RD/WR minimum.
    tCL: float  #: RD -> first data.
    tWR: float  #: last write data -> PRE.
    tRFC: float  #: REF -> next command (refresh latency).
    tREFI: float  #: periodic refresh command interval.
    tREFW: float  #: refresh window (every row refreshed once per window).
    tBL: float  #: data burst duration on the bus.
    tCCD: float  #: column-to-column minimum (different bank groups, tCCD_S).
    tRRD: float  #: ACT-to-ACT, different banks.
    tFAW: float  #: four-activate window.
    tCCD_L: float = 0.0  #: column-to-column, same bank group (0 = 2 x tCCD).

    def __post_init__(self) -> None:
        for name in ("tRAS", "tRP", "tRCD", "tCL", "tWR", "tRFC",
                     "tREFI", "tREFW", "tBL", "tCCD", "tRRD", "tFAW"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.tREFI >= self.tREFW:
            raise ConfigError("tREFI must be smaller than tREFW")
        if self.tCCD_L == 0.0:
            object.__setattr__(self, "tCCD_L", 2.0 * self.tCCD)
        if self.tCCD_L < self.tCCD:
            raise ConfigError("tCCD_L cannot be shorter than tCCD (tCCD_S)")

    @property
    def tRC(self) -> float:
        """Row-cycle time: minimum ACT-to-ACT delay to the same bank."""
        return self.tRAS + self.tRP


def ddr4_timing() -> TimingParams:
    """DDR4 timing used for characterization (JESD79-4C flavored).

    ``tRAS = 33 ns`` is the paper's nominal charge-restoration latency and
    ``tRP = 15 ns`` makes ``tRC = 48 ns``, which is the row-cycle time the
    paper's Table 4 ``t_FCRI`` values are computed with (e.g. module S6 at
    ``0.27 tRAS``: ``3.9K x 48 ns = 187 us``).
    """
    return TimingParams(
        standard="DDR4",
        tRAS=33.0,
        tRP=15.0,
        tRCD=14.0,
        tCL=14.0,
        tWR=15.0,
        tRFC=350.0,  # 8 Gb DDR4 (paper §2.1)
        tREFI=7800.0,  # 7.8 us
        tREFW=64_000_000.0,  # 64 ms
        tBL=3.33,
        tCCD=5.0,
        tRRD=4.9,
        tFAW=21.0,
    )


def ddr5_timing() -> TimingParams:
    """DDR5 timing used for system evaluation (JESD79-5 flavored)."""
    return TimingParams(
        standard="DDR5",
        tRAS=32.0,
        tRP=14.0,
        tRCD=14.0,
        tCL=14.0,
        tWR=15.0,
        tRFC=195.0,  # 8 Gb DDR5 (paper §2.1)
        tREFI=3900.0,  # 3.9 us
        tREFW=32_000_000.0,  # 32 ms
        tBL=2.66,
        tCCD=2.5,
        tRRD=2.5,
        tFAW=10.0,
    )

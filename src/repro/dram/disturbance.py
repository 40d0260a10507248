"""Read-disturbance kernels: data patterns, blast radius, hammer doses.

RowHammer disturbance in the device model is *dose based*: every aggressor
activation deposits a disturbance dose on physically nearby rows, weighted by
distance (blast radius) and by the data pattern stored in the aggressor and
victim rows.  A victim cell flips once the accumulated dose exceeds its flip
threshold (see :mod:`repro.dram.cell_array`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class DataPattern(enum.Enum):
    """The six data patterns used by the paper's methodology (§4.3).

    Value is the ``(victim, aggressor)`` byte pair.
    """

    ROW_STRIPE = (0xFF, 0x00)  #: RS
    ROW_STRIPE_INV = (0x00, 0xFF)  #: RSI
    CHECKERBOARD = (0xAA, 0x55)  #: CB
    CHECKERBOARD_INV = (0x55, 0xAA)  #: CBI
    COLUMN_STRIPE = (0xAA, 0xAA)  #: CS
    COLUMN_STRIPE_INV = (0x55, 0x55)  #: CSI
    SOLID_ONES = (0xFF, 0xFF)  #: all 1s (retention testing, §7)
    SOLID_ZEROS = (0x00, 0x00)  #: all 0s (retention testing, §7)

    @property
    def short_name(self) -> str:
        return _SHORT_NAMES[self]


_SHORT_NAMES = {
    DataPattern.ROW_STRIPE: "RS",
    DataPattern.ROW_STRIPE_INV: "RSI",
    DataPattern.CHECKERBOARD: "CB",
    DataPattern.CHECKERBOARD_INV: "CBI",
    DataPattern.COLUMN_STRIPE: "CS",
    DataPattern.COLUMN_STRIPE_INV: "CSI",
    DataPattern.SOLID_ONES: "S1",
    DataPattern.SOLID_ZEROS: "S0",
}

#: Baseline coupling effectiveness of each data pattern (1.0 = strongest).
#: Row stripes are typically the most effective pattern; column stripes the
#: least (consistent with prior characterization work the paper builds on).
PATTERN_BASE_EFFECTIVENESS: dict[DataPattern, float] = {
    DataPattern.ROW_STRIPE: 1.00,
    DataPattern.ROW_STRIPE_INV: 0.97,
    DataPattern.CHECKERBOARD: 0.93,
    DataPattern.CHECKERBOARD_INV: 0.91,
    DataPattern.COLUMN_STRIPE: 0.84,
    DataPattern.COLUMN_STRIPE_INV: 0.82,
    DataPattern.SOLID_ONES: 0.74,
    DataPattern.SOLID_ZEROS: 0.73,
}

#: The six patterns Algorithm 1 sweeps when finding the worst-case pattern
#: (solid patterns are only used for retention testing, §7).
ALL_PATTERNS: tuple[DataPattern, ...] = (
    DataPattern.ROW_STRIPE,
    DataPattern.ROW_STRIPE_INV,
    DataPattern.CHECKERBOARD,
    DataPattern.CHECKERBOARD_INV,
    DataPattern.COLUMN_STRIPE,
    DataPattern.COLUMN_STRIPE_INV,
)

#: Disturbance weight by |physical distance| between aggressor and victim.
#: Distance 1 dominates; distance 2 matters for the Half-Double pattern.
#: Beyond the blast radius of 2 the coupling is negligible (§6).
BLAST_RADIUS_WEIGHTS: dict[int, float] = {1: 1.0, 2: 0.012}

#: Maximum aggressor-to-victim distance with observable disturbance.
BLAST_RADIUS: int = 2


@dataclass(frozen=True)
class HammerDose:
    """Accumulated disturbance on one victim row, split by coupling distance.

    ``near`` counts effective distance-1 activations; ``far`` counts
    distance-2 activations (already *unweighted*; weights are applied when
    the dose is evaluated against cell thresholds).
    """

    near: float = 0.0
    far: float = 0.0

    def add(self, distance: int, count: float) -> "HammerDose":
        """Return a new dose with ``count`` activations at ``distance``."""
        if distance == 1:
            return HammerDose(self.near + count, self.far)
        if distance == 2:
            return HammerDose(self.near, self.far + count)
        return self

    def effective(self, far_weight: float = BLAST_RADIUS_WEIGHTS[2]) -> float:
        """Equivalent distance-1 activation count."""
        return self.near + far_weight * self.far


ZERO_DOSE = HammerDose()


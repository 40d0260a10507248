"""RowPress: read disturbance from keeping a row open (§2.2 background).

RowPress (Luo et al., ISCA 2023) disturbs victim rows when an aggressor is
kept *open* for a long time rather than activated many times.  The paper
treats RowPress as background: existing mitigations prevent RowPress bitflips
when configured aggressively (equivalent to sub-1K ``N_RH``), and combining
RowHammer with RowPress lowers the effective threshold further.

This module models that remark.  :func:`press_amplification` is how many
minimum-latency activations one activation held open for ``t_on`` is worth;
it grows roughly logarithmically with on-time over several decades, as
RowPress observed.  :func:`equivalent_nrh` divides a row's pure-hammer
threshold by it: the threshold a mitigation faces under a pressed pattern.
"""

from __future__ import annotations

import math

from repro.errors import ConfigError

#: Minimum aggressor-on time (an ordinary activation, tRAS-bounded), ns.
MIN_ON_TIME_NS = 36.0
#: Maximum on-time a refresh window permits (tREFW-bounded sweeps), ns.
MAX_ON_TIME_NS = 30_000_000.0
#: Dose amplification per decade of on-time beyond the minimum.  Calibrated
#: to the RowPress paper's headline: keeping the aggressor open ~7.8 us
#: (one tREFI) cuts the needed activation count by an order of magnitude.
AMPLIFICATION_PER_DECADE = 3.83


def press_amplification(t_on_ns: float) -> float:
    """Per-activation disturbance multiplier for an aggressor kept open
    ``t_on_ns`` (1.0 at the minimum on-time)."""
    if t_on_ns <= 0:
        raise ConfigError("on-time must be positive")
    clamped = min(max(t_on_ns, MIN_ON_TIME_NS), MAX_ON_TIME_NS)
    decades = math.log10(clamped / MIN_ON_TIME_NS)
    return 1.0 + AMPLIFICATION_PER_DECADE * decades


def equivalent_nrh(nominal_nrh: float, t_on_ns: float) -> float:
    """The activation count at which a pressed pattern first flips a row
    whose pure-hammer threshold is ``nominal_nrh``.

    This is the quantity behind the paper's remark that RowPress-aware
    configuration is "practically equivalent to configuring for sub-1K
    N_RH values" (§2.2): long on-times divide the threshold.
    """
    if nominal_nrh <= 0:
        raise ConfigError("nominal N_RH must be positive")
    return nominal_nrh / press_amplification(t_on_ns)

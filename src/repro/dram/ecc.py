"""SEC-DED ECC row-outcome model and its interaction with PaCRAM.

§10 notes that PaCRAM "can be combined with error correction mechanisms" to
absorb dynamic variability.  This module models that pairing at word level:
rank-level SEC-DED ECC (the Hamming(72, 64) code used in servers) corrects
one flipped bit per 64-bit word and cannot correct two or more, so a row's
raw bitflip count translates into expected corrected and uncorrectable
words.

The characterization methodology itself runs with ECC *disabled* (§4.1:
tested modules have neither rank-level nor on-die ECC), so this model is
used only by the ECC-interaction analyses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError

#: Data bits per SEC-DED codeword.
DATA_BITS = 64


# ---------------------------------------------------------------------------
# Row-level model: how raw bitflips translate through ECC
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class EccOutcome:
    """Expected ECC outcome for one row read."""

    corrected_words: float
    uncorrectable_words: float

    @property
    def survives(self) -> bool:
        """Whether the row reads back correctly (no uncorrectable words)."""
        return self.uncorrectable_words < 0.5


def row_outcome(bitflips: int, row_bits: int = 65_536) -> EccOutcome:
    """Expected per-row ECC outcome given ``bitflips`` random raw errors.

    Errors are assumed uniformly spread over the row's 64-bit words (the
    worst case for RowHammer is clustering, but retention failures — the
    errors PaCRAM's guardbands interact with — are spatially random).
    """
    if bitflips < 0:
        raise ConfigError("bitflip count must be non-negative")
    words = row_bits // DATA_BITS
    if bitflips == 0:
        return EccOutcome(0.0, 0.0)
    # Poisson approximation of flips per word.
    rate = bitflips / words
    p0 = math.exp(-rate)
    p1 = rate * p0
    p_multi = 1.0 - p0 - p1
    return EccOutcome(corrected_words=words * p1,
                      uncorrectable_words=words * p_multi)


def effective_failure_probability(raw_fail_fraction: float,
                                  flips_when_failing: int = 1,
                                  row_bits: int = 65_536) -> float:
    """Fraction of rows that still fail *after* SEC-DED correction.

    With the typical one-to-a-few weak cells per failing row, SEC-DED
    absorbs nearly all retention failures — the §10 argument for pairing
    PaCRAM with ECC to cover aging and variability.
    """
    if not 0.0 <= raw_fail_fraction <= 1.0:
        raise ConfigError("failure fraction must be in [0, 1]")
    outcome = row_outcome(flips_when_failing, row_bits)
    survive = 1.0 if outcome.survives else 0.0
    return raw_fail_fraction * (1.0 - survive)

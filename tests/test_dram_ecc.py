"""Tests for the SEC-DED ECC row-outcome model."""

import pytest

from repro.dram.ecc import (
    EccOutcome,
    effective_failure_probability,
    row_outcome,
)
from repro.errors import ConfigError


class TestRowOutcome:
    def test_no_flips_no_errors(self):
        outcome = row_outcome(0)
        assert outcome.corrected_words == 0
        assert outcome.survives

    def test_sparse_flips_absorbed(self):
        # A few random flips over 1024 words: SEC-DED corrects them all.
        outcome = row_outcome(3)
        assert outcome.survives
        assert outcome.corrected_words == pytest.approx(3, rel=0.05)

    def test_dense_flips_break_through(self):
        outcome = row_outcome(5_000)
        assert not outcome.survives
        assert outcome.uncorrectable_words > 0

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            row_outcome(-1)


class TestPaCRAMInteraction:
    def test_ecc_absorbs_sparse_retention_failures(self):
        # §10: weak-cell retention failures (1-2 cells/row) vanish behind
        # SEC-DED, widening PaCRAM's safe envelope.
        assert effective_failure_probability(1e-4, flips_when_failing=1) == 0.0

    def test_ecc_does_not_absorb_dense_failures(self):
        assert effective_failure_probability(
            1e-4, flips_when_failing=5_000) == pytest.approx(1e-4)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ConfigError):
            effective_failure_probability(1.5)


class TestDataclasses:
    def test_outcome_survival_boundary(self):
        assert EccOutcome(10.0, 0.4).survives
        assert not EccOutcome(0.0, 0.6).survives

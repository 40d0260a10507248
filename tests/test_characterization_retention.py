"""Tests for data-retention characterization (§7)."""

from repro.characterization.retention import (
    RETENTION_TIMES_NS,
    retention_failure_fractions,
)
from repro.units import MS


class TestAnalyticFractions:
    def test_covers_all_points(self):
        fractions = retention_failure_fractions(
            "S6", tras_factors=(1.0, 0.36), n_restorations=(1, 10))
        assert len(fractions) == 2 * 2 * len(RETENTION_TIMES_NS)

    def test_fig14_observation_four(self):
        # S rows retain 256 ms even x10 at 0.36 tRAS.
        fractions = retention_failure_fractions(
            "S6", tras_factors=(0.36,), n_restorations=(10,))
        assert fractions[(0.36, 10, 256 * MS)] == 0.0

    def test_fig14_observation_five(self):
        # ...but some rows fail 256 ms at 0.27 tRAS.
        fractions = retention_failure_fractions(
            "S6", tras_factors=(0.27,), n_restorations=(10,))
        assert fractions[(0.27, 10, 256 * MS)] > 0.0

    def test_fig14_observation_six(self):
        # Restoring x10 instead of x1 greatly amplifies S failures.
        fractions = retention_failure_fractions(
            "S6", tras_factors=(0.27,), n_restorations=(1, 10))
        once = fractions[(0.27, 1, 256 * MS)]
        ten = fractions[(0.27, 10, 256 * MS)]
        assert ten > once

    def test_fig14_observation_one_h_and_m_safe(self):
        # H and M rows retain 256 ms / 512 ms even x10 at 0.27 tRAS.
        h = retention_failure_fractions("H5", tras_factors=(0.27,),
                                        n_restorations=(10,))
        m = retention_failure_fractions("M2", tras_factors=(0.27,),
                                        n_restorations=(10,))
        assert h[(0.27, 10, 256 * MS)] == 0.0
        assert m[(0.27, 10, 512 * MS)] == 0.0

    def test_fractions_bounded(self):
        fractions = retention_failure_fractions(
            "S6", tras_factors=(1.0, 0.64, 0.36, 0.27),
            n_restorations=(1, 10))
        for value in fractions.values():
            assert 0.0 <= value <= 1.0

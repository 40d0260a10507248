"""Tests for disturbance kernels and data patterns."""

import pytest

from repro.dram.disturbance import (
    ALL_PATTERNS,
    BLAST_RADIUS,
    BLAST_RADIUS_WEIGHTS,
    PATTERN_BASE_EFFECTIVENESS,
    DataPattern,
    HammerDose,
    ZERO_DOSE,
)


class TestDataPatterns:
    def test_six_hammering_patterns(self):
        # Algorithm 1 sweeps exactly six patterns (§4.3).
        assert len(ALL_PATTERNS) == 6

    def test_row_stripe_bytes(self):
        # Values are (victim byte, aggressor byte).
        assert DataPattern.ROW_STRIPE.value == (0xFF, 0x00)

    def test_inverse_pairs(self):
        assert (DataPattern.ROW_STRIPE_INV.value
                == DataPattern.ROW_STRIPE.value[::-1])
        assert (DataPattern.CHECKERBOARD_INV.value
                == DataPattern.CHECKERBOARD.value[::-1])

    def test_short_names_unique(self):
        names = {p.short_name for p in DataPattern}
        assert len(names) == len(list(DataPattern))

    def test_effectiveness_covers_all_patterns(self):
        for pattern in DataPattern:
            assert pattern in PATTERN_BASE_EFFECTIVENESS

    def test_row_stripe_is_strongest(self):
        strongest = max(PATTERN_BASE_EFFECTIVENESS,
                        key=PATTERN_BASE_EFFECTIVENESS.__getitem__)
        assert strongest is DataPattern.ROW_STRIPE


class TestDistanceWeights:
    def test_blast_radius_two(self):
        assert BLAST_RADIUS == 2

    def test_distance_one_dominates(self):
        assert BLAST_RADIUS_WEIGHTS[1] == 1.0
        assert 0 < BLAST_RADIUS_WEIGHTS[2] < 0.1

    def test_beyond_blast_radius_zero(self):
        assert max(BLAST_RADIUS_WEIGHTS) == BLAST_RADIUS


class TestHammerDose:
    def test_zero_dose(self):
        assert ZERO_DOSE == HammerDose(near=0.0, far=0.0)
        assert ZERO_DOSE.effective() == 0.0

    def test_add_is_functional(self):
        dose = ZERO_DOSE.add(1, 100)
        assert ZERO_DOSE == HammerDose()  # original unchanged
        assert dose.near == 100

    def test_add_by_distance(self):
        dose = ZERO_DOSE.add(1, 10).add(2, 1000)
        assert dose.near == 10
        assert dose.far == 1000

    def test_distance_beyond_radius_ignored(self):
        dose = ZERO_DOSE.add(3, 1000)
        assert dose == ZERO_DOSE

    def test_effective_weighs_far(self):
        dose = HammerDose(near=10, far=1000)
        assert dose.effective(far_weight=0.01) == pytest.approx(20.0)


"""Tests for per-row cell populations."""

import math

import pytest

from repro.dram.catalog import module_spec
from repro.dram.cell_array import RowPopulation
from repro.dram.charge import ChargeModel
from repro.dram.disturbance import ALL_PATTERNS, HammerDose
from repro.rng import SeedTree


def make_row(module_id: str, row: int = 100, seed: int = 2025) -> RowPopulation:
    spec = module_spec(module_id)
    return RowPopulation(spec, ChargeModel(spec), 0, row,
                         SeedTree(seed).child("module", module_id))


class TestTraits:
    def test_deterministic_per_row(self):
        a = make_row("S6", 7)
        b = make_row("S6", 7)
        assert a.traits.base_nrh == b.traits.base_nrh
        assert a.traits.sensitivity == b.traits.sensitivity

    def test_distinct_rows_differ(self):
        a = make_row("S6", 7)
        b = make_row("S6", 8)
        assert a.traits.base_nrh != b.traits.base_nrh

    def test_base_nrh_above_module_minimum(self):
        minimum = module_spec("S6").nominal_nrh
        for row in range(50):
            assert make_row("S6", row).traits.base_nrh >= minimum

    def test_invulnerable_module_infinite(self):
        row = make_row("H0")
        assert math.isinf(row.traits.base_nrh)
        assert row.effective_nrh() == math.inf

    def test_sample_minimum_tracks_catalog(self):
        minimum = module_spec("H5").nominal_nrh
        values = [make_row("H5", r).effective_nrh() for r in range(2000)]
        assert min(values) == pytest.approx(minimum, rel=0.05)


class TestWorstCasePattern:
    def test_among_the_six(self):
        assert make_row("S6").worst_case_pattern() in ALL_PATTERNS

    def test_varies_across_rows(self):
        patterns = {make_row("H5", r).worst_case_pattern() for r in range(200)}
        assert len(patterns) >= 2


class TestHammerFlips:
    def test_no_flips_below_threshold(self):
        row = make_row("S6")
        nrh = row.effective_nrh(pattern=row.worst_case_pattern())
        dose = HammerDose(near=2.0 * int(nrh * 0.9))
        assert row.hammer_flips(dose, pattern=row.worst_case_pattern()) == 0

    def test_flips_at_threshold(self):
        row = make_row("S6")
        pattern = row.worst_case_pattern()
        nrh = row.effective_nrh(pattern=pattern)
        dose = HammerDose(near=2.0 * (int(nrh) + 1))
        assert row.hammer_flips(dose, pattern=pattern) >= 1

    def test_flips_monotone_in_dose(self):
        row = make_row("S6")
        pattern = row.worst_case_pattern()
        counts = [row.hammer_flips(HammerDose(near=2.0 * hc), pattern=pattern)
                  for hc in (10_000, 30_000, 100_000, 300_000)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_weaker_pattern_fewer_flips(self):
        row = make_row("S6")
        worst = row.worst_case_pattern()
        weak = min(ALL_PATTERNS,
                   key=lambda p: row.traits.pattern_effectiveness[p])
        dose = HammerDose(near=2.0 * 100_000)
        assert (row.hammer_flips(dose, pattern=weak)
                <= row.hammer_flips(dose, pattern=worst))

    def test_reduced_latency_lowers_threshold_for_s(self):
        row = make_row("S6")
        assert row.effective_nrh(0.27) < row.effective_nrh(1.0)

    def test_ber_superlinear_under_reduction(self):
        # Fig. 9: BER grows superlinearly as restoration weakens (Mfr. S).
        row = make_row("S6")
        pattern = row.worst_case_pattern()
        dose = HammerDose(near=2.0 * 100_000)
        nominal = row.hammer_flips(dose, factor=1.0, pattern=pattern)
        reduced = row.hammer_flips(dose, factor=0.27, pattern=pattern)
        assert reduced > nominal

    def test_flat_for_m_at_any_latency(self):
        row = make_row("M2")
        assert row.effective_nrh(0.18) == pytest.approx(
            row.effective_nrh(1.0), rel=0.10)


class TestRetentionFlips:
    def test_none_at_nominal(self):
        assert make_row("S6").retention_flips(factor=1.0) == 0

    def test_weak_rows_fail_beyond_limit(self):
        # S6 at 0.18 tRAS: retention bitflips without hammering.
        flips = [make_row("S6", r).retention_flips(factor=0.18)
                 for r in range(300)]
        assert any(f > 0 for f in flips)
        assert not all(f > 0 for f in flips)  # only the weak tail fails


class TestHalfDouble:
    def test_h_has_vulnerable_rows(self):
        vulnerable = sum(make_row("H7", r).halfdouble_vulnerable(1.0)
                         for r in range(400))
        assert vulnerable > 10

    def test_s_and_m_have_none(self):
        for module_id in ("S6", "M2"):
            assert not any(make_row(module_id, r).halfdouble_vulnerable(1.0)
                           for r in range(400))

    def test_prevalence_dips_at_036(self):
        # Fig. 13: ~39 % fewer rows with bitflips at 0.36 tRAS.
        at_nominal = sum(make_row("H7", r).halfdouble_vulnerable(1.0)
                         for r in range(2000))
        at_036 = sum(make_row("H7", r).halfdouble_vulnerable(0.36)
                     for r in range(2000))
        assert at_036 < at_nominal

    def test_prevalence_spikes_at_018(self):
        at_nominal = sum(make_row("H7", r).halfdouble_vulnerable(1.0)
                         for r in range(2000))
        at_018 = sum(make_row("H7", r).halfdouble_vulnerable(0.18)
                     for r in range(2000))
        assert at_018 > at_nominal


class TestDoseUnits:
    def test_double_sided_equivalence(self):
        # A dose of 2*HC near activations equals HC per-aggressor hammers.
        row = make_row("S6")
        pattern = row.worst_case_pattern()
        nrh = row.effective_nrh(pattern=pattern)
        manual = HammerDose(near=2 * (int(nrh) + 1), far=0)
        assert row.hammer_flips(manual, pattern=pattern) >= 1

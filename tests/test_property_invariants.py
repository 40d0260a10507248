"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.boxstats import BoxStats
from repro.characterization.bisect import bisect_threshold
from repro.core.config import full_charge_restoration_interval_ns
from repro.core.fr_bitvector import FRBitVector
from repro.dram.catalog import module_spec
from repro.dram.charge import ChargeModel, interpolate_curve
from repro.dram.mapping import RowMapping
from repro.rng import derive_seed
from repro.sim.addrmap import AddressMapper
from repro.sim.config import SystemConfig
from repro.units import format_time_ns


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------
@given(st.floats(min_value=0.1, max_value=1e12))
def test_format_time_always_has_unit(time_ns):
    text = format_time_ns(time_ns)
    assert text.endswith(("ns", "us", "ms", "s"))


# ---------------------------------------------------------------------------
# seed tree
# ---------------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.lists(st.text(max_size=8), min_size=1, max_size=4))
def test_derive_seed_stable_and_bounded(seed, path):
    a = derive_seed(seed, *path)
    b = derive_seed(seed, *path)
    assert a == b
    assert 0 <= a < 2**64


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------
@given(st.dictionaries(st.floats(min_value=0.0, max_value=1.0,
                                 allow_nan=False),
                       st.floats(min_value=-100, max_value=100,
                                 allow_nan=False),
                       min_size=1, max_size=8),
       st.floats(min_value=-0.5, max_value=1.5, allow_nan=False))
def test_interpolation_within_anchor_range(anchors, x):
    value = interpolate_curve(anchors, x)
    assert min(anchors.values()) - 1e-9 <= value <= max(anchors.values()) + 1e-9


# ---------------------------------------------------------------------------
# row mapping
# ---------------------------------------------------------------------------
@given(st.integers(min_value=3, max_value=10),
       st.integers(min_value=0, max_value=255))
def test_row_mapping_bijective(rows_pow, mask):
    rows = 1 << rows_pow
    mapping = RowMapping(rows_per_bank=rows, scramble_mask=mask % rows)
    images = {mapping.logical_to_physical(r) for r in range(rows)}
    assert images == set(range(rows))


@given(st.integers(min_value=0, max_value=1023),
       st.integers(min_value=0, max_value=7))
def test_row_mapping_involution(row, mask):
    mapping = RowMapping(rows_per_bank=1024, scramble_mask=mask)
    assert mapping.physical_to_logical(
        mapping.logical_to_physical(row)) == row


@given(st.integers(min_value=2, max_value=1021),
       st.integers(min_value=0, max_value=7),
       st.integers(min_value=1, max_value=2))
def test_neighbors_at_claimed_distance(row, mask, distance):
    mapping = RowMapping(rows_per_bank=1024, scramble_mask=mask)
    for neighbor in mapping.neighbors(row, distance):
        assert mapping.physical_distance(row, neighbor) == distance


# ---------------------------------------------------------------------------
# address mapping
# ---------------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=2**40))
@settings(max_examples=50)
def test_addrmap_round_trip(address):
    mapper = AddressMapper(SystemConfig())
    decoded = mapper.decode(address)
    assert mapper.encode(decoded) == address % mapper.total_lines


# ---------------------------------------------------------------------------
# bisection
# ---------------------------------------------------------------------------
@given(st.integers(min_value=1, max_value=100_000))
@settings(max_examples=60)
def test_bisection_bracket(true_threshold):
    found = bisect_threshold(lambda hc: int(hc >= true_threshold))
    assert found is not None
    assert true_threshold <= found <= min(true_threshold + 1_000, 100_000)


# ---------------------------------------------------------------------------
# box stats
# ---------------------------------------------------------------------------
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=100))
def test_boxstats_ordering(values):
    stats = BoxStats.from_values(values)
    assert (stats.minimum <= stats.q1 <= stats.median
            <= stats.q3 <= stats.maximum)
    assert stats.minimum == min(values)
    assert stats.maximum == max(values)


# ---------------------------------------------------------------------------
# charge model
# ---------------------------------------------------------------------------
@given(st.sampled_from(["H5", "H8", "M2", "M5", "S1", "S6", "S13"]),
       st.floats(min_value=0.18, max_value=1.0, allow_nan=False),
       st.integers(min_value=1, max_value=15_000))
@settings(max_examples=80)
def test_charge_ratio_bounded(module_id, factor, n_pr):
    charge = ChargeModel(module_spec(module_id))
    ratio = charge.nrh_ratio(factor, n_pr)
    assert 0.0 <= ratio <= 1.3
    assert math.isfinite(ratio)


@given(st.sampled_from(["H5", "M2", "S6"]),
       st.floats(min_value=0.18, max_value=1.0, allow_nan=False),
       st.integers(min_value=1, max_value=5_000),
       st.floats(min_value=64e6, max_value=2e9))
@settings(max_examples=80)
def test_retention_fraction_bounded_and_monotone_in_wait(
        module_id, factor, n_pr, wait_ns):
    charge = ChargeModel(module_spec(module_id))
    fraction = charge.retention_fail_fraction(factor, n_pr, wait_ns)
    longer = charge.retention_fail_fraction(factor, n_pr, wait_ns * 2)
    assert 0.0 <= fraction <= 1.0
    assert longer >= fraction - 1e-12


@given(st.sampled_from(["H5", "M2", "S6", "S1"]),
       st.floats(min_value=0.18, max_value=0.99, allow_nan=False))
@settings(max_examples=60)
def test_npcr_limit_consistent_with_retention(module_id, factor):
    # A row held exactly at the limit must survive a 64 ms window; one past
    # it must not (for the weakest row).
    charge = ChargeModel(module_spec(module_id))
    limit = charge.npcr_limit(factor)
    if 1 <= limit <= 100_000:
        assert not charge.retention_fails(factor, limit, row_strength=1.0)
        assert charge.retention_fails(factor, limit + 1, row_strength=1.0)


# ---------------------------------------------------------------------------
# t_FCRI
# ---------------------------------------------------------------------------
@given(st.integers(min_value=1, max_value=100_000),
       st.floats(min_value=1.0, max_value=33.0, allow_nan=False),
       st.integers(min_value=1, max_value=15_000))
def test_tfcri_monotone(nrh, tras, npcr):
    base = full_charge_restoration_interval_ns(nrh, tras, npcr)
    assert base > 0
    assert full_charge_restoration_interval_ns(nrh + 1, tras, npcr) > base
    assert full_charge_restoration_interval_ns(nrh, tras, npcr + 1) > base


# ---------------------------------------------------------------------------
# SPD records
# ---------------------------------------------------------------------------
@given(st.lists(st.tuples(
    st.sampled_from([0.81, 0.64, 0.45, 0.36, 0.27, 0.18]),
    st.integers(min_value=1, max_value=100_000),
    st.integers(min_value=1, max_value=15_000)),
    min_size=1, max_size=6))
@settings(max_examples=40)
def test_spd_round_trip_arbitrary_entries(raw_entries):
    from repro.core.spd import SpdEntry, SpdRecord
    record = SpdRecord(module_id="X1", entries=tuple(
        SpdEntry(*entry) for entry in raw_entries))
    assert SpdRecord.decode(record.encode()) == record


# ---------------------------------------------------------------------------
# RowPress
# ---------------------------------------------------------------------------
@given(st.floats(min_value=1.0, max_value=5e7, allow_nan=False))
@settings(max_examples=60)
def test_press_amplification_at_least_one(t_on):
    from repro.dram.rowpress import press_amplification
    assert press_amplification(t_on) >= 1.0


@given(st.floats(min_value=36.0, max_value=1e7, allow_nan=False),
       st.floats(min_value=1.0, max_value=3.0, allow_nan=False))
@settings(max_examples=60)
def test_press_amplification_monotone(t_on, scale):
    from repro.dram.rowpress import press_amplification
    assert press_amplification(t_on * scale) >= press_amplification(t_on)


# ---------------------------------------------------------------------------
# FR bit vector
# ---------------------------------------------------------------------------
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                          st.integers(min_value=0, max_value=63)),
                max_size=100))
def test_fr_bitvector_state_machine(operations):
    fr = FRBitVector(4, 64)
    restored = set()
    for bank, row in operations:
        assert fr.needs_full_restoration(bank, row) == \
            ((bank, row) not in restored)
        fr.mark_fully_restored(bank, row)
        restored.add((bank, row))
    fr.reset_all()
    assert all(fr.needs_full_restoration(bank, row) for bank, row in restored)

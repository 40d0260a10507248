"""Tests for worst-case-data-pattern statistics (§4.3)."""

from collections import Counter

from repro.characterization.sweeps import characterize_module
from repro.dram.disturbance import ALL_PATTERNS


def wcdp_histogram(result) -> Counter:
    """How often each data pattern was a row's worst case at nominal tRAS."""
    return Counter(m.wcdp for m in result.at(tras_factor=1.0, n_pr=1))


class TestWcdpHistogram:
    def test_real_campaign_uses_only_the_six_patterns(self):
        result = characterize_module("H5", tras_factors=(1.0,),
                                     per_region=8)
        histogram = wcdp_histogram(result)
        valid_names = {p.short_name for p in ALL_PATTERNS}
        assert set(histogram) <= valid_names
        assert sum(histogram.values()) == len(result.at(tras_factor=1.0))

    def test_row_stripes_dominate(self):
        # PATTERN_BASE_EFFECTIVENESS makes row stripes the usual winners.
        result = characterize_module("M2", tras_factors=(1.0,),
                                     per_region=16)
        histogram = wcdp_histogram(result)
        stripes = histogram.get("RS", 0) + histogram.get("RSI", 0)
        assert stripes > sum(histogram.values()) / 2

"""Tests for repro.units."""

from repro.units import (
    K,
    KIB,
    MS,
    NS,
    S,
    US,
    format_time_ns,
)


class TestConstants:
    def test_time_ladder(self):
        assert US == 1000 * NS
        assert MS == 1000 * US
        assert S == 1000 * MS

    def test_sizes(self):
        assert KIB == 1024
        assert K == 1000


class TestFormatTime:
    def test_nanoseconds(self):
        assert format_time_ns(33.0) == "33ns"

    def test_microseconds(self):
        assert format_time_ns(489_000.0) == "489us"

    def test_milliseconds(self):
        assert format_time_ns(374_000_000.0) == "374ms"

    def test_seconds(self):
        assert format_time_ns(36.0 * S) == "36s"

    def test_fractional(self):
        assert format_time_ns(7_300_000_000.0) == "7.3s"

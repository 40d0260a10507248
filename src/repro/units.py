"""Time, frequency, and size units used throughout the library.

All timing in this library is expressed in **nanoseconds** as floats.
These constants make call sites explicit about which unit a literal
carries, e.g. ``tras = 33 * NS`` or ``window = 64 * MS``.
"""

from __future__ import annotations

#: One nanosecond (the base time unit).
NS: float = 1.0
#: One microsecond in nanoseconds.
US: float = 1_000.0
#: One millisecond in nanoseconds.
MS: float = 1_000_000.0
#: One second in nanoseconds.
S: float = 1_000_000_000.0

#: One kibibyte / mebibyte / gibibyte in bytes.
KIB: int = 1024
MIB: int = 1024 * KIB
GIB: int = 1024 * MIB

#: Kilo as used for hammer counts (paper reports e.g. "4.8K activations").
K: int = 1000


def format_time_ns(time_ns: float) -> str:
    """Render a nanosecond duration with a human-friendly unit.

    >>> format_time_ns(33.0)
    '33ns'
    >>> format_time_ns(374_000_000.0)
    '374ms'
    """
    if time_ns >= S:
        return _strip(time_ns / S) + "s"
    if time_ns >= MS:
        return _strip(time_ns / MS) + "ms"
    if time_ns >= US:
        return _strip(time_ns / US) + "us"
    return _strip(time_ns) + "ns"


def _strip(value: float) -> str:
    """Format a float dropping a trailing '.0'."""
    text = f"{value:.1f}"
    if text.endswith(".0"):
        return text[:-2]
    return text

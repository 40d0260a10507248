"""Terminal rendering of experiment series.

The benchmark harness and CLI print data series; these helpers render them
as sparklines and two-column tables so trends are visible without plotting
dependencies.
"""

from __future__ import annotations

from repro.errors import ConfigError

_BARS = " ▁▂▃▄▅▆▇█"


def sparkline(values: list[float]) -> str:
    """A one-line bar rendering of a numeric series.

    >>> sparkline([0, 1, 2, 3])
    '▁▃▆█'
    """
    if not values:
        raise ConfigError("nothing to render")
    lo, hi = min(values), max(values)
    if hi == lo:
        return _BARS[4] * len(values)
    span = hi - lo
    out = []
    for value in values:
        index = 1 + round((value - lo) / span * (len(_BARS) - 2))
        out.append(_BARS[index])
    return "".join(out)


def curve_table(series: dict, *, x_label: str = "x",
                y_label: str = "y") -> str:
    """A two-column table with a sparkline footer."""
    if not series:
        raise ConfigError("nothing to render")
    lines = [f"{x_label:>10}  {y_label}"]
    for key, value in series.items():
        lines.append(f"{key!s:>10}  {float(value):.4f}")
    lines.append(f"{'trend':>10}  {sparkline([float(v) for v in series.values()])}")
    return "\n".join(lines)

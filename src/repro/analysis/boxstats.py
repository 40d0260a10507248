"""Box-and-whiskers statistics (the paper's footnote-4 definition).

The box is bounded by the first and third quartiles (medians of the lower
and upper halves of the ordered data); whiskers show the minimum and
maximum.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CharacterizationError


def _median(sorted_values: list[float]) -> float:
    n = len(sorted_values)
    mid = n // 2
    if n % 2:
        return sorted_values[mid]
    return (sorted_values[mid - 1] + sorted_values[mid]) / 2.0


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary of one distribution."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float

    @classmethod
    def from_values(cls, values: list[float]) -> "BoxStats":
        if not values:
            raise CharacterizationError("cannot summarize an empty sample")
        ordered = sorted(values)
        n = len(ordered)
        mid = n // 2
        lower = ordered[:mid] or ordered[:1]
        upper = ordered[mid + (n % 2):] or ordered[-1:]
        return cls(
            minimum=ordered[0],
            q1=_median(lower),
            median=_median(ordered),
            q3=_median(upper),
            maximum=ordered[-1],
        )

    def row(self) -> str:
        """One-line rendering for benchmark output."""
        return (f"min={self.minimum:.3f} q1={self.q1:.3f} "
                f"med={self.median:.3f} q3={self.q3:.3f} "
                f"max={self.maximum:.3f}")

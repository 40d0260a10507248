"""Online profiling scheduler (§10).

The third deployment path: the running system profiles its own DRAM in the
background.  §10 shows profiling can proceed in 80-second batches that
block only 1270 rows (9.9 MiB) at a time; this module schedules those
batches across a bank — migrating the blocked rows' data aside, running the
batch, and restoring — and tracks progress, so a system can spread the
68.8-minute bank characterization across idle periods.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.profiling import CONCURRENT_ROWS, ProfilingCost, profiling_cost
from repro.errors import ConfigError


@dataclass(frozen=True)
class ProfilingBatch:
    """One 80-second profiling batch over a contiguous row range."""

    index: int
    first_row: int
    row_count: int
    duration_s: float

    @property
    def blocked_bytes(self) -> int:
        return self.row_count * 8192


@dataclass
class OnlineProfiler:
    """Schedules a bank's profiling campaign in blockable batches.

    Usage: call :meth:`next_batch` whenever the system has an idle window of
    at least one batch duration, run it, then :meth:`complete_batch`.  The
    profiler never blocks more than one batch's rows at a time.
    """

    rows_per_bank: int = 65_536
    rows_per_batch: int = CONCURRENT_ROWS
    cost: ProfilingCost = field(default_factory=profiling_cost)
    _next_row: int = 0
    _completed_batches: int = 0
    _in_flight: ProfilingBatch | None = None

    def __post_init__(self) -> None:
        if self.rows_per_bank <= 0 or self.rows_per_batch <= 0:
            raise ConfigError("row counts must be positive")

    # ------------------------------------------------------------------
    @property
    def total_batches(self) -> int:
        full, rem = divmod(self.rows_per_bank, self.rows_per_batch)
        return full + (1 if rem else 0)

    @property
    def progress(self) -> float:
        """Fraction of the bank profiled so far."""
        return self._completed_batches / self.total_batches

    @property
    def done(self) -> bool:
        return self._completed_batches >= self.total_batches

    def remaining_minutes(self) -> float:
        remaining = self.total_batches - self._completed_batches
        return remaining * self.cost.batch_seconds / 60.0

    # ------------------------------------------------------------------
    def next_batch(self) -> ProfilingBatch:
        """Claim the next batch (its rows must be migrated aside first)."""
        if self._in_flight is not None:
            raise ConfigError("a batch is already in flight")
        if self.done:
            raise ConfigError("bank fully profiled")
        rows = min(self.rows_per_batch, self.rows_per_bank - self._next_row)
        batch = ProfilingBatch(
            index=self._completed_batches,
            first_row=self._next_row,
            row_count=rows,
            duration_s=self.cost.batch_seconds,
        )
        self._in_flight = batch
        return batch

    def complete_batch(self, batch: ProfilingBatch) -> None:
        """Mark a claimed batch finished (its rows are unblocked again)."""
        if self._in_flight is None or batch.index != self._in_flight.index:
            raise ConfigError("completing a batch that is not in flight")
        self._next_row += batch.row_count
        self._completed_batches += 1
        self._in_flight = None

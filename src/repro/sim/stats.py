"""Simulation statistics: controller counters, per-core IPC, speedups."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError


@dataclass
class ControllerStats:
    """Counters accumulated by the memory controller."""

    reads: int = 0
    writes: int = 0
    forwarded_reads: int = 0  #: reads served from the write queue
    row_hits: int = 0
    row_misses: int = 0
    activations: int = 0
    periodic_refreshes: int = 0
    preventive_refresh_rows: int = 0
    preventive_refresh_full: int = 0  #: rows refreshed with nominal latency
    preventive_refresh_partial: int = 0  #: rows refreshed with reduced latency
    rfm_commands: int = 0
    backoff_events: int = 0
    metadata_reads: int = 0
    metadata_writes: int = 0


@dataclass
class CoreStats:
    """One core's retirement outcome."""

    core: int
    instructions: int
    elapsed_ns: float
    core_clock_ghz: float

    @property
    def cycles(self) -> float:
        return self.elapsed_ns * self.core_clock_ghz

    @property
    def ipc(self) -> float:
        if self.cycles <= 0:
            raise SimulationError("core retired instructions in zero time")
        return self.instructions / self.cycles


def weighted_speedup(ipcs: dict[int, float], baseline_ipcs: dict[int, float]) -> float:
    """Multi-programmed weighted speedup: sum_i IPC_i / IPC_i^baseline.

    The baseline is each workload's IPC when run alone (or, in the paper's
    normalized plots, under the reference configuration).
    """
    if set(ipcs) != set(baseline_ipcs):
        raise SimulationError("IPC dictionaries cover different cores")
    if not ipcs:
        raise SimulationError("empty IPC set")
    total = 0.0
    for core, ipc in ipcs.items():
        base = baseline_ipcs[core]
        if base <= 0:
            raise SimulationError(f"non-positive baseline IPC for core {core}")
        total += ipc / base
    return total


@dataclass(frozen=True)
class LatencySummary:
    """Distribution summary of memory read latencies (ns)."""

    count: int
    mean_ns: float
    p50_ns: float
    p99_ns: float
    max_ns: float

    @classmethod
    def from_values(cls, values: list[float]) -> "LatencySummary":
        accumulator = LatencyAccumulator()
        for value in values:
            accumulator.add(value)
        return accumulator.summary()


class LatencyAccumulator:
    """Streaming latency statistics with memory bounded by *distinct* values.

    Read latencies in a timing simulation are combinations of a handful of
    timing parameters, so the number of distinct values grows far slower
    than the number of reads — a value histogram keeps exact count, mean,
    percentiles, and max without retaining the raw per-read list (which
    previously grew without bound over long traces).

    :meth:`summary` reproduces :meth:`LatencySummary.from_values` bit for
    bit: the mean is accumulated by adding each occurrence in sorted order
    (exactly what ``sum(sorted(values))`` does), and percentiles index the
    sorted multiset through cumulative counts.
    """

    __slots__ = ("_counts", "count")

    def __init__(self) -> None:
        self._counts: dict[float, int] = {}
        self.count = 0

    def add(self, value_ns: float) -> None:
        counts = self._counts
        counts[value_ns] = counts.get(value_ns, 0) + 1
        self.count += 1

    def distinct(self) -> int:
        """Number of histogram bins currently held."""
        return len(self._counts)

    def summary(self) -> LatencySummary:
        n = self.count
        if n == 0:
            return LatencySummary(count=0, mean_ns=0.0, p50_ns=0.0,
                                  p99_ns=0.0, max_ns=0.0)
        items = sorted(self._counts.items())
        p50_index = n // 2
        p99_index = min(n - 1, (n * 99) // 100)
        total = 0.0
        p50 = p99 = items[0][0]
        seen = 0
        for value, occurrences in items:
            if occurrences == 1:
                total += value
            else:
                for _ in range(occurrences):
                    total += value
            if seen <= p50_index:
                p50 = value
            if seen <= p99_index:
                p99 = value
            seen += occurrences
        return LatencySummary(count=n, mean_ns=total / n, p50_ns=p50,
                              p99_ns=p99, max_ns=items[-1][0])

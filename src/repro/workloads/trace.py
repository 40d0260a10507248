"""The memory-trace format consumed by the core model.

A trace is the post-LLC memory-request stream of 100M-instruction SimPoint
regions in the paper; here it is three parallel arrays: for each memory
request, the number of non-memory instructions preceding it (``bubbles``),
whether it is a write, and its cache-line address.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError


@dataclass
class Trace:
    """One workload's memory trace.

    Readers never write into the arrays or reassign a field, so traces
    can be shared: :func:`~repro.workloads.synth.generate_trace` hands
    every caller the same object with read-only arrays.  A hand-built
    trace stays writable.
    """

    name: str
    bubbles: np.ndarray  #: int64[n] non-memory instructions before request i
    is_write: np.ndarray  #: bool[n]
    addresses: np.ndarray  #: int64[n] cache-line addresses

    def __post_init__(self) -> None:
        n = len(self.bubbles)
        if len(self.is_write) != n or len(self.addresses) != n:
            raise ConfigError("trace arrays must have equal length")
        if n == 0:
            raise ConfigError("empty trace")
        if np.any(self.bubbles < 0):
            raise ConfigError("negative bubble count")

    def __len__(self) -> int:
        return len(self.bubbles)

    @property
    def instructions(self) -> int:
        """Total instruction count (memory ops + bubbles)."""
        return int(self.bubbles.sum()) + len(self)

    @property
    def mpki(self) -> float:
        """Memory accesses per kilo-instruction."""
        return 1000.0 * len(self) / self.instructions

    @property
    def write_fraction(self) -> float:
        return float(self.is_write.mean())

"""Synthetic memory-trace generation.

A :class:`TraceSpec` describes a workload's memory behavior in the terms
that matter to a DRAM study: memory intensity (MPKI), spatial locality
(streaming-run length), working-set size, access skew (hot rows), and
read/write mix.  :func:`generate_trace` turns a spec into a concrete trace
deterministically (same spec + seed = same trace), and memoizes it: an
evaluation grid simulates a handful of distinct traces hundreds of times,
so each is built once per process and shared read-only.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import ConfigError
from repro.rng import SeedTree
from repro.workloads.trace import Trace


@dataclass(frozen=True)
class TraceSpec:
    """Behavioral description of one synthetic workload."""

    name: str
    mpki: float  #: memory accesses per kilo-instruction
    locality: float  #: probability the next access continues a stream run
    footprint_lines: int  #: distinct cache lines in the working set
    write_fraction: float = 0.25
    hot_fraction: float = 0.0  #: fraction of accesses hitting a few hot rows
    hot_lines: int = 512  #: size of the hot region (cache lines)

    def __post_init__(self) -> None:
        if self.mpki <= 0:
            raise ConfigError("mpki must be positive")
        if not 0.0 <= self.locality <= 1.0:
            raise ConfigError("locality must be in [0, 1]")
        if self.footprint_lines <= 0:
            raise ConfigError("footprint must be positive")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigError("write fraction must be in [0, 1]")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ConfigError("hot fraction must be in [0, 1]")
        if self.hot_lines <= 0:
            raise ConfigError("hot region must be positive")


#: Distinct ``(spec, requests, seed)`` traces kept per process.  An
#: evaluation pass uses about 6; at 20,000 requests (17 bytes each) the
#: full memo holds about 10 MiB.
_TRACE_MEMO_SIZE = 32


def generate_trace(spec: TraceSpec, *, requests: int = 20_000,
                   seed: int = 7) -> Trace:
    """Generate a deterministic trace of ``requests`` memory accesses.

    Equal arguments return the *same* :class:`Trace` object (the last
    32 distinct ones are memoized), so its three
    arrays are read-only: a caller that wants to edit a trace copies the
    arrays into a new one.
    """
    # Validate before the lookup: a float must not hit an int's entry,
    # and a numpy integer must share the entry of the equal Python int.
    requests = operator.index(requests)
    seed = operator.index(seed)
    if requests <= 0:
        raise ConfigError("requests must be positive")
    return _generate(spec, requests, seed)


def clear_trace_memo() -> None:
    """Forget every memoized trace and reset :func:`trace_generations`."""
    _generate.cache_clear()


def trace_generations() -> int:
    """Traces built (memo misses) since the memo was last cleared."""
    return _generate.cache_info().misses


@lru_cache(maxsize=_TRACE_MEMO_SIZE)
def _generate(spec: TraceSpec, requests: int, seed: int) -> Trace:
    rng = SeedTree(seed).generator("trace", spec.name)

    # Bubbles: geometric around the mean implied by MPKI.
    mean_bubbles = max(0.0, 1000.0 / spec.mpki - 1.0)
    if mean_bubbles > 0:
        bubbles = rng.geometric(1.0 / (mean_bubbles + 1.0), size=requests) - 1
    else:
        bubbles = np.zeros(requests, dtype=np.int64)
    bubbles = bubbles.astype(np.int64)

    is_write = rng.random(requests) < spec.write_fraction

    # Addresses: streaming runs within the footprint, with optional hot-row
    # skew.  Draw the control randomness vectorized, then walk the chain.
    continue_run = rng.random(requests) < spec.locality
    go_hot = rng.random(requests) < spec.hot_fraction
    jump_targets = rng.integers(0, spec.footprint_lines, size=requests)
    hot_targets = rng.integers(0, min(spec.hot_lines, spec.footprint_lines),
                               size=requests)
    addresses = np.empty(requests, dtype=np.int64)
    current = int(jump_targets[0])
    for i in range(requests):
        if go_hot[i]:
            current = int(hot_targets[i])
        elif continue_run[i]:
            current = (current + 1) % spec.footprint_lines
        else:
            current = int(jump_targets[i])
        addresses[i] = current
    for array in (bubbles, is_write, addresses):
        array.flags.writeable = False
    return Trace(name=spec.name, bubbles=bubbles,
                 is_write=is_write, addresses=addresses)

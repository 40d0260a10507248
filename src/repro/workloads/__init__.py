"""Workload traces: format, synthetic generators, and benchmark suites.

The paper evaluates 62 single-core workloads and 60 4-core mixes drawn from
SPEC CPU2006/2017, TPC, MediaBench, and YCSB memory traces.  Those traces
require the original binaries and SimPoint infrastructure; this package
generates synthetic traces spanning the same behavioral space — memory
intensity (MPKI), row-buffer locality, working-set size, bank parallelism,
and read/write mix — with suite-archetype presets named after the suites
they emulate (see DESIGN.md for the substitution rationale).
"""

from repro.workloads.trace import Trace
from repro.workloads.synth import TraceSpec, generate_trace
from repro.workloads.suites import (
    multicore_mixes,
    single_core_suite,
    workload_by_name,
)
from repro.workloads.attack import double_sided_trace

__all__ = [
    "Trace",
    "TraceSpec",
    "generate_trace",
    "single_core_suite",
    "multicore_mixes",
    "workload_by_name",
    "double_sided_trace",
]

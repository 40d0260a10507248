"""Event-driven DDR5 memory-system simulator (the Ramulator 2.0 stand-in).

Models the evaluated system of Table 2: out-of-order-ish cores with a
128-entry instruction window feeding a FR-FCFS memory controller over a
single DDR5 channel with 2 ranks x 8 bank groups x 2 banks, with periodic
refresh, RowHammer-mitigation plugins (:mod:`repro.mitigations`), and the
PaCRAM refresh-latency policy (:mod:`repro.core`) layered on top.

The simulator is request/command-granular rather than cycle-by-cycle: each
serviced request analytically reserves bank, rank, and data-bus time, which
preserves the interference effects the paper measures (preventive refreshes
blocking banks) while staying fast enough for multi-configuration sweeps in
pure Python.
"""

from repro.sim.commands import Command, CommandObserver
from repro.sim.config import SystemConfig
from repro.sim.request import Request, RequestType
from repro.sim.addrmap import AddressMapper, DecodedAddress
from repro.sim.controller import MemoryController, RefreshLatencyPolicy
from repro.sim.core import CoreModel
from repro.sim.system import MemorySystem, SimulationResult
from repro.sim.stats import ControllerStats, weighted_speedup

__all__ = [
    "Command",
    "CommandObserver",
    "SystemConfig",
    "Request",
    "RequestType",
    "AddressMapper",
    "DecodedAddress",
    "MemoryController",
    "RefreshLatencyPolicy",
    "CoreModel",
    "MemorySystem",
    "SimulationResult",
    "ControllerStats",
    "weighted_speedup",
]

"""PaCRAM: Partial Charge Restoration for Aggressive Mitigation (§8).

The paper's contribution.  PaCRAM sits in the memory controller next to an
existing RowHammer mitigation mechanism and:

1. issues most preventive refreshes with a **reduced** charge-restoration
   latency (partial charge restoration), chosen from real-chip
   characterization data;
2. scales the mitigation's configured RowHammer threshold down by the
   measured ``N_RH`` reduction ratio, so security is unchanged (§8.2);
3. bounds consecutive partial restorations per row with the fully-restored
   bit vector (FR) and the full-charge-restoration interval ``t_FCRI``
   (§8.3), guaranteeing data retention.

The Appendix-B extension to periodic refreshes lives in
:mod:`repro.core.periodic`; the hardware-cost model in
:mod:`repro.core.area`; the §10 profiling-cost model in
:mod:`repro.core.profiling`.
"""

from repro.core.config import PaCRAMConfig, full_charge_restoration_interval_ns
from repro.core.fr_bitvector import FRBitVector
from repro.core.pacram import PaCRAM
from repro.core.periodic import PeriodicPaCRAM
from repro.core.area import (
    XEON_DIE_MM2,
    fr_access_latency_ns,
    fr_area_fraction_of_controller,
    fr_area_fraction_of_xeon,
    fr_area_mm2,
    fr_storage_bytes,
)
from repro.core.profiling import ProfilingCost, profiling_cost
from repro.core.ondie import ModeRegister, OnDiePaCRAM
from repro.core.spd import SpdEntry, SpdRecord
from repro.core.online_profiling import OnlineProfiler, ProfilingBatch
from repro.core.security import (
    AttackOutcome,
    secure_configuration,
    worst_case_attack,
)

__all__ = [
    "PaCRAMConfig",
    "full_charge_restoration_interval_ns",
    "FRBitVector",
    "PaCRAM",
    "PeriodicPaCRAM",
    "XEON_DIE_MM2",
    "fr_area_mm2",
    "fr_area_fraction_of_xeon",
    "fr_area_fraction_of_controller",
    "fr_access_latency_ns",
    "fr_storage_bytes",
    "ProfilingCost",
    "profiling_cost",
    "ModeRegister",
    "OnDiePaCRAM",
    "SpdEntry",
    "SpdRecord",
    "OnlineProfiler",
    "ProfilingBatch",
    "AttackOutcome",
    "worst_case_attack",
    "secure_configuration",
]

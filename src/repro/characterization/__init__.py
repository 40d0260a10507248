"""Characterization methodology (§4) and experiments (§5-§7).

Implements the paper's Algorithm 1 — worst-case data pattern selection,
retention pre-check, bi-section ``N_RH`` search, and BER measurement — plus
the sweeps that produce every characterization figure: charge-restoration
latency (Figs. 6-9), temperature (Fig. 10), repeated partial restoration
(Figs. 11-12), Half-Double (Fig. 13), and data retention (Fig. 14).
"""

from repro.characterization.results import (
    ModuleCharacterization,
    RowMeasurement,
)
from repro.characterization.algorithm1 import (
    CharacterizationConfig,
    measure_row,
    perform_rh,
)
from repro.characterization.probecache import ProbeCache
from repro.characterization.rows import select_test_rows
from repro.characterization.sweeps import (
    characterize_module,
    sweep_npr,
    sweep_temperature,
    sweep_tras,
)
from repro.characterization.vectorized import measure_rows
from repro.characterization.halfdouble import halfdouble_row_fraction
from repro.characterization.retention import retention_failure_fractions

__all__ = [
    "ModuleCharacterization",
    "RowMeasurement",
    "CharacterizationConfig",
    "measure_row",
    "measure_rows",
    "perform_rh",
    "ProbeCache",
    "select_test_rows",
    "characterize_module",
    "sweep_tras",
    "sweep_npr",
    "sweep_temperature",
    "halfdouble_row_fraction",
    "retention_failure_fractions",
]

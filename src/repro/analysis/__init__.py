"""Analysis: box statistics, figure data builders, and table renderers.

Each ``figN_*`` function in :mod:`repro.analysis.figures` regenerates the
data behind one figure of the paper, at a caller-chosen scale; the
:mod:`repro.analysis.tables` module renders Tables 1/3/4; and
:mod:`repro.analysis.experiments` indexes every experiment by its paper
identifier.
"""

from repro.analysis.baselines import BaselineCache, baseline_code_digest
from repro.analysis.boxstats import BoxStats
from repro.analysis.runner import (
    PACRAM_BEST_FACTORS,
    pacram_reference_config,
    run_simulation,
)
from repro.analysis.experiments import EXPERIMENTS, experiment_ids
from repro.analysis.sweeprunner import SweepGrid, SweepRunner

__all__ = [
    "BaselineCache",
    "baseline_code_digest",
    "BoxStats",
    "PACRAM_BEST_FACTORS",
    "pacram_reference_config",
    "run_simulation",
    "EXPERIMENTS",
    "experiment_ids",
    "SweepGrid",
    "SweepRunner",
]

"""Per-row cell populations: where individual rows get their personality.

A physical DRAM row contains ~64K cells whose RowHammer flip thresholds and
retention times vary.  Sampling 64K values per row per test would be slow and
pointless; instead each row carries a small set of deterministic parameters
(drawn from the module's seed tree) that describe its cell-threshold
*distribution*, and bitflip counts are evaluated analytically from it.

Calibration targets (tests assert these):

* the minimum ``N_RH`` across a tested bank matches the module's catalog
  value within a few percent;
* the per-row ``N_RH``-reduction statistics match Fig. 8 (a small fraction of
  rows is much more sensitive to partial restoration, and the weakest rows
  are *not* the most sensitive ones);
* ``BER`` grows superlinearly as restoration weakens (Fig. 9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.dram.catalog import ModuleSpec
from repro.dram.charge import ChargeModel, interpolate_curve
from repro.dram.disturbance import (
    ALL_PATTERNS,
    PATTERN_BASE_EFFECTIVENESS,
    DataPattern,
    HammerDose,
)
from repro.dram.vendor import Manufacturer
from repro.errors import ConfigError
from repro.rng import SeedTree
from repro.units import MS

#: Median cell flip threshold relative to the row's weakest cell.
_MEDIAN_CELL_MULTIPLIER = 30.0
#: Lognormal sigma of cell thresholds within a row, per vendor.
_CELL_SIGMA = {Manufacturer.H: 0.85, Manufacturer.M: 0.95, Manufacturer.S: 0.75}
#: BER bias growth below the vendor's BER-safe latency (per unit factor).
_BER_BIAS_GAIN = {Manufacturer.H: 0.55, Manufacturer.M: 0.05, Manufacturer.S: 0.85}
#: Mean of the exponential "extra sensitivity" of rows to partial
#: restoration, per vendor (drives the Fig. 8 outlier fractions).
_SENSITIVITY_MEAN = {Manufacturer.H: 0.05, Manufacturer.M: 0.05, Manufacturer.S: 0.06}
#: Probability that a row belongs to the highly-sensitive subpopulation.
_SENSITIVE_ROW_PROB = 0.004


def _phi(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


@dataclass(frozen=True)
class RowTraits:
    """The deterministic per-row parameters sampled once per row."""

    base_nrh: float  #: N_RH at nominal tRAS, worst-case data pattern.
    sensitivity: float  #: scaling of the module's N_RH-reduction (>= ~1).
    sensitive_extra_drop: float  #: extra drop at full reduction (outliers).
    retention_strength: float  #: weakest-cell retention vs module minimum.
    pattern_effectiveness: dict[DataPattern, float]  #: per-row kappa.
    halfdouble_draw: float  #: uniform draw deciding Half-Double exposure.
    cells: int  #: cells in the row.
    worst_effectiveness: float  #: max of ``pattern_effectiveness`` (cached).


def draw_traits(rng, spec: ModuleSpec) -> RowTraits:
    """Sample one row's traits from its dedicated generator.

    This is the single definition of the draw sequence: the scalar path
    (:class:`RowPopulation`) and the bank-batch path
    (:class:`repro.dram.kernels.BankTraits`) both call it, which is what
    guarantees their traits are bit-identical.
    """
    min_nrh = spec.nominal_nrh
    if min_nrh is None:
        base_nrh = math.inf  # module exhibits no bitflips (H0)
    else:
        # Gamma-distributed offset above the module minimum; with a few
        # thousand tested rows the sample minimum lands within ~2 %.
        base_nrh = min_nrh * (1.0 + rng.gamma(2.0, 0.35))
    mean = _SENSITIVITY_MEAN[spec.manufacturer]
    sensitivity = 1.0 + rng.exponential(mean)
    if min_nrh is not None and math.isfinite(base_nrh):
        # Fig. 8: stronger rows tend to be somewhat more sensitive.
        sensitivity += 0.02 * math.log(base_nrh / min_nrh + 1.0) * rng.random()
    sensitive_extra = 0.0
    if rng.random() < _SENSITIVE_ROW_PROB:
        sensitive_extra = rng.uniform(0.25, 0.5)
    retention_strength = 1.0 + rng.gamma(1.2, 0.6)
    # One draw of every pattern's normal: the same stream as one at a time.
    normals = rng.standard_normal(len(PATTERN_BASE_EFFECTIVENESS)).tolist()
    effectiveness = {
        pattern: base * (1.0 + 0.04 * normal)
        for (pattern, base), normal in zip(PATTERN_BASE_EFFECTIVENESS.items(),
                                           normals)
    }
    return RowTraits(
        base_nrh=base_nrh,
        sensitivity=sensitivity,
        sensitive_extra_drop=sensitive_extra,
        retention_strength=retention_strength,
        pattern_effectiveness=effectiveness,
        halfdouble_draw=rng.random(),
        cells=spec.row_bits(),
        worst_effectiveness=max(effectiveness.values()),
    )


class RowPopulation:
    """Cell-level behavior of one physical DRAM row."""

    def __init__(self, spec: ModuleSpec, charge: ChargeModel,
                 bank: int, row: int, seeds: SeedTree,
                 traits: RowTraits | None = None) -> None:
        self.spec = spec
        self.charge = charge
        self.bank = bank
        self.row = row
        self.traits = (traits if traits is not None
                       else self._sample_traits(seeds))
        self._sigma = _CELL_SIGMA[spec.manufacturer]
        self._ber_gain = _BER_BIAS_GAIN[spec.manufacturer]

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def _sample_traits(self, seeds: SeedTree) -> RowTraits:
        rng = seeds.generator("row", self.bank, self.row)
        return draw_traits(rng, self.spec)

    # ------------------------------------------------------------------
    # derived physics
    # ------------------------------------------------------------------
    def worst_case_pattern(self) -> DataPattern:
        """The data pattern that flips the most cells in this row."""
        eff = self.traits.pattern_effectiveness
        return max(ALL_PATTERNS, key=lambda p: eff[p])

    def nrh_ratio(self, factor: float, n_pr: int = 1,
                  temperature_c: float = 80.0) -> float:
        """This row's N_RH scaling vs its own nominal value.

        Sensitive-row outliers (Fig. 8) can drop far more than the module
        curve, but never *below* the module's weakest row at the same
        latency — in the paper's data, the per-module minimum (Table 3) and
        the outlier population (Fig. 8) coexist, so the outliers start from
        high-N_RH rows and land above the minimum.
        """
        module_ratio = self.charge.nrh_ratio(factor, n_pr, temperature_c)
        drop = self.traits.sensitivity * (1.0 - min(module_ratio, 1.0))
        if self.traits.sensitive_extra_drop and factor < 1.0:
            drop += self.traits.sensitive_extra_drop * (1.0 - factor) / 0.55
        ratio = module_ratio if module_ratio >= 1.0 else 1.0 - drop
        ratio = max(ratio, 0.02)
        minimum = self.spec.nominal_nrh
        if minimum and math.isfinite(self.traits.base_nrh):
            floor = 0.98 * minimum * max(module_ratio, 0.02) / self.traits.base_nrh
            ratio = max(ratio, floor)
        return ratio

    def effective_nrh(self, factor: float = 1.0, n_pr: int = 1,
                      temperature_c: float = 80.0,
                      pattern: DataPattern | None = None) -> float:
        """Minimum per-aggressor double-sided hammer count that flips at
        least one cell, under the given restoration state."""
        base = self.traits.base_nrh
        if not math.isfinite(base):
            return math.inf
        kappa = self._relative_effectiveness(pattern)
        return base * self.nrh_ratio(factor, n_pr, temperature_c) / kappa

    def hammer_flips(self, dose: HammerDose, *, factor: float = 1.0,
                     n_pr: int = 1, temperature_c: float = 80.0,
                     pattern: DataPattern | None = None) -> int:
        """Number of cells flipped by an accumulated hammering dose."""
        nrh = self.effective_nrh(factor, n_pr, temperature_c, pattern)
        if not math.isfinite(nrh):
            return 0
        equivalent = dose.effective() / 2.0  # per-aggressor double-sided units
        if equivalent < nrh:
            return 0
        z = (math.log(equivalent) - math.log(_MEDIAN_CELL_MULTIPLIER * nrh))
        z /= self._sigma
        z += self._ber_bias(factor)
        flips = int(self.traits.cells * _phi(z))
        return max(flips, 1)

    def retention_flips(self, *, factor: float = 1.0, n_pr: int = 1,
                        wait_ns: float = 64 * MS,
                        temperature_c: float = 80.0) -> int:
        """Cells flipped purely by charge leakage (no hammering)."""
        fails = self.charge.retention_fails(
            factor, n_pr, wait_ns=wait_ns, temperature_c=temperature_c,
            row_strength=self.traits.retention_strength)
        if not fails:
            return 0
        # Retention failures affect a handful of weak cells per row.
        severity = max(1.0, wait_ns / (64 * MS))
        return max(1, int(1 + 2 * math.log(severity + 1.0)))

    def halfdouble_vulnerable(self, factor: float, n_pr: int = 1) -> bool:
        """Whether the Half-Double pattern flips cells in this row (§6)."""
        profile = self.charge.profile
        if profile.halfdouble_row_fraction <= 0.0:
            return False
        shape = self.charge.profile.halfdouble_shape
        scale = interpolate_curve(shape, min(factor, 1.0)) if shape else 1.0
        # Weak dependence on restoration count (~1.5 % per Fig. 13 obs. 4).
        scale *= 1.0 + 0.003 * math.log(max(n_pr, 1))
        prob = min(1.0, profile.halfdouble_row_fraction * scale)
        return self.traits.halfdouble_draw < prob

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _relative_effectiveness(self, pattern: DataPattern | None) -> float:
        if pattern is None:
            return 1.0
        worst = self.traits.worst_effectiveness
        if worst <= 0:
            raise ConfigError("non-positive pattern effectiveness")
        return self.traits.pattern_effectiveness[pattern] / worst

    def _ber_bias(self, factor: float) -> float:
        """Extra BER growth below the vendor's BER-safe latency (Fig. 9)."""
        safe = self.charge.profile.safe_tras_factor_ber
        return self._ber_gain * max(0.0, safe - factor)

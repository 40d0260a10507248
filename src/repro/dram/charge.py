"""Charge-restoration and data-retention physics for the device model.

The real chips' behavior under reduced charge-restoration latency is what the
paper measures; since we have no FPGA platform, this module *is* the chip:
it converts a module's published measurements (Appendix C) into continuous
physical response curves the device model evaluates.

Three coupled behaviors are modeled per module:

1. **RowHammer-threshold scaling** ``nrh_ratio(factor, n_pr)``: how much a
   victim row's ``N_RH`` shrinks when it was last restored with
   ``tRAS = factor x tRAS(nom)``, ``n_pr`` consecutive times.  Anchored to
   Table 3 (single restoration) and Table 4 (``N_PCR`` restorations).
2. **Consecutive-partial-restoration limit** ``npcr_limit(factor)``: the
   largest number of consecutive partial restorations after which the
   module's weakest row still retains data for a full refresh window
   (Table 4's ``N_PCR`` column; Fig. 11/12's retention bitflips).
3. **Retention-time scaling** (vendor level, Fig. 14): the fraction of rows
   whose weakest cell cannot retain data for a given time after partial
   restoration.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from repro.dram.catalog import MAX_TESTED_NPCR, ModuleSpec
from repro.dram.timing import TESTED_TRAS_FACTORS
from repro.dram.vendor import Manufacturer, VendorProfile, vendor_profile
from repro.errors import ConfigError
from repro.units import MS

#: Sentinel meaning "no consecutive-restoration limit observed" (the paper
#: tested up to 15K restorations without failures for these cells).
UNLIMITED_NPCR: int = 10_000_000

#: Memo-table bound; characterization grids hit a handful of distinct
#: (factor, n_pr, temperature) points, so this is never reached in practice.
_MEMO_LIMIT: int = 65_536


class Curve:
    """A piecewise-linear curve with presorted anchors.

    The calibration anchors are sorted once at construction (the dict form
    re-sorted on every call, which dominated the scalar hot path).
    Evaluation uses the same arithmetic —
    ``y0 + (x - x0) / (x1 - x0) * (y1 - y0)``, clamped outside the anchor
    range — so results are bit-identical to the original per-call
    interpolation.
    """

    __slots__ = ("xs", "ys")

    def __init__(self, anchors: dict[float, float]) -> None:
        if not anchors:
            raise ConfigError("empty anchor set")
        points = sorted(anchors.items())
        self.xs: tuple[float, ...] = tuple(x for x, _ in points)
        self.ys: tuple[float, ...] = tuple(y for _, y in points)

    def at(self, x: float) -> float:
        """Interpolated value at ``x`` (clamped to the anchor range)."""
        xs, ys = self.xs, self.ys
        if x <= xs[0]:
            return ys[0]
        if x >= xs[-1]:
            return ys[-1]
        # First index with xs[i] >= x; x lies in segment (i - 1, i].  When x
        # equals an interior anchor this picks the segment *ending* at x,
        # matching the original left-to-right segment scan exactly.
        i = bisect_left(xs, x)
        x0, x1 = xs[i - 1], xs[i]
        y0, y1 = ys[i - 1], ys[i]
        frac = (x - x0) / (x1 - x0)
        return y0 + frac * (y1 - y0)



def interpolate_curve(anchors: dict[float, float], x: float) -> float:
    """Piecewise-linear interpolation through ``anchors`` (clamped outside).

    ``anchors`` maps x-positions to values; x-positions need not be sorted.
    Repeated evaluations of the same anchor set should build a
    :class:`Curve` once instead.

    >>> interpolate_curve({0.0: 0.0, 1.0: 10.0}, 0.25)
    2.5
    """
    return Curve(anchors).at(x)


@dataclass(frozen=True)
class RetentionParams:
    """Vendor-level retention calibration (drives Fig. 14).

    ``weakest_row_retention_ns`` is the module-minimum weakest-cell retention
    time at full charge and 80 C; ``tail_scale`` and ``tail_exponent`` shape
    the fraction of rows whose weakest cell falls below a given retention
    time (a sparse polynomial tail above the minimum).
    """

    weakest_row_retention_ns: float
    tail_scale: float
    tail_exponent: float
    #: Margin decay exponent per decade of consecutive partial restorations.
    pcr_margin_beta: float


_RETENTION: dict[Manufacturer, RetentionParams] = {
    # H: no failures at 256 ms even x10 at 0.27; failures appear at 0.18-ish.
    Manufacturer.H: RetentionParams(1_400 * MS, 2e-4, 2.0, 0.05),
    # M: flat; no failures at 512 ms even x10 at 0.27.
    Manufacturer.M: RetentionParams(2_600 * MS, 5e-5, 2.0, 0.0),
    # S: failures at 256 ms at 0.27, strongly dependent on restoration count.
    Manufacturer.S: RetentionParams(1_150 * MS, 4e-4, 2.4, 0.28),
}

#: Vendor-level restoration-margin anchors: the fraction of full retention
#: margin left after a single partial restoration at each tRAS factor.
#: Calibrated so the Fig. 14 observations hold (see tests).
_MARGIN_ANCHORS: dict[Manufacturer, dict[float, float]] = {
    Manufacturer.H: {1.00: 1.00, 0.81: 0.98, 0.64: 0.95, 0.45: 0.80,
                     0.36: 0.55, 0.27: 0.30, 0.18: 0.035},
    Manufacturer.M: {1.00: 1.00, 0.81: 1.00, 0.64: 0.99, 0.45: 0.97,
                     0.36: 0.94, 0.27: 0.90, 0.18: 0.80},
    Manufacturer.S: {1.00: 1.00, 0.81: 0.90, 0.64: 0.75, 0.45: 0.48,
                     0.36: 0.34, 0.27: 0.105, 0.18: 0.030},
}


class ChargeModel:
    """Per-module restoration physics, calibrated from the catalog."""

    def __init__(self, spec: ModuleSpec, profile: VendorProfile | None = None) -> None:
        self.spec = spec
        self.profile = profile or vendor_profile(spec.manufacturer)
        self._single_ratio_anchors = self._build_single_ratio_anchors()
        self._repeated_ratio_anchors = self._build_repeated_ratio_anchors()
        self._npcr_anchors = self._build_npcr_anchors()
        self._retention = _RETENTION[spec.manufacturer]
        self._margin_anchors = _MARGIN_ANCHORS[spec.manufacturer]
        # Presorted curves + small memo tables.  Characterization evaluates
        # these at a handful of (factor, n_pr, temperature) grid points but
        # millions of times; the memos make repeat lookups dict-speed while
        # staying bit-identical to a fresh interpolation.
        self._single_curve = Curve(self._single_ratio_anchors)
        self._repeated_curve = Curve(self._repeated_ratio_anchors)
        self._npcr_curve = Curve(self._npcr_anchors)
        self._margin_curve = Curve(self._margin_anchors)
        self._npcr_memo: dict[float, int] = {}
        self._ratio_memo: dict[tuple[float, int, float], float] = {}
        self._margin_memo: dict[tuple[float, int], float] = {}

    # ------------------------------------------------------------------
    # calibration-curve construction
    # ------------------------------------------------------------------
    def _build_single_ratio_anchors(self) -> dict[float, float]:
        """Table-3 normalized N_RH anchors, with retention-fail cells
        replaced by a downward extrapolation (the hammer threshold itself is
        not zero there; the *measurement* reads zero because of retention)."""
        spec = self.spec
        if not spec.vulnerable():
            return {f: 1.0 for f in TESTED_TRAS_FACTORS}
        anchors: dict[float, float] = {}
        nonzero = [(f, spec.nrh_ratio(f)) for f in TESTED_TRAS_FACTORS
                   if spec.lowest_nrh[f]]
        for factor in TESTED_TRAS_FACTORS:
            ratio = spec.nrh_ratio(factor)
            if ratio:
                anchors[factor] = ratio
                continue
            # Retention-fail cell: extrapolate the trend of the two smallest
            # non-failing factors, clamped well above zero.
            lo = sorted(nonzero)[:2]
            if len(lo) == 2:
                (f0, r0), (f1, r1) = lo
                slope = (r1 - r0) / (f1 - f0) if f1 != f0 else 0.0
                anchors[factor] = max(0.10, r0 + slope * (factor - f0))
            else:
                anchors[factor] = 0.5
        return anchors

    def _build_repeated_ratio_anchors(self) -> dict[float, float]:
        """Table-4 normalized N_RH anchors (after N_PCR restorations)."""
        spec = self.spec
        nominal = spec.nominal_nrh
        anchors: dict[float, float] = {1.00: 1.0}
        for factor, params in spec.pacram.items():
            if params is not None and nominal:
                anchors[factor] = params.nrh / nominal
            else:
                # N/A cell: repeated restoration is unsafe; the asymptotic
                # hammer threshold mirrors the single-restoration value.
                anchors[factor] = self._single_ratio_anchors[factor]
        return anchors

    def _build_npcr_anchors(self) -> dict[float, float]:
        """Consecutive-partial-restoration limits per factor (log10 space)."""
        spec = self.spec
        anchors: dict[float, float] = {1.00: math.log10(UNLIMITED_NPCR)}
        for factor, params in spec.pacram.items():
            if not spec.vulnerable():
                limit = UNLIMITED_NPCR
            elif params is None:
                limit = 0  # even one partial restoration breaks 64 ms retention
            elif params.npcr >= MAX_TESTED_NPCR:
                limit = UNLIMITED_NPCR  # no limit observed up to 15K
            else:
                limit = params.npcr
            anchors[factor] = math.log10(max(limit, 0.5))
        return anchors

    # ------------------------------------------------------------------
    # public physics
    # ------------------------------------------------------------------
    def npcr_limit(self, factor: float) -> int:
        """Max consecutive partial restorations before the module's weakest
        row loses data within a 64 ms refresh window."""
        factor = self._clamp_factor(factor)
        if factor >= 1.0 or not self.spec.vulnerable():
            return UNLIMITED_NPCR
        cached = self._npcr_memo.get(factor)
        if cached is not None:
            return cached
        log_limit = self._npcr_curve.at(factor)
        limit = min(int(10 ** log_limit), UNLIMITED_NPCR)
        if len(self._npcr_memo) < _MEMO_LIMIT:
            self._npcr_memo[factor] = limit
        return limit

    def nrh_ratio(self, factor: float, n_pr: int = 1, temperature_c: float = 80.0) -> float:
        """N_RH scaling vs nominal for a row restored ``n_pr`` consecutive
        times at ``factor x tRAS(nom)``.

        This is the module-level (weakest-row) curve; per-row jitter is
        applied by :mod:`repro.dram.cell_array`.  The value is *not* zeroed
        for retention failures — use :meth:`retention_fails` for that.
        """
        factor = self._clamp_factor(factor)
        if n_pr < 1:
            raise ConfigError(f"n_pr must be >= 1, got {n_pr}")
        key = (factor, n_pr, temperature_c)
        cached = self._ratio_memo.get(key)
        if cached is not None:
            return cached
        r1 = self._single_curve.at(factor)
        r_inf = self._repeated_curve.at(factor)
        limit = self.npcr_limit(factor)
        tau = max(1.0, min(limit, MAX_TESTED_NPCR) / 4.0)
        ratio = r_inf + (r1 - r_inf) * math.exp(-(n_pr - 1) / tau)
        ratio *= self._temperature_scale(temperature_c)
        ratio = max(ratio, 0.0)
        if len(self._ratio_memo) < _MEMO_LIMIT:
            self._ratio_memo[key] = ratio
        return ratio

    def retention_fails(self, factor: float, n_pr: int = 1,
                        wait_ns: float = 64 * MS,
                        temperature_c: float = 80.0,
                        row_strength: float = 1.0) -> bool:
        """Whether a row loses data after ``wait_ns`` of idle time following
        ``n_pr`` partial restorations at ``factor``.

        ``row_strength`` >= 1 scales the row's weakest-cell retention time
        relative to the module's weakest row (1.0 = weakest row).  Within the
        module's observed-safe envelope (``n_pr <= npcr_limit``) a refresh
        window of 64 ms is guaranteed to be retained, matching Table 4;
        beyond the limit the weakest rows start flipping (Fig. 11/12).
        """
        factor = self._clamp_factor(factor)
        capability = self._retention_capability(
            factor, n_pr, temperature_c, row_strength)
        if factor >= 1.0:
            return capability < wait_ns
        limit = self.npcr_limit(factor)
        if n_pr > limit:
            return row_strength <= self._overrun_survivor_strength(n_pr, limit)
        # Observed-safe envelope: the module retains a full 64 ms window.
        capability = max(capability, 64 * MS * 1.02 * row_strength)
        return capability < wait_ns

    def retention_fail_fraction(self, factor: float, n_pr: int,
                                wait_ns: float,
                                temperature_c: float = 80.0) -> float:
        """Fraction of rows with at least one retention bitflip (Fig. 14)."""
        factor = self._clamp_factor(factor)
        limit = self.npcr_limit(factor)
        if factor < 1.0 and n_pr > limit:
            # Beyond the safe envelope the failure front sweeps in quickly.
            overrun = n_pr / max(limit, 1)
            return min(1.0, 0.01 * overrun)
        params = self._retention
        base = self._retention_capability(factor, n_pr, temperature_c, 1.0)
        if factor < 1.0:
            base = max(base, 64 * MS * 1.02)
        if base <= 0:
            return 1.0
        excess = wait_ns / base
        if excess <= 1.0:
            return 0.0
        frac = params.tail_scale * (excess - 1.0) ** params.tail_exponent
        return min(frac, 1.0)

    def _retention_capability(self, factor: float, n_pr: int,
                              temperature_c: float, row_strength: float) -> float:
        """Longest idle time a row retains data, in nanoseconds."""
        margin = 1.0 if factor >= 1.0 else self._retention_margin(factor, n_pr)
        return (self._retention.weakest_row_retention_ns * row_strength
                * margin / self._temperature_retention_scale(temperature_c))

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def check_invariants(self) -> list[str]:
        """Validate the calibrated physics; returns problem descriptions.

        An empty list means the model is self-consistent.  Checked:

        * retention-margin anchors (the charge proxy) lie in [0, 1] and are
          monotone nondecreasing in the tRAS factor — less restoration time
          can never leave *more* charge;
        * N_PCR limits are monotone nondecreasing in the tRAS factor;
        * N_RH ratio anchors are bounded (per-module measurements are noisy
          and may exceed 1.0 slightly, but not wildly);
        * retention parameters describe non-negative leakage.

        Per-module N_RH ratio anchors are deliberately *not* required to be
        monotone: the published Table 3/4 measurements carry experimental
        noise (e.g. ratios above 1.0 at mid factors), and the model
        reproduces them as-is.
        """
        problems: list[str] = []
        mid = self.spec.module_id

        def _monotone(anchors: dict[float, float], label: str) -> None:
            points = sorted(anchors.items())
            for (x0, y0), (x1, y1) in zip(points, points[1:]):
                if y1 < y0 - 1e-12:
                    problems.append(
                        f"{mid}: {label} not monotone: "
                        f"f({x1})={y1:.4g} < f({x0})={y0:.4g}")

        for factor, margin in self._margin_anchors.items():
            if not 0.0 <= margin <= 1.0:
                problems.append(
                    f"{mid}: margin anchor at factor {factor} out of "
                    f"[0, 1]: {margin:.4g}")
        _monotone(self._margin_anchors, "restoration-margin curve")
        _monotone(self._npcr_anchors, "N_PCR limit curve")
        for label, anchors in (("single", self._single_ratio_anchors),
                               ("repeated", self._repeated_ratio_anchors)):
            for factor, ratio in anchors.items():
                if not 0.0 <= ratio <= 1.5:
                    problems.append(
                        f"{mid}: {label}-restoration N_RH ratio at factor "
                        f"{factor} out of [0, 1.5]: {ratio:.4g}")
        params = self._retention
        if params.weakest_row_retention_ns <= 0:
            problems.append(f"{mid}: non-positive weakest-row retention")
        if params.tail_scale < 0 or params.tail_exponent <= 0:
            problems.append(f"{mid}: invalid retention tail shape")
        if params.pcr_margin_beta < 0:
            problems.append(f"{mid}: negative PCR margin decay (would mean "
                            "charge *grows* with repeated partials)")
        for factor in (0.18, 0.27, 0.36, 0.45, 0.64, 0.81, 1.0):
            for n_pr in (1, 8, 128):
                margin = self._retention_margin(factor, n_pr)
                if not 0.0 <= margin <= 1.0:
                    problems.append(
                        f"{mid}: retention margin({factor}, {n_pr}) out of "
                        f"[0, 1]: {margin:.4g}")
                ratio = self.nrh_ratio(factor, n_pr)
                if not 0.0 <= ratio <= 1.5:
                    problems.append(
                        f"{mid}: nrh_ratio({factor}, {n_pr}) out of "
                        f"[0, 1.5]: {ratio:.4g}")
            if self.npcr_limit(factor) < 0:
                problems.append(f"{mid}: negative N_PCR limit at {factor}")
        return problems

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _retention_margin(self, factor: float, n_pr: int) -> float:
        if factor >= 1.0:
            return 1.0
        key = (factor, n_pr)
        cached = self._margin_memo.get(key)
        if cached is not None:
            return cached
        margin = self._margin_curve.at(factor)
        beta = self._retention.pcr_margin_beta
        if beta > 0.0 and n_pr > 1:
            margin *= n_pr ** (-beta * (1.0 - factor))
        if len(self._margin_memo) < _MEMO_LIMIT:
            self._margin_memo[key] = margin
        return margin

    @staticmethod
    def _overrun_survivor_strength(n_pr: int, limit: int) -> float:
        """How far above the weakest row the retention-failure front has
        advanced once the consecutive-restoration limit is exceeded.

        At the boundary (overrun = 1) about the weakest ~10 % of rows fail;
        the front advances logarithmically with further overrun, matching
        Fig. 12's gradual spread of N_RH = 0 rows.
        """
        overrun = n_pr / max(limit, 1)
        return 1.12 + 0.25 * math.log10(max(overrun, 1.0))

    def _temperature_scale(self, temperature_c: float) -> float:
        """Tiny N_RH temperature dependence (Takeaway 4: < 0.31 %)."""
        sensitivity = self.profile.temperature_nrh_sensitivity
        return 1.0 - sensitivity * (temperature_c - 80.0) / 30.0

    @staticmethod
    def _temperature_retention_scale(temperature_c: float) -> float:
        """Leakage roughly doubles every 10 C (Arrhenius-like)."""
        return 2.0 ** ((temperature_c - 80.0) / 10.0)

    @staticmethod
    def _clamp_factor(factor: float) -> float:
        if factor <= 0.0:
            raise ConfigError(f"tRAS factor must be positive, got {factor}")
        return min(factor, 1.0)

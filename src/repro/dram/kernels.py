"""Vectorized bank-level device-model kernels (the characterization fast path).

The scalar model (:mod:`repro.dram.cell_array`) evaluates one row at a time;
characterizing a bank calls it millions of times with the same
``(factor, n_pr, temperature, pattern)`` arguments and only the per-row
traits varying.  This module holds the struct-of-arrays form of that
evaluation: :class:`BankTraits` samples a whole batch of rows' traits (using
each row's *own* seed-tree generator, so the draws are bit-identical to the
per-row path) and evaluates the flip physics over row vectors.

What the physics derives from a test point alone — the module's N_RH
ratio, the BER bias, the retention margin, the N_PCR limit — is one
:class:`PointTerms` per point.  An evaluation takes one point's terms, which
broadcast over every row, or :meth:`PointTerms.columns` of many points, one
value per element, so a single batch can evaluate rows at different test
points.

Bit-exactness contract
----------------------
The vectorized kernels must produce *bit-identical* results to the scalar
path — the scalar path is the parity oracle (see
``tests/test_characterization_vectorized.py``).  Two rules keep that true:

* every elementwise arithmetic step replicates the scalar expression's
  exact operation order and parenthesization (IEEE-754 ``+ - * /`` are
  exactly rounded, so elementwise numpy float64 arithmetic matches Python
  float arithmetic bit-for-bit when the operation sequence matches);
* transcendentals (``log``, ``erf``) are *not* vectorized — numpy's SIMD
  implementations may differ from ``math``'s by ULPs — and instead map
  ``math.log`` / ``math.erf``, the scalar path's own functions, over the
  Python floats (``.tolist()``) of only the elements that actually flip,
  between numpy steps that keep the scalar expression's order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple, Sequence

import math

import numpy as np

from repro.dram.catalog import ModuleSpec
from repro.dram.cell_array import (
    _BER_BIAS_GAIN,
    _CELL_SIGMA,
    _MEDIAN_CELL_MULTIPLIER,
    RowTraits,
    draw_traits,
)
from repro.dram.charge import ChargeModel
from repro.dram.disturbance import DataPattern
from repro.errors import ConfigError
from repro.rng import SeedTree
from repro.units import MS


@dataclass
class EvalCounters:
    """Device-model evaluation counters for the fast path.

    ``model_evals`` counts per-row physics evaluations actually performed
    (a probe over ``k`` active rows adds ``k``); ``probe_batches`` counts
    probes evaluated over a batch of rows at once (the array tier's one
    call per batch evaluates a probe per pattern); ``cache_hits`` counts
    probes served from a memo instead of being evaluated.  The CI smoke
    test bounds ``model_evals`` per measured row — a counter, not a wall
    clock, so it cannot flake.
    """

    model_evals: int = 0
    probe_batches: int = 0
    cache_hits: int = 0

    def evals_per_row_point(self, rows: int, points: int) -> float:
        """Average model evaluations per (row, test-point) pair."""
        total = max(1, rows * points)
        return self.model_evals / total


class PointTerms(NamedTuple):
    """What the bank physics derives from one test point, before any row.

    :meth:`BankTraits.point_terms` builds one per point, with a float (or
    bool) per field; :meth:`columns` lays many points' terms over a batch,
    one value per element.  Either broadcasts against a batch's rows.
    """

    #: The restoration factor as given (the N_RH and BER physics use it).
    factor: Any
    #: The module-level N_RH curve, :meth:`ChargeModel.nrh_ratio`.
    module_ratio: Any
    #: Extra BER growth below the vendor's BER-safe latency (Fig. 9).
    ber_bias: Any
    #: The retention margin (1.0 at nominal latency).
    margin: Any
    #: Leakage scale at the test temperature.
    retention_scale: Any
    #: Whether the clamped factor is the nominal latency.
    nominal: Any
    #: Whether the N_PR exceeds the module's N_PCR limit at a reduced
    #: latency, where retention fails by strength alone.
    overrun: Any
    #: The retention strength the failure front has reached on overrun.
    survivor: Any

    @classmethod
    def columns(cls, terms: Sequence["PointTerms"],
                point: np.ndarray) -> "PointTerms":
        """Element ``e`` of a batch at point ``point[e]`` of ``terms``."""
        return cls(*(np.array(field)[point] for field in zip(*terms)))


class BankTraits:
    """Struct-of-arrays view of many rows' traits in one bank.

    Trait values are sampled through each row's dedicated generator stream
    (``seeds.generator("row", bank, row)``) — the same draws, in the same
    order, as :class:`repro.dram.cell_array.RowPopulation` — and then laid
    out as contiguous float64 arrays for vectorized evaluation.  The
    original :class:`RowTraits` objects are kept so per-row views
    (``RowPopulation``) can be built without resampling.

    Every physics method evaluates the elements of ``idx`` (row indices,
    repeats allowed; every row by default) at ``terms``: one test point's
    :meth:`point_terms`, or :meth:`PointTerms.columns` for each element's
    own point — the array tier batches a module's whole grid into one call
    per method.
    """

    def __init__(self, spec: ModuleSpec, charge: ChargeModel, bank: int,
                 rows: tuple[int, ...], traits: list[RowTraits]) -> None:
        if len(rows) != len(traits):
            raise ConfigError("rows/traits length mismatch")
        self.spec = spec
        self.charge = charge
        self.bank = bank
        self.rows = rows
        self.traits = traits
        self.index = {row: i for i, row in enumerate(rows)}
        self.cells = spec.row_bits()
        self._sigma = _CELL_SIGMA[spec.manufacturer]
        self._ber_gain = _BER_BIAS_GAIN[spec.manufacturer]
        self.base_nrh = np.array([t.base_nrh for t in traits], dtype=np.float64)
        self.sensitivity = np.array([t.sensitivity for t in traits],
                                    dtype=np.float64)
        self.sensitive_extra_drop = np.array(
            [t.sensitive_extra_drop for t in traits], dtype=np.float64)
        self.retention_strength = np.array(
            [t.retention_strength for t in traits], dtype=np.float64)
        self.worst_effectiveness = np.array(
            [t.worst_effectiveness for t in traits], dtype=np.float64)
        self.halfdouble_draw = np.array(
            [t.halfdouble_draw for t in traits], dtype=np.float64)
        patterns = traits[0].pattern_effectiveness.keys() if traits else ()
        self.pattern_effectiveness = {
            pattern: np.array([t.pattern_effectiveness[pattern]
                               for t in traits], dtype=np.float64)
            for pattern in patterns
        }

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def sample(cls, spec: ModuleSpec, charge: ChargeModel, bank: int,
               rows: tuple[int, ...], seeds: SeedTree,
               existing: dict[int, RowTraits] | None = None) -> "BankTraits":
        """Sample traits for ``rows``, reusing already-sampled traits.

        ``existing`` maps row -> traits the module already instantiated
        through the per-row path; reusing them keeps one source of truth
        (and the draws are identical either way).
        """
        traits: list[RowTraits] = []
        for row in rows:
            t = existing.get(row) if existing else None
            if t is None:
                t = draw_traits(seeds.generator("row", bank, row), spec)
            traits.append(t)
        return cls(spec, charge, bank, tuple(rows), traits)

    def __len__(self) -> int:
        return len(self.rows)

    # ------------------------------------------------------------------
    # vectorized physics (see module docstring for the parity contract)
    # ------------------------------------------------------------------
    def _all_idx(self) -> np.ndarray:
        return np.arange(len(self.rows))

    def point_terms(self, factor: float, n_pr: int,
                    temperature_c: float) -> PointTerms:
        """The per-point terms at one test point (one memoized
        :class:`ChargeModel` lookup each).

        ``n_pr`` is the program's restoration count.  At nominal latency
        the physics sees one restoration, as in the device model: a
        full-latency ACT resets the partial-restoration streak.
        """
        charge = self.charge
        clamped = charge._clamp_factor(factor)
        nominal = clamped >= 1.0
        if nominal:
            n_pr = 1
        limit = charge.npcr_limit(clamped)
        return PointTerms(
            factor=factor,
            module_ratio=charge.nrh_ratio(factor, n_pr, temperature_c),
            ber_bias=self._ber_bias(factor),
            margin=charge._retention_margin(clamped, n_pr),
            retention_scale=charge._temperature_retention_scale(
                temperature_c),
            nominal=nominal,
            overrun=not nominal and n_pr > limit,
            survivor=charge._overrun_survivor_strength(n_pr, limit))

    def nrh_ratio(self, terms: PointTerms,
                  idx: np.ndarray | None = None) -> np.ndarray:
        """Vector form of :meth:`RowPopulation.nrh_ratio` over ``idx``."""
        if idx is None:
            idx = self._all_idx()
        module_ratio = terms.module_ratio
        sens = self.sensitivity[idx]
        drop = sens * (1.0 - np.minimum(module_ratio, 1.0))
        # Rows with sensitive_extra_drop == 0 add an exact +0.0 at a reduced
        # latency, which IEEE-754 guarantees leaves `drop` unchanged.
        drop = np.where(terms.factor < 1.0,
                        drop + self.sensitive_extra_drop[idx]
                        * (1.0 - terms.factor) / 0.55,
                        drop)
        ratio = np.where(module_ratio >= 1.0, module_ratio, 1.0 - drop)
        ratio = np.maximum(ratio, 0.02)
        minimum = self.spec.nominal_nrh
        base = self.base_nrh[idx]
        if minimum:
            finite = np.isfinite(base)
            if finite.any():
                floor = (0.98 * minimum * np.maximum(module_ratio, 0.02)
                         / base)
                ratio = np.where(finite, np.maximum(ratio, floor), ratio)
        return ratio

    def effective_nrh(self, terms: PointTerms,
                      patterns: tuple[DataPattern, ...],
                      idx: np.ndarray | None = None) -> np.ndarray:
        """Vector form of :meth:`RowPopulation.effective_nrh`: one row per
        pattern of ``patterns``, one column per element of ``idx``."""
        if idx is None:
            idx = self._all_idx()
        worst = self.worst_effectiveness[idx]
        if (worst <= 0).any():
            raise ConfigError("non-positive pattern effectiveness")
        kappa = np.stack([self.pattern_effectiveness[pattern][idx]
                          for pattern in patterns]) / worst
        return self.base_nrh[idx] * self.nrh_ratio(terms, idx) / kappa

    def hammer_flips(self, equivalent: np.ndarray, terms: PointTerms,
                     nrh: np.ndarray) -> np.ndarray:
        """Vector form of :meth:`RowPopulation.hammer_flips`.

        ``equivalent`` is the per-aggressor double-sided dose
        (``dose.effective() / 2.0``), one per element, and ``nrh`` the
        elements' :meth:`effective_nrh` (its rows, one per pattern, or one
        pattern's row): a row's threshold does not depend on the dose, so
        callers evaluate it once per pattern.  Returns a count per entry of
        ``nrh``.
        """
        flips = np.zeros(nrh.shape, dtype=np.int64)
        active = np.isfinite(nrh) & (equivalent >= nrh)
        if not active.any():
            return flips
        # The element of each flipping entry; each dose's log once,
        # however many patterns it flips under.
        element = active.nonzero()[-1]
        dosed = active.reshape(-1, len(equivalent)).any(axis=0)
        log_dose = np.zeros(len(equivalent))
        log_dose[dosed] = _mapped(math.log, equivalent[dosed])
        z = ((log_dose[element]
              - _mapped(math.log, _MEDIAN_CELL_MULTIPLIER * nrh[active]))
             / self._sigma
             + np.full(len(equivalent), terms.ber_bias)[element])
        phi = 0.5 * (1.0 + _mapped(math.erf, z / math.sqrt(2.0)))
        flips[active] = np.maximum((self.cells * phi).astype(np.int64), 1)
        return flips

    def retention_fails(self, terms: PointTerms, *, wait_ns: np.ndarray,
                        idx: np.ndarray | None = None) -> np.ndarray:
        """Which rows of ``idx`` lose retention after idling ``wait_ns``.

        The boolean predicate underneath :meth:`retention_flips` — pure
        vector arithmetic (no transcendentals), so the array kernel's
        bisection can test flips-vs-none without evaluating flip counts.
        ``retention_flips(...) > 0`` equals this exactly.
        """
        if idx is None:
            idx = self._all_idx()
        strength = self.retention_strength[idx]
        capability = (self.charge._retention.weakest_row_retention_ns
                      * strength * terms.margin / terms.retention_scale)
        wait = np.asarray(wait_ns, dtype=np.float64)
        # Below nominal latency, the observed-safe envelope retains a full
        # 64 ms window; past the N_PCR limit, strength alone decides.
        capability = np.where(
            terms.nominal, capability,
            np.maximum(capability, 64 * MS * 1.02 * strength))
        return np.where(terms.overrun, strength <= terms.survivor,
                        capability < wait)

    def retention_flips(self, terms: PointTerms, *, wait_ns: np.ndarray,
                        idx: np.ndarray | None = None) -> np.ndarray:
        """Vector form of :meth:`RowPopulation.retention_flips`."""
        if idx is None:
            idx = self._all_idx()
        fails = self.retention_fails(terms, wait_ns=wait_ns, idx=idx)
        wait = np.asarray(wait_ns, dtype=np.float64)
        flips = np.zeros(len(idx), dtype=np.int64)
        if fails.any():
            severity = np.maximum(1.0, wait[fails] / (64 * MS))
            flips[fails] = np.maximum(
                (1 + 2 * _mapped(math.log, severity + 1.0)).astype(np.int64),
                1)
        return flips

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _ber_bias(self, factor: float) -> float:
        safe = self.charge.profile.safe_tras_factor_ber
        return self._ber_gain * max(0.0, safe - factor)


def _mapped(function, values: np.ndarray) -> np.ndarray:
    """``function`` (``math.log`` or ``math.erf``) of each of ``values``,
    called on Python floats as the scalar path calls it."""
    return np.fromiter(map(function, values.tolist()), np.float64,
                       len(values))

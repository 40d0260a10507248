"""Array-native form of Algorithm 1 (the characterization ``array`` tier).

:func:`measure_rows_array` produces :class:`RowMeasurement` values
bit-identical to the vectorized fast path (and therefore to the scalar
oracle — the parity suite asserts both), but replaces the per-probe
evaluation loop with whole-batch array operations built on two facts:

* a probe's dose is an analytic function of its hammer count, folded for a
  whole vector of counts at once by
  :func:`repro.bender.compile.fold_probe_states` (the array form of the
  compiled dose fold);
* whether a probe observes *any* bitflip is a pure comparison — the hammer
  component fires iff the row's effective N_RH is finite and the dose
  reaches it, the retention component iff the row's retention capability
  is below the probe's idle wait (:meth:`BankTraits.retention_fails`) —
  and both components are monotone in the hammer count.  Algorithm 1's
  bisection only consumes this flips-vs-none predicate, so the entire
  search runs as a handful of vector compares per iteration with **zero**
  per-row model evaluations.

Flip *values* are only ever needed at ``hc_high`` — the worst-case-pattern
comparison and the BER readout — so the transcendental work drops from
every bisection probe to one probe per pattern.  One
:meth:`BankTraits.hammer_flips` call counts them for every pattern of the
batch: numpy arithmetic in the scalar expression's order, with the scalar
path's ``math.log``/``math.erf`` mapped over the flipping elements' Python
floats between numpy steps, and each dose's ``log`` taken once.

One call measures every test point of a module at one temperature.  Each
(row, point) pair's search is independent of every other, so all pairs run
in one lockstep batch: what depends on the point alone (the
:class:`~repro.dram.kernels.PointTerms`, the program clock once the victim
is restored) is computed once per point and laid over the batch's
elements, so the numpy call count no longer grows with the number of
points.  :data:`ELEMENT_BUDGET` bounds a batch, so memory stays flat at
paper scale.
"""

from __future__ import annotations

import numpy as np

from repro.bender.compile import fold_probe_states, restore_phase
from repro.bender.host import DRAMBenderHost
from repro.characterization.algorithm1 import (
    CharacterizationConfig,
    aggressors_of,
)
from repro.characterization.results import RowMeasurement
from repro.dram.kernels import BankTraits, EvalCounters, PointTerms
from repro.errors import CharacterizationError

#: Row-points (one victim row at one test point) per lockstep batch: a call
#: that measures more runs in batches of at most this many.
ELEMENT_BUDGET = 16_384


def measure_rows_array(host: DRAMBenderHost, bank: int, victims,
                       points, *,
                       config: CharacterizationConfig | None = None,
                       counters: EvalCounters | None = None,
                       ) -> list[RowMeasurement]:
    """Measure victim rows at test points (Alg. 1, array tier).

    ``points`` are ``(tras_red_ns, n_pr)`` pairs at the module's current
    temperature.  Returns one measurement per (victim, point) pair,
    victim-major: every point of the first victim, in ``points`` order,
    then the next victim's.  Each is bit-identical to
    :func:`repro.characterization.vectorized.measure_rows` at that point —
    same validation errors (every point is checked, in order, before any
    is measured), same worst-case-pattern tie-breaks, same bisection
    trajectory — with the search driven by the analytic flips-vs-none
    predicate instead of per-probe model evaluations.
    ``counters.model_evals`` counts only the ``hc_high`` value evaluations
    that remain.
    """
    config = config or CharacterizationConfig()
    counters = counters if counters is not None else EvalCounters()
    module = host.module
    timing = module.timing
    nominal = timing.tRAS
    points = tuple(points)
    for tras_red_ns, n_pr in points:
        if not 0 < tras_red_ns <= nominal:
            raise CharacterizationError(
                f"tras_red_ns must be in (0, {nominal}], got {tras_red_ns}")
        if n_pr < 1:
            raise CharacterizationError("n_pr must be >= 1")
    victims = tuple(victims)
    if not victims or not points:
        return []
    for victim in victims:
        aggressors_of(host, victim)  # same error, same order as scalar path

    batch = module.bank_traits(bank, victims)
    columns_per_row = module.geometry.columns_per_row
    temperature = module.temperature_c
    terms, restored = [], []
    for tras_red_ns, n_pr in points:
        terms.append(batch.point_terms(min(tras_red_ns / nominal, 1.0),
                                       n_pr, temperature))
        restored.append(restore_phase(timing, columns_per_row, tras_red_ns,
                                      n_pr))
    # Row 0 the clock, row 1 the last restore, one column per point.
    clocks = np.array(restored, dtype=np.float64).T
    per_point = [(tras_red_ns / nominal, n_pr)
                 for tras_red_ns, n_pr in points]
    short_names = [pattern.short_name for pattern in config.patterns]

    measurements = []
    total = len(victims) * len(points)
    for start in range(0, total, ELEMENT_BUDGET):
        element = np.arange(start, min(start + ELEMENT_BUDGET, total))
        row, point = np.divmod(element, len(points))
        wcdp, nrh, ber = _measure_batch(batch, row, point, terms, clocks,
                                        timing, config, counters)
        measurements += [
            RowMeasurement(bank, victims[r], *per_point[p], temperature,
                           short_names[w], n, b)
            for r, p, w, n, b in zip(row.tolist(), point.tolist(), wcdp,
                                     nrh, ber)]
    return measurements


def _measure_batch(batch: BankTraits, idx: np.ndarray, point: np.ndarray,
                   terms: list[PointTerms], clocks: np.ndarray, timing,
                   config: CharacterizationConfig, counters: EvalCounters,
                   ) -> tuple[list[int], list[int | None], list[float]]:
    """Algorithm 1 over the elements ``(idx[e], point[e])`` in lockstep:
    each element's worst-case pattern (an index into ``config.patterns``),
    N_RH and BER."""
    n = len(idx)
    patterns = config.patterns
    columns = PointTerms.columns(terms, point)
    clock, last_restore = clocks[:, point]

    # Effective thresholds, one row per pattern: the WCDP scan's
    # hammer_flips and the bisection's predicate share them.
    nrh_by_pattern = batch.effective_nrh(columns, patterns, idx)

    # --- hc_high: the one probe whose flip values matter ----------------
    wait_high, eq_high = fold_probe_states(
        timing, clock, last_restore, np.full(n, config.hc_high))
    flips = (batch.hammer_flips(eq_high, columns, nrh_by_pattern)
             + batch.retention_flips(columns, wait_ns=wait_high, idx=idx))
    # Retention flips are pattern-independent, so adding them shifts every
    # pattern's count equally; argmax takes the first maximum, as the
    # strict-max scan of Alg. 1 lines 16-19 does.
    wcdp_idx = flips.argmax(axis=0)
    best_flips = flips.max(axis=0)
    counters.model_evals += (len(patterns) + 1) * n
    counters.probe_batches += len(patterns) + 1

    # BER at hc_high (line 20): the winning pattern's count is best_flips.
    cells = batch.cells
    ber_out = [flips / cells for flips in best_flips.tolist()]

    # Retention pre-check at zero hammers (lines 21-24): the hammer
    # component cannot fire at dose zero (thresholds are positive), so the
    # flips>0 predicate reduces to the retention predicate.
    wait_zero, _ = fold_probe_states(timing, clock, last_restore,
                                     np.zeros(n, dtype=np.int64))
    fails_zero = batch.retention_fails(columns, wait_ns=wait_zero, idx=idx)
    nrh_out: list[int | None] = [None] * n
    for i in np.flatnonzero(fails_zero).tolist():
        nrh_out[i] = 0

    # Bisection (lines 25-32) over elements whose hc_high probe flipped;
    # each trajectory is independent, so running every pattern group and
    # every point in one lockstep pass reproduces the scalar loops exactly.
    search = np.flatnonzero(~fails_zero & (best_flips > 0))
    if len(search):
        threshold = nrh_by_pattern[wcdp_idx[search], search]
        finite = np.isfinite(threshold)
        rows_idx = idx[search]
        searched = PointTerms.columns(terms, point[search])
        clock, last_restore = clock[search], last_restore[search]
        low = np.full(len(search), config.hc_low, dtype=np.int64)
        high = np.full(len(search), config.hc_high, dtype=np.int64)
        nrh = np.full(len(search), config.hc_high, dtype=np.int64)
        active = (high - low) > config.hc_step
        while active.any():
            current = (high + low) // 2
            wait, equivalent = fold_probe_states(timing, clock, last_restore,
                                                 current)
            flipped = (finite & (equivalent >= threshold)) \
                | batch.retention_fails(searched, wait_ns=wait,
                                        idx=rows_idx)
            up = active & ~flipped
            down = active & flipped
            low = np.where(up, current, low)
            high = np.where(down, current, high)
            nrh = np.where(down, current, nrh)
            active = (high - low) > config.hc_step
        for i, value in zip(search.tolist(), nrh.tolist()):
            nrh_out[i] = value

    return wcdp_idx.tolist(), nrh_out, ber_out

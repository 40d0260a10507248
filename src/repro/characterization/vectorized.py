"""Bank-level vectorized form of Algorithm 1 (the characterization fast path).

:func:`measure_rows` measures a whole batch of victim rows at one test
point, producing :class:`RowMeasurement` values *bit-identical* to calling
:func:`repro.characterization.algorithm1.measure_row` per row (the scalar
path is the parity oracle — see ``tests/test_characterization_vectorized.py``).

It exploits two structural facts about Algorithm 1's probes:

* a ``perform_rh`` probe program has a fixed shape (init three rows,
  restore the victim, hammer double-sided, sleep out the refresh window,
  read the victim), so its end state — program clock, victim dose, idle
  wait — is an analytic function of ``(hammer_count, tras_red_ns, n_pr)``
  that can be computed once per probe instead of stepping instructions
  (:func:`repro.bender.compile.restore_phase` and
  :func:`~repro.bender.compile.fold_probe_states`, shared with the array
  tier).  The arithmetic replicates the stepping executor op-for-op
  (including the distinct clock accumulation of the unrolled vs. macro
  restoration forms);
* the device model is deterministic, so each unique
  ``(row, pattern, hammer_count)`` probe is evaluated once per batch and
  memoized — exactly the value a :class:`ProbeCache`-backed scalar run
  would produce — while the worst-case-pattern search, BER probe, and
  bi-section all index into the shared memo.

The per-row physics are evaluated through
:class:`repro.dram.kernels.BankTraits` over index vectors, with
:class:`~repro.dram.kernels.EvalCounters` recording how many per-row model
evaluations were actually performed (the CI smoke test bounds this).
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
from repro.dram.disturbance import DataPattern
from repro.dram.kernels import BankTraits, EvalCounters
from repro.dram.timing import TimingParams
from repro.errors import CharacterizationError


class _BatchProber:
    """Evaluates probes over row batches, memoizing each unique probe."""

    def __init__(self, batch: BankTraits, timing: TimingParams,
                 columns_per_row: int, tras_red_ns: float, n_pr: int,
                 temperature_c: float, counters: EvalCounters) -> None:
        self.batch = batch
        self.timing = timing
        self.restored = restore_phase(timing, columns_per_row, tras_red_ns,
                                      n_pr)
        self.counters = counters
        self.terms = batch.point_terms(min(tras_red_ns / timing.tRAS, 1.0),
                                       n_pr, temperature_c)
        self._states: dict[int, tuple[float, float]] = {}
        self._nrh: dict[DataPattern, np.ndarray] = {}
        self._flips: dict[tuple[DataPattern, int], dict[int, int]] = {}

    def fold(self, hammer_counts) -> None:
        """Fold the end states of the probes not folded yet, in one call."""
        counts = [hc for hc in hammer_counts if hc not in self._states]
        if counts:
            wait_ns, equivalent = fold_probe_states(
                self.timing, *self.restored, np.array(counts))
            self._states.update(zip(counts, zip(wait_ns.tolist(),
                                                equivalent.tolist())))

    def _state(self, hammer_count: int) -> tuple[float, float]:
        self.fold((hammer_count,))
        return self._states[hammer_count]

    def flips(self, pattern: DataPattern, hammer_count: int,
              idx: np.ndarray) -> np.ndarray:
        """Bitflip counts of probe ``(pattern, hammer_count)`` over ``idx``,
        evaluating only rows not already in the memo."""
        store = self._flips.setdefault((pattern, hammer_count), {})
        missing = [int(i) for i in idx if int(i) not in store]
        if missing:
            wait_ns, equivalent = self._state(hammer_count)
            midx = np.asarray(missing, dtype=np.intp)
            eq = np.full(len(midx), equivalent, dtype=np.float64)
            wait = np.full(len(midx), wait_ns, dtype=np.float64)
            nrh = self._nrh.get(pattern)
            if nrh is None:
                [nrh] = self.batch.effective_nrh(self.terms, (pattern,))
                self._nrh[pattern] = nrh
            hammered = self.batch.hammer_flips(eq, self.terms, nrh[midx])
            retained = self.batch.retention_flips(self.terms, wait_ns=wait,
                                                  idx=midx)
            # Half-Double never fires in Algorithm 1 probes (far dose is
            # zero), matching DRAMModule._halfdouble_flips returning 0.
            total = hammered + retained
            for i, flip_count in zip(missing, total):
                store[i] = int(flip_count)
            self.counters.model_evals += len(missing)
            self.counters.probe_batches += 1
        self.counters.cache_hits += len(idx) - len(missing)
        return np.array([store[int(i)] for i in idx], dtype=np.int64)


def measure_rows(host: DRAMBenderHost, bank: int, victims, *,
                 tras_red_ns: float | None = None, n_pr: int = 1,
                 config: CharacterizationConfig | None = None,
                 counters: EvalCounters | None = None) -> list[RowMeasurement]:
    """Measure a batch of victim rows at one test point (Alg. 1, fast path).

    Bit-identical to ``[measure_row(host, bank, v, ...) for v in victims]``
    — same validation errors, same worst-case-pattern tie-breaks, same
    bi-section trajectory — evaluated through the bank-level kernels with
    one pass per unique probe.  Pass an :class:`EvalCounters` to observe
    how much model work was actually done.
    """
    config = config or CharacterizationConfig()
    counters = counters if counters is not None else EvalCounters()
    module = host.module
    nominal = module.timing.tRAS
    if tras_red_ns is None:
        tras_red_ns = nominal
    if not 0 < tras_red_ns <= nominal:
        raise CharacterizationError(
            f"tras_red_ns must be in (0, {nominal}], got {tras_red_ns}")
    if n_pr < 1:
        raise CharacterizationError("n_pr must be >= 1")
    victims = tuple(victims)
    if not victims:
        return []
    for victim in victims:
        aggressors_of(host, victim)  # same error, same order as scalar path

    batch = module.bank_traits(bank, victims)
    prober = _BatchProber(batch, module.timing,
                          module.geometry.columns_per_row, tras_red_ns, n_pr,
                          module.temperature_c, counters)
    n = len(victims)
    all_idx = np.arange(n, dtype=np.intp)

    # Worst-case data pattern per row (Alg. 1 lines 16-19): first strict
    # maximum over the configured pattern order.
    best_flips = np.full(n, -1, dtype=np.int64)
    wcdp_idx = np.zeros(n, dtype=np.intp)
    for pattern_i, pattern in enumerate(config.patterns):
        flips = prober.flips(pattern, config.hc_high, all_idx)
        improved = flips > best_flips
        wcdp_idx[improved] = pattern_i
        best_flips = np.where(improved, flips, best_flips)

    cells = module.spec.row_bits()
    nrh_out: list[int | None] = [None] * n
    ber_out: list[float] = [0.0] * n
    for pattern_i, pattern in enumerate(config.patterns):
        group = np.nonzero(wcdp_idx == pattern_i)[0]
        if not len(group):
            continue
        # BER at hc_high (Alg. 1 line 20) — a memo hit from the WCDP scan.
        ber_flips = prober.flips(pattern, config.hc_high, group)
        for j, i in enumerate(group):
            ber_out[i] = int(ber_flips[j]) / cells
        # Retention pre-check (lines 21-24): flips at zero hammers => 0.
        retention = prober.flips(pattern, 0, group)
        for i in group[retention > 0]:
            nrh_out[i] = 0
        searchable = group[retention == 0]
        if not len(searchable):
            continue
        # Bi-section (lines 25-32), all rows of this pattern in lockstep;
        # rows whose hc_high probe found nothing stay None.
        high_flips = prober.flips(pattern, config.hc_high, searchable)
        active_rows = searchable[high_flips > 0]
        if not len(active_rows):
            continue
        low = np.full(len(active_rows), config.hc_low, dtype=np.int64)
        high = np.full(len(active_rows), config.hc_high, dtype=np.int64)
        nrh = np.full(len(active_rows), config.hc_high, dtype=np.int64)
        active = (high - low) > config.hc_step
        while active.any():
            current = (high + low) // 2
            counts = np.unique(current[active]).tolist()
            prober.fold(counts)
            for hc in counts:
                sel = np.nonzero(active & (current == hc))[0]
                flips = prober.flips(pattern, hc, active_rows[sel])
                zero = flips == 0
                low[sel[zero]] = hc
                high[sel[~zero]] = hc
                nrh[sel[~zero]] = hc
            active = (high - low) > config.hc_step
        for j, i in enumerate(active_rows):
            nrh_out[i] = int(nrh[j])

    # The model is deterministic, so the paper's five iterations reproduce
    # identical values; the scalar path's min/max reduction over them is the
    # single-iteration value computed above.
    return [
        RowMeasurement(
            bank=bank, row=victim,
            tras_factor=tras_red_ns / nominal, n_pr=n_pr,
            temperature_c=module.temperature_c,
            wcdp=config.patterns[wcdp_idx[i]].short_name,
            nrh=nrh_out[i], ber=ber_out[i])
        for i, victim in enumerate(victims)
    ]

"""Command-level behavioral model of one DDR4 DRAM module.

This is the device the software DRAM Bender plugs into.  It accepts the same
operations a real module would see on the command bus — row writes, timed
activate/precharge cycles, idle time — and tracks, per row: the stored data
pattern, the restoration state (latency factor and consecutive partial
restoration count), and the accumulated read-disturbance dose deposited by
neighbor activations.  Reading a row evaluates the accumulated state against
the row's cell population and returns the number of bitflips.

The model is intentionally *not* cycle accurate; it is physics accurate at
the granularity the paper's methodology observes (bitflip counts per row
after a test sequence).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.catalog import ModuleSpec, module_spec
from repro.dram.cell_array import RowPopulation
from repro.dram.charge import ChargeModel
from repro.dram.disturbance import BLAST_RADIUS, DataPattern, HammerDose, ZERO_DOSE
from repro.dram.geometry import ModuleGeometry, geometry_for_density
from repro.dram.kernels import BankTraits
from repro.dram.mapping import RowMapping, mapping_for_vendor
from repro.dram.timing import TimingParams, ddr4_timing
from repro.errors import DeviceError
from repro.rng import SeedTree

#: Half-Double activation thresholds (far aggressor dose needed, and the
#: minimum near-aggressor "seasoning" activations), in activations.
HALFDOUBLE_FAR_MIN = 25_000
HALFDOUBLE_NEAR_MIN = 8


@dataclass
class RowState:
    """Dynamic state of one DRAM row during a test."""

    pattern: DataPattern | None = None
    restore_factor: float = 1.0
    consecutive_partial: int = 0
    dose: HammerDose = field(default_factory=lambda: ZERO_DOSE)
    last_restore_ns: float = 0.0
    activations: int = 0


class DRAMModule:
    """One simulated DDR4 module (a stand-in for a physical DIMM)."""

    def __init__(self, spec: ModuleSpec | str, *,
                 geometry: ModuleGeometry | None = None,
                 seed: int = 2025, temperature_c: float = 80.0) -> None:
        if isinstance(spec, str):
            spec = module_spec(spec)
        self.spec = spec
        self.timing: TimingParams = ddr4_timing()
        self.geometry = geometry or geometry_for_density(spec.die_density_gbit)
        self.charge = ChargeModel(spec)
        self.mapping: RowMapping = mapping_for_vendor(
            spec.manufacturer, self.geometry.rows_per_bank)
        self.temperature_c = temperature_c
        self.clock_ns: float = 0.0
        self.seed = seed
        self._seeds = SeedTree(seed).child("module", spec.module_id)
        self._rows: dict[tuple[int, int], RowPopulation] = {}
        self._states: dict[tuple[int, int], RowState] = {}
        self._trait_batches: dict[tuple[int, tuple[int, ...]], BankTraits] = {}

    # ------------------------------------------------------------------
    # row access
    # ------------------------------------------------------------------
    def row_population(self, bank: int, row: int) -> RowPopulation:
        """The (lazily instantiated) cell population of a row."""
        self._check_address(bank, row)
        key = (bank, row)
        if key not in self._rows:
            self._rows[key] = RowPopulation(
                self.spec, self.charge, bank, row, self._seeds)
        return self._rows[key]

    def bank_traits(self, bank: int, rows: tuple[int, ...]) -> BankTraits:
        """Struct-of-arrays traits for a batch of rows in one bank.

        The batch samples each row's traits from its own seed-tree stream
        (bit-identical to :meth:`row_population`), registers per-row
        populations as thin views over the batch, and is cached so repeated
        characterization sweeps over the same rows reuse it.
        """
        rows = tuple(rows)
        for row in rows:
            self._check_address(bank, row)
        key = (bank, rows)
        batch = self._trait_batches.get(key)
        if batch is not None:
            return batch
        existing = {row: self._rows[(bank, row)].traits
                    for row in rows if (bank, row) in self._rows}
        batch = BankTraits.sample(self.spec, self.charge, bank, rows,
                                  self._seeds, existing)
        for i, row in enumerate(batch.rows):
            if (bank, row) not in self._rows:
                self._rows[(bank, row)] = RowPopulation(
                    self.spec, self.charge, bank, row, self._seeds,
                    traits=batch.traits[i])
        self._trait_batches[key] = batch
        return batch

    def row_state(self, bank: int, row: int) -> RowState:
        """The dynamic state of a row (created fresh on first touch)."""
        self._check_address(bank, row)
        key = (bank, row)
        if key not in self._states:
            self._states[key] = RowState(last_restore_ns=self.clock_ns)
        return self._states[key]

    # ------------------------------------------------------------------
    # device operations
    # ------------------------------------------------------------------
    def write_row(self, bank: int, row: int, pattern: DataPattern) -> None:
        """Initialize a row with a data pattern (a full-timing write).

        Writing fully restores the row's charge, clears any accumulated
        disturbance, and resets the partial-restoration streak.
        """
        state = self.row_state(bank, row)
        state.pattern = pattern
        state.restore_factor = 1.0
        state.consecutive_partial = 0
        state.dose = ZERO_DOSE
        state.last_restore_ns = self.clock_ns
        state.activations += 1
        self._disturb_neighbors(bank, row, 1)
        timing = self.timing
        self.clock_ns += (timing.tRCD + self.geometry.columns_per_row
                          * timing.tCCD + timing.tWR + timing.tRP)

    def activate(self, bank: int, row: int, tras_ns: float | None = None) -> None:
        """One ACT + PRE cycle on a row with the given charge-restoration
        latency (defaults to nominal ``tRAS``).

        Activating a row restores its own charge (possibly partially) and
        deposits a unit of disturbance dose on its physical neighbors within
        the blast radius.
        """
        timing = self.timing
        if tras_ns is None:
            tras_ns = timing.tRAS
        if tras_ns <= 0:
            raise DeviceError(f"non-positive tRAS: {tras_ns}")
        state = self.row_state(bank, row)
        factor = min(tras_ns / timing.tRAS, 1.0)
        if factor >= 1.0:
            state.restore_factor = 1.0
            state.consecutive_partial = 0
        elif state.consecutive_partial and state.restore_factor == factor:
            state.consecutive_partial += 1
        else:
            state.restore_factor = factor
            state.consecutive_partial = 1
        state.dose = ZERO_DOSE  # restoration heals accumulated disturbance
        state.last_restore_ns = self.clock_ns
        state.activations += 1
        self._disturb_neighbors(bank, row, 1)
        self.clock_ns += tras_ns + timing.tRP

    def partial_restore(self, bank: int, row: int, tras_ns: float,
                        count: int) -> None:
        """``count`` consecutive ACT/PRE cycles on one row with the given
        charge-restoration latency (bulk form of :meth:`activate`)."""
        if count < 0:
            raise DeviceError("negative restoration count")
        if count == 0:
            return
        timing = self.timing
        factor = min(tras_ns / timing.tRAS, 1.0)
        state = self.row_state(bank, row)
        if factor >= 1.0:
            state.restore_factor = 1.0
            state.consecutive_partial = 0
        elif state.consecutive_partial and state.restore_factor == factor:
            state.consecutive_partial += count
        else:
            state.restore_factor = factor
            state.consecutive_partial = count
        state.dose = ZERO_DOSE
        state.last_restore_ns = self.clock_ns
        state.activations += count
        self._disturb_neighbors(bank, row, count)
        self.clock_ns += count * (tras_ns + timing.tRP)

    def hammer(self, bank: int, rows: tuple[int, ...], count: int) -> None:
        """Activate ``rows`` in an alternating (interleaved) manner ``count``
        times each, with full-speed nominal timing.

        Equivalent to ``count`` interleaved :meth:`activate` calls per row
        but evaluated in bulk, which keeps 100K-activation tests fast.
        """
        if count < 0:
            raise DeviceError("negative hammer count")
        if count == 0:
            return
        for row in rows:
            state = self.row_state(bank, row)
            state.restore_factor = 1.0
            state.consecutive_partial = 0
            state.dose = ZERO_DOSE
            state.last_restore_ns = self.clock_ns
            state.activations += count
            self._disturb_neighbors(bank, row, count)
        self.clock_ns += count * len(rows) * self.timing.tRC

    def elapse(self, duration_ns: float) -> None:
        """Let wall-clock time pass with the device idle."""
        if duration_ns < 0:
            raise DeviceError("cannot elapse negative time")
        self.clock_ns += duration_ns

    def read_row_bitflips(self, bank: int, row: int) -> int:
        """Read a row back and count cells that no longer match the written
        pattern.  This is Algorithm 1's ``check_for_bitflips``."""
        state = self.row_state(bank, row)
        if state.pattern is None:
            raise DeviceError(f"row ({bank}, {row}) read before initialization")
        wait_ns = max(0.0, self.clock_ns - state.last_restore_ns)
        return self.evaluate_read(
            bank, row, pattern=state.pattern, factor=state.restore_factor,
            n_pr=max(1, state.consecutive_partial), dose=state.dose,
            wait_ns=wait_ns)

    def evaluate_read(self, bank: int, row: int, *, pattern: DataPattern,
                      factor: float, n_pr: int, dose: HammerDose,
                      wait_ns: float) -> int:
        """Evaluate a read against explicit restoration/disturbance state.

        The single source of truth for turning accumulated state into a
        bitflip count: :meth:`read_row_bitflips` calls it with the tracked
        :class:`RowState`, and the compiled program path
        (:mod:`repro.bender.compile`) calls it with analytically folded
        state.  ``n_pr`` is the *effective* restoration count
        (``max(1, consecutive_partial)``).
        """
        population = self.row_population(bank, row)
        flips = population.hammer_flips(
            dose, factor=factor, n_pr=n_pr,
            temperature_c=self.temperature_c, pattern=pattern)
        flips += population.retention_flips(
            factor=factor, n_pr=n_pr, wait_ns=wait_ns,
            temperature_c=self.temperature_c)
        flips += self._halfdouble_flips(population, dose, factor, n_pr)
        return flips

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _halfdouble_flips(self, population: RowPopulation, dose: HammerDose,
                          factor: float, n_pr: int) -> int:
        if dose.far < HALFDOUBLE_FAR_MIN or dose.near < HALFDOUBLE_NEAR_MIN:
            return 0
        # Pure Half-Double regime only: heavy far dose, light near dose.
        if dose.near * 2.0 >= population.effective_nrh(factor, n_pr):
            return 0
        vulnerable = population.halfdouble_vulnerable(factor, n_pr)
        return 2 if vulnerable else 0

    def _disturb_neighbors(self, bank: int, row: int, count: int) -> None:
        for distance in range(1, BLAST_RADIUS + 1):
            for victim in self.mapping.neighbors(row, distance):
                key = (bank, victim)
                if key not in self._states:
                    continue  # untracked rows hold no test data
                state = self._states[key]
                state.dose = state.dose.add(distance, count)

    def _check_address(self, bank: int, row: int) -> None:
        if not self.geometry.valid_row(bank, row):
            raise DeviceError(
                f"address (bank={bank}, row={row}) outside geometry "
                f"{self.geometry.total_banks}x{self.geometry.rows_per_bank}")

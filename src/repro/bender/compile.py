"""Analytic (compiled) execution of test programs.

The instruction-stepping executor (:mod:`repro.bender.executor`) mutates a
:class:`~repro.dram.module.RowState` and walks the neighbor mapping for
every ACT/PRE cycle.  Characterization programs are highly regular — a few
row writes, a restoration loop, one hammer macro, one sleep, one read — so
the whole program can instead be *folded* into a per-row
:class:`DoseSummary` in a single pass and each read evaluated analytically
in one call (:meth:`DRAMModule.evaluate_read`).

The fold replicates the stepping executor bit-exactly: the same protocol
checks (same :class:`~repro.errors.ProgramError` messages, same indices),
the same clock arithmetic in the same operation order, and the same
device-state side effects applied back to the module afterward — so a
compiled run is indistinguishable from a stepped run, just cheaper.  The
stepping executor remains the oracle (``--check-protocol`` runs take
it), with this compiled path selected through
``DRAMBenderHost(kernel="compiled")``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bender.executor import ExecutionResult
from repro.bender.isa import (
    Act,
    Hammer,
    Pre,
    ReadRow,
    Restore,
    Sleep,
    SleepUntil,
    WriteRow,
)
from repro.bender.program import TestProgram
from repro.dram.disturbance import BLAST_RADIUS, DataPattern, HammerDose
from repro.dram.module import DRAMModule
from repro.errors import DeviceError, ProgramError


@dataclass
class DoseSummary:
    """Folded per-row device state (the compiled form of ``RowState``)."""

    pattern: DataPattern | None = None
    restore_factor: float = 1.0
    consecutive_partial: int = 0
    near: float = 0.0
    far: float = 0.0
    last_restore_ns: float = 0.0
    activations: int = 0

    def dose(self) -> HammerDose:
        return HammerDose(self.near, self.far)


@dataclass
class CompiledProgram:
    """Result of folding one program against one module's current state."""

    bitflips: dict[str, int] = field(default_factory=dict)
    states: dict[tuple[int, int], DoseSummary] = field(default_factory=dict)
    duration_ns: float = 0.0
    instructions: int = 0


class _Folder:
    """Single-pass symbolic execution of a program."""

    def __init__(self, module: DRAMModule) -> None:
        self.module = module
        self.clock = 0.0
        self.open_row: dict[int, tuple[int, float]] = {}
        self.states: dict[tuple[int, int], DoseSummary] = {}
        self.out = CompiledProgram()
        self._handlers = {
            Act: self._act,
            Pre: self._pre,
            WriteRow: self._write_row,
            ReadRow: self._read_row,
            Sleep: self._sleep,
            SleepUntil: self._sleep_until,
            Hammer: self._hammer,
            Restore: self._restore,
        }

    # ------------------------------------------------------------------
    def fold(self, program: TestProgram) -> CompiledProgram:
        handlers = self._handlers
        for index, inst in enumerate(program):
            handler = handlers.get(type(inst))
            if handler is None:  # pragma: no cover - exhaustive over the ISA
                raise ProgramError(f"[{index}] unknown instruction {inst!r}")
            handler(inst, index)
            self.out.instructions += 1
        if self.open_row:
            banks = sorted(self.open_row)
            raise ProgramError(f"program ended with banks {banks} still open")
        self.out.states = self.states
        self.out.duration_ns = self.clock
        return self.out

    # ------------------------------------------------------------------
    # symbolic row state
    # ------------------------------------------------------------------
    def _touch(self, bank: int, row: int) -> DoseSummary:
        """Symbolic state of a row, creating it exactly as the device would
        on first touch (copying pre-program module state if present)."""
        self.module._check_address(bank, row)
        key = (bank, row)
        state = self.states.get(key)
        if state is None:
            existing = self.module._states.get(key)
            if existing is not None:
                state = DoseSummary(
                    pattern=existing.pattern,
                    restore_factor=existing.restore_factor,
                    consecutive_partial=existing.consecutive_partial,
                    near=existing.dose.near, far=existing.dose.far,
                    last_restore_ns=existing.last_restore_ns,
                    activations=existing.activations)
            else:
                state = DoseSummary(last_restore_ns=self.clock)
            self.states[key] = state
        return state

    def _disturb(self, bank: int, row: int, count: int) -> None:
        """Deposit dose on tracked neighbors (same visibility rule as the
        device: rows never touched and absent from the module hold no test
        data, so their dose is not tracked)."""
        module = self.module
        for distance in range(1, BLAST_RADIUS + 1):
            for victim in module.mapping.neighbors(row, distance):
                key = (bank, victim)
                state = self.states.get(key)
                if state is None:
                    if key not in module._states:
                        continue
                    state = self._touch(bank, victim)
                if distance == 1:
                    state.near = state.near + count
                else:
                    state.far = state.far + count

    # ------------------------------------------------------------------
    # per-opcode handlers (clock arithmetic mirrors DRAMModule op-for-op)
    # ------------------------------------------------------------------
    def _act(self, inst: Act, index: int) -> None:
        if inst.bank in self.open_row:
            raise ProgramError(f"[{index}] ACT to open bank {inst.bank}")
        self.open_row[inst.bank] = (inst.row, inst.wait_ns)

    def _pre(self, inst: Pre, index: int) -> None:
        if inst.bank not in self.open_row:
            raise ProgramError(f"[{index}] PRE on closed bank {inst.bank}")
        row, act_wait = self.open_row.pop(inst.bank)
        timing = self.module.timing
        tras_ns = act_wait
        if tras_ns <= 0:
            raise DeviceError(f"non-positive tRAS: {tras_ns}")
        state = self._touch(inst.bank, row)
        factor = min(tras_ns / timing.tRAS, 1.0)
        if factor >= 1.0:
            state.restore_factor = 1.0
            state.consecutive_partial = 0
        elif state.consecutive_partial and state.restore_factor == factor:
            state.consecutive_partial += 1
        else:
            state.restore_factor = factor
            state.consecutive_partial = 1
        state.near = 0.0
        state.far = 0.0
        state.last_restore_ns = self.clock
        state.activations += 1
        self._disturb(inst.bank, row, 1)
        self.clock += tras_ns + timing.tRP

    def _write_row(self, inst: WriteRow, index: int) -> None:
        self._require_closed(inst.bank, index)
        state = self._touch(inst.bank, inst.row)
        state.pattern = inst.pattern
        state.restore_factor = 1.0
        state.consecutive_partial = 0
        state.near = 0.0
        state.far = 0.0
        state.last_restore_ns = self.clock
        state.activations += 1
        self._disturb(inst.bank, inst.row, 1)
        timing = self.module.timing
        self.clock += (timing.tRCD + self.module.geometry.columns_per_row
                       * timing.tCCD + timing.tWR + timing.tRP)

    def _read_row(self, inst: ReadRow, index: int) -> None:
        self._require_closed(inst.bank, index)
        state = self._touch(inst.bank, inst.row)
        if state.pattern is None:
            raise DeviceError(
                f"row ({inst.bank}, {inst.row}) read before initialization")
        wait_ns = max(0.0, self.clock - state.last_restore_ns)
        self.out.bitflips[inst.key] = self.module.evaluate_read(
            inst.bank, inst.row, pattern=state.pattern,
            factor=state.restore_factor,
            n_pr=max(1, state.consecutive_partial),
            dose=state.dose(), wait_ns=wait_ns)

    def _sleep(self, inst: Sleep, index: int) -> None:
        if inst.duration_ns < 0:
            raise DeviceError("cannot elapse negative time")
        self.clock += inst.duration_ns

    def _sleep_until(self, inst: SleepUntil, index: int) -> None:
        if self.clock < inst.target_ns:
            self.clock += inst.target_ns - self.clock

    def _hammer(self, inst: Hammer, index: int) -> None:
        self._require_closed(inst.bank, index)
        if inst.count < 0:
            raise DeviceError("negative hammer count")
        if inst.count == 0:
            return
        for row in inst.rows:
            state = self._touch(inst.bank, row)
            state.restore_factor = 1.0
            state.consecutive_partial = 0
            state.near = 0.0
            state.far = 0.0
            state.last_restore_ns = self.clock
            state.activations += inst.count
            self._disturb(inst.bank, row, inst.count)
        self.clock += inst.count * len(inst.rows) * self.module.timing.tRC

    def _restore(self, inst: Restore, index: int) -> None:
        self._require_closed(inst.bank, index)
        if inst.count < 0:
            raise DeviceError("negative restoration count")
        if inst.count == 0:
            return
        timing = self.module.timing
        factor = min(inst.tras_ns / timing.tRAS, 1.0)
        state = self._touch(inst.bank, inst.row)
        if factor >= 1.0:
            state.restore_factor = 1.0
            state.consecutive_partial = 0
        elif state.consecutive_partial and state.restore_factor == factor:
            state.consecutive_partial += inst.count
        else:
            state.restore_factor = factor
            state.consecutive_partial = inst.count
        state.near = 0.0
        state.far = 0.0
        state.last_restore_ns = self.clock
        state.activations += inst.count
        self._disturb(inst.bank, inst.row, inst.count)
        self.clock += inst.count * (inst.tras_ns + timing.tRP)

    def _require_closed(self, bank: int, index: int) -> None:
        if bank in self.open_row:
            raise ProgramError(
                f"[{index}] bank {bank} must be precharged first")


def compile_program(module: DRAMModule, program: TestProgram) -> CompiledProgram:
    """Fold ``program`` into per-row dose summaries and evaluated reads.

    Pure with respect to the module's *row states* (they are read, not
    written); the returned :class:`CompiledProgram` carries the folded end
    state.  The program clock starts at zero, exactly like
    :meth:`ProgramExecutor.execute`.
    """
    return _Folder(module).fold(program)


def run_compiled(module: DRAMModule, program: TestProgram) -> ExecutionResult:
    """Execute a program via the analytic fold, applying side effects.

    Equivalent to ``ProgramExecutor(module).execute(program)`` — same
    results, same errors, same post-run module state — evaluated in one
    pass over the folded summaries.
    """
    module.clock_ns = 0.0
    compiled = compile_program(module, program)
    for (bank, row), summary in compiled.states.items():
        state = module._states.get((bank, row))
        if state is None:
            state = module.row_state(bank, row)
        state.pattern = summary.pattern
        state.restore_factor = summary.restore_factor
        state.consecutive_partial = summary.consecutive_partial
        state.dose = summary.dose()
        state.last_restore_ns = summary.last_restore_ns
        state.activations = summary.activations
    module.clock_ns = compiled.duration_ns
    return ExecutionResult(bitflips=compiled.bitflips,
                           duration_ns=compiled.duration_ns,
                           instructions_executed=compiled.instructions)


def restore_phase(timing, columns_per_row: int, tras_red_ns: float,
                  n_pr: int) -> tuple[float, float]:
    """``(clock, last_restore)`` once a ``perform_rh`` program has written
    its three rows and restored the victim ``n_pr`` times: the state the
    hammer phase starts from, one per test point (see
    :func:`fold_probe_states`).  Every float operation replicates the
    stepping executor's expression order."""
    write_ns = (timing.tRCD + columns_per_row * timing.tCCD
                + timing.tWR + timing.tRP)
    clock = 0.0
    clock += write_ns  # WriteRow victim (last_restore := 0.0)
    clock += write_ns  # WriteRow aggressor 1
    clock += write_ns  # WriteRow aggressor 2
    last_restore = 0.0
    if n_pr > TestProgram.UNROLL_LIMIT:
        # Bulk Restore macro: one clock advance for the whole loop.
        last_restore = clock
        clock += n_pr * (tras_red_ns + timing.tRP)
    else:
        # Unrolled ACT/PRE pairs accumulate the clock incrementally, which
        # is not bit-identical to the single multiply above — replicate it.
        for _ in range(n_pr):
            last_restore = clock
            clock += tras_red_ns + timing.tRP
    return clock, last_restore


def fold_probe_states(timing, clock, last_restore, hammer_counts) -> tuple:
    """Fold ``perform_rh`` programs' hammer and sleep phases as array ops.

    The analytic form of stepping each probe program: for hammer counts
    (one per element, as the bisection diverges per row and a batch may
    mix test points; or one count), returns ``(wait_ns, equivalent)``
    float64 arrays — the victim's idle time since its last restoration at
    the read, and its per-aggressor double-sided dose.  ``clock`` and
    ``last_restore`` are :func:`restore_phase`'s, for one point (floats)
    or per element (arrays).  Every elementwise operation replicates the
    stepping executor's expression order, so the folded doses are
    bit-identical to stepping each program.
    """
    import numpy as np

    from repro.dram.disturbance import BLAST_RADIUS_WEIGHTS

    hc = np.asarray(hammer_counts, dtype=np.int64)
    hammered = hc > 0
    # Each aggressor's hammer deposits its count on the victim in turn.
    near = np.where(hammered, (0.0 + hc) + hc, 0.0)
    clock = np.where(hammered, clock + hc * 2 * timing.tRC, clock)
    clock = np.where(clock < timing.tREFW,
                     clock + (timing.tREFW - clock), clock)
    wait_ns = np.maximum(0.0, clock - last_restore)
    # dose.effective() with far == 0.0 (the victim is never a distance-2
    # neighbor of its own aggressors), per aggressor.
    equivalent = (near + BLAST_RADIUS_WEIGHTS[2] * 0.0) / 2.0
    return wait_ns, equivalent

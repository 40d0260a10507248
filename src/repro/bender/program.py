"""Builder for DRAM Bender test programs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.bender.isa import (
    Act,
    Hammer,
    Instruction,
    Pre,
    ReadRow,
    Restore,
    Sleep,
    SleepUntil,
    WriteRow,
)
from repro.dram.disturbance import DataPattern
from repro.dram.timing import TimingParams, ddr4_timing
from repro.errors import ProgramError


@dataclass
class TestProgram:
    """A sequence of test instructions plus the timing used to build it.

    The builder methods mirror the helper functions of Algorithm 1, so
    characterization code reads like the paper's pseudocode::

        program = TestProgram()
        program.init_rows(bank, victim, aggressors, pattern)
        program.partial_restoration(bank, victim, tras_red, n_pr)
        program.hammer_doublesided(bank, aggressors, hammer_count)
        program.sleep_until(tREFW)
        program.check_bitflips(bank, victim, key="victim")
    """

    timing: TimingParams = field(default_factory=ddr4_timing)
    instructions: list[Instruction] = field(default_factory=list)

    #: Despite its name, this is a library class, not a pytest test class.
    __test__ = False

    # ------------------------------------------------------------------
    # raw instruction appends
    # ------------------------------------------------------------------
    def act(self, bank: int, row: int, wait_ns: float | None = None) -> "TestProgram":
        """Append an ACT (default wait: nominal tRAS)."""
        self.instructions.append(Act(bank, row, wait_ns or self.timing.tRAS))
        return self

    def pre(self, bank: int, wait_ns: float | None = None) -> "TestProgram":
        """Append a PRE (default wait: tRP)."""
        self.instructions.append(Pre(bank, wait_ns or self.timing.tRP))
        return self

    def sleep(self, duration_ns: float) -> "TestProgram":
        self.instructions.append(Sleep(duration_ns))
        return self

    def sleep_until(self, target_ns: float) -> "TestProgram":
        self.instructions.append(SleepUntil(target_ns))
        return self

    # ------------------------------------------------------------------
    # Algorithm-1 helpers
    # ------------------------------------------------------------------
    def init_rows(self, bank: int, victim: int, aggressors: tuple[int, ...],
                  pattern: DataPattern) -> "TestProgram":
        """Initialize the victim and aggressor rows (Alg. 1 line 7).

        The victim gets the pattern's victim byte and the aggressors the
        aggressor byte; the device model keys disturbance coupling off the
        pattern object itself.
        """
        self.instructions.append(WriteRow(bank, victim, pattern))
        for row in aggressors:
            self.instructions.append(WriteRow(bank, row, pattern))
        return self

    #: Restoration loops longer than this are emitted as a bulk macro.
    UNROLL_LIMIT = 16

    def partial_restoration(self, bank: int, row: int, tras_red_ns: float,
                            count: int) -> "TestProgram":
        """``count`` consecutive partial charge restorations (Alg. 1 l. 1-5)."""
        if count < 0:
            raise ProgramError("restoration count must be non-negative")
        if tras_red_ns > self.timing.tRAS:
            raise ProgramError(
                f"reduced tRAS {tras_red_ns} exceeds nominal {self.timing.tRAS}")
        if count > self.UNROLL_LIMIT:
            self.instructions.append(Restore(bank, row, tras_red_ns, count))
            return self
        for _ in range(count):
            self.act(bank, row, wait_ns=tras_red_ns)
            self.pre(bank)
        return self

    def hammer_doublesided(self, bank: int, aggressors: tuple[int, ...],
                           count: int) -> "TestProgram":
        """Alternating max-rate activations of the aggressor rows."""
        if len(aggressors) not in (1, 2):
            raise ProgramError("double-sided hammering uses one or two aggressors")
        self.instructions.append(Hammer(bank, tuple(aggressors), count))
        return self

    def check_bitflips(self, bank: int, row: int, key: str) -> "TestProgram":
        """Read a row back, recording its bitflip count under ``key``."""
        if not key:
            raise ProgramError("result key must be non-empty")
        self.instructions.append(ReadRow(bank, row, key))
        return self

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

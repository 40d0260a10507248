"""A software stand-in for the DRAM Bender FPGA testing infrastructure.

The paper drives real DDR4 modules with DRAM Bender (built on SoftMC): a
host machine compiles test programs, an FPGA executes them with
cycle-accurate command timing, and a PID-controlled heater holds the chips at
a target temperature.  This package reproduces that stack in software:

* :mod:`repro.bender.isa` — the test-program instruction set
  (ACT / PRE / write-row / read-row / sleep);
* :mod:`repro.bender.program` — a builder for test programs;
* :mod:`repro.bender.executor` — executes programs against a
  :class:`~repro.dram.module.DRAMModule` with timing bookkeeping;
* :mod:`repro.bender.temperature` — the PID temperature controller
  (MaxWell FT200 stand-in, +/- 0.5 C precision);
* :mod:`repro.bender.host` — the host-machine facade tying it together.
"""

from repro.bender.isa import Act, Pre, ReadRow, Sleep, SleepUntil, WriteRow
from repro.bender.program import TestProgram
from repro.bender.executor import ExecutionResult, ProgramExecutor
from repro.bender.compile import CompiledProgram, DoseSummary, compile_program, run_compiled
from repro.bender.temperature import PIDTemperatureController
from repro.bender.host import DRAMBenderHost

__all__ = [
    "Act", "Pre", "ReadRow", "Sleep", "SleepUntil", "WriteRow",
    "TestProgram", "ExecutionResult", "ProgramExecutor",
    "CompiledProgram", "DoseSummary", "compile_program", "run_compiled",
    "PIDTemperatureController", "DRAMBenderHost",
]

"""The host-machine facade of the testing platform.

A :class:`DRAMBenderHost` owns the device under test, the program executor,
and the temperature controller, mirroring the four components of the paper's
infrastructure (Fig. 5): host machine, FPGA board, thermocouple + heaters,
and PID controller.
"""

from __future__ import annotations

from repro.bender.compile import run_compiled
from repro.bender.executor import ExecutionResult, ProgramExecutor
from repro.bender.program import TestProgram
from repro.bender.temperature import PIDTemperatureController
from repro.dram.module import DRAMModule
from repro.exec import resolve_kernel, validate_stage_kernel


class DRAMBenderHost:
    """Connects a module, runs programs, and regulates temperature.

    ``kernel`` is the program-execution kernel (the ``host`` stage of
    :data:`repro.exec.STAGE_KERNELS`): ``stepping`` walks every
    instruction through the device model (the oracle); ``compiled`` folds
    each program analytically (bit-identical, faster).  ``None`` resolves
    through the default :class:`repro.exec.ExecutionPolicy`.
    """

    def __init__(self, module: DRAMModule | str, *,
                 temperature_c: float = 80.0, seed: int = 2025,
                 kernel: str | None = None) -> None:
        kernel = (resolve_kernel("host") if kernel is None
                  else validate_stage_kernel("host", kernel))
        if isinstance(module, str):
            module = DRAMModule(module, seed=seed, temperature_c=temperature_c)
        self.module = module
        self.kernel = kernel
        self.executor = ProgramExecutor(module)
        self.controller = PIDTemperatureController(setpoint_c=temperature_c)
        self.set_temperature(temperature_c)

    def set_temperature(self, temperature_c: float) -> float:
        """Drive the heaters until the chips settle at ``temperature_c``.

        The settled (regulated) temperature — within +/- 0.5 C of the target
        — is what the device under test actually experiences.
        """
        self.controller.set_target(temperature_c)
        settled = self.controller.settle()
        self.module.temperature_c = settled
        return settled

    def run(self, program: TestProgram) -> ExecutionResult:
        """Execute a test program on the device under test."""
        if self.kernel == "compiled":
            return run_compiled(self.module, program)
        return self.executor.execute(program)

    def new_program(self) -> TestProgram:
        """A fresh program bound to the device's timing parameters."""
        return TestProgram(timing=self.module.timing)

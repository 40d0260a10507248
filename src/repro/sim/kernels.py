"""The system-simulation kernel names (the ``sim`` stage of the policy).

The sim stage has two kernels: ``scalar``, the per-request drain loop of
:meth:`repro.sim.system.MemorySystem._run_scalar` and the parity oracle,
and ``array``, the structure-of-arrays drain loop with epoch mitigation
dispatch in :mod:`repro.sim.arraykernel`.  :meth:`MemorySystem.run
<repro.sim.system.MemorySystem.run>` dispatches between them; this module
only names them and resolves a requested name through the default
:class:`repro.exec.ExecutionPolicy`.
"""

from __future__ import annotations

from repro.exec import STAGE_KERNELS, resolve_kernel

#: The selectable system-simulation kernels.
SIM_KERNELS = STAGE_KERNELS["sim"]


def default_sim_kernel() -> str:
    """The kernel simulations use when ``kernel``/``sim_kernel`` is None."""
    return resolve_kernel("sim")


def resolve_sim_kernel(kernel: str | None) -> str:
    """Validate a kernel name; ``None`` resolves through the default
    :class:`repro.exec.ExecutionPolicy`."""
    return resolve_kernel("sim", kernel)

"""The system-simulation kernel names (the ``sim`` stage of the policy).

The sim stage has two kernels: ``scalar``, the per-request drain loop of
:meth:`repro.sim.system.MemorySystem._run_scalar` and the parity oracle,
and ``array``, the structure-of-arrays drain loop with epoch mitigation
dispatch in :mod:`repro.sim.arraykernel`.  :meth:`MemorySystem.run
<repro.sim.system.MemorySystem.run>` dispatches between them, and
:data:`repro.exec.STAGE_KERNELS` names them; a kernel left unnamed
resolves through :func:`repro.exec.resolve_kernel`.
"""

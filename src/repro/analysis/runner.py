"""Simulation-run orchestration shared by figure builders and benchmarks."""

from __future__ import annotations

from repro.core.config import PaCRAMConfig
from repro.core.pacram import PaCRAM
from repro.dram.catalog import PACRAM_REFERENCE_MODULES
from repro.dram.vendor import Manufacturer
from repro.errors import ConfigError
from repro.mitigations import make_mitigation
from repro.sim.config import SystemConfig
from repro.sim.system import MemorySystem, SimulationResult
from repro.validation import make_checker
from repro.workloads.suites import workload_by_name

#: Best-observed charge-restoration latencies per vendor (§9.2, obs. 5):
#: PaCRAM-H uses 0.36 tRAS, PaCRAM-M 0.18 tRAS, PaCRAM-S 0.45 tRAS.
PACRAM_BEST_FACTORS: dict[str, float] = {"H": 0.36, "M": 0.18, "S": 0.45}

#: The tested N_RH values of the evaluation (§9.1).
EVALUATED_NRH_VALUES: tuple[int, ...] = (1024, 512, 256, 128, 64, 32)


def pacram_reference_config(vendor: str,
                            tras_factor: float | None = None) -> PaCRAMConfig:
    """The PaCRAM-H / PaCRAM-M / PaCRAM-S configuration of §9.1.

    Uses the vendor's representative module (H5 / M2 / S6) at its
    best-observed latency unless ``tras_factor`` overrides it.
    """
    vendor = vendor.upper()
    if vendor not in PACRAM_BEST_FACTORS:
        raise ConfigError(f"vendor must be one of H/M/S, got {vendor!r}")
    module_id = PACRAM_REFERENCE_MODULES[Manufacturer(vendor)]
    factor = tras_factor if tras_factor is not None else PACRAM_BEST_FACTORS[vendor]
    return PaCRAMConfig.from_catalog(module_id, factor)


def run_simulation(workload_names: tuple[str, ...], *,
                   mitigation: str = "None", nrh: int = 1024,
                   pacram: PaCRAMConfig | None = None,
                   requests: int = 4_000, seed: int = 7,
                   config: SystemConfig | None = None,
                   check_protocol: str | None = None,
                   sim_kernel: str | None = None,
                   cache=None,
                   ) -> SimulationResult:
    """Run one configuration: workloads x mitigation x optional PaCRAM.

    When PaCRAM is enabled the mitigation is instantiated with the *scaled*
    N_RH (§8.2's security adjustment) and preventive refreshes use the
    reduced latency through the policy hook.

    ``check_protocol`` attaches a :class:`repro.validation.ProtocolChecker`
    to the controller (``"off"``/``"tolerant"``/``"strict"``; ``None``
    takes the default :class:`repro.exec.ExecutionPolicy`'s mode).
    Observed violations land in ``result.protocol_violations``.

    ``sim_kernel`` selects the controller drain loop (``"scalar"`` oracle
    or the bit-exact ``"array"`` tier, which also gets the flattened
    mitigation twins; ``None`` = process default); checking forces the
    scalar oracle.  ``cache`` (a
    :class:`~repro.analysis.baselines.BaselineCache`) memoizes unchecked
    no-PaCRAM runs across calls (and across processes, through its disk
    tier): Fig. 16 pointed at a sweep's cache reads the baselines that
    sweep simulated.

    An unchecked array-kernel run whose mechanism has no ACT penalty is
    first replayed on the no-mitigation run's activation stream
    (:mod:`repro.sim.replay`, recorded once per process per traces and
    config).  If the mechanism never acts there, its run is that
    no-mitigation run, and a fresh copy of its result is returned;
    otherwise the point runs in full.  Writable traces, the scalar
    oracle, checked runs and PRAC always run in full.
    """
    from repro.analysis.baselines import (
        baseline_code_digest,
        baseline_key,
        cacheable,
    )
    from repro.exec import default_policy, resolve_kernel

    if config is None:
        config = SystemConfig(num_cores=max(1, len(workload_names)))
    traces = [workload_by_name(name, requests=requests, seed=seed + i)
              for i, name in enumerate(workload_names)]
    mode = (check_protocol if check_protocol is not None
            else default_policy().check_protocol)
    kernel = resolve_kernel("sim", sim_kernel, check_protocol=mode)
    use_cache = cache is not None and cacheable(
        pacram=pacram, checker=None if mode == "off" else mode)
    key = None
    if use_cache:
        cache.ensure(baseline_code_digest())
        key = baseline_key(tuple(workload_names), traces,
                           mitigation=mitigation, nrh=nrh,
                           requests=requests, seed=seed, config=config)
        cached = cache.get(key)
        if cached is not None:
            return cached
    effective_nrh = nrh if pacram is None else pacram.scaled_nrh(nrh)
    mechanism = make_mitigation(mitigation, effective_nrh,
                                batched=(kernel == "array"),
                                config=config)
    if kernel == "array" and mechanism.act_penalty_ns == 0:
        # Imported here, with the array kernel it records on: scalar and
        # checked runs never load either.
        from repro.sim.replay import activation_stream

        stream = activation_stream(traces, config)
        if stream is not None:
            if not stream.acts(mechanism):
                result = stream.result()
                if use_cache:
                    cache.put(key, result)
                return result
            # The replay advanced this instance: the full run needs a
            # fresh one.
            mechanism = make_mitigation(mitigation, effective_nrh,
                                        batched=True, config=config)
    policy = None if pacram is None else PaCRAM(config, pacram)
    checker = make_checker(
        config, mode=mode,
        partial_limit=(policy.partial_restoration_limit()
                       if policy is not None else None),
        mitigation=mechanism)
    system = MemorySystem(config, traces, mitigation=mechanism, policy=policy,
                          observer=checker)
    result = system.run(kernel)
    if checker is not None:
        result.protocol_violations = list(checker.violations)
    if use_cache:
        cache.put(key, result)
    return result

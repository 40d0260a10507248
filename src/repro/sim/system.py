"""The full simulated system: cores + memory controller + event loop."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.mitigations.base import MitigationMechanism
from repro.sim.addrmap import AddressMapper
from repro.sim.config import SystemConfig
from repro.sim.commands import CommandObserver
from repro.sim.controller import MemoryController, RefreshLatencyPolicy
from repro.sim.core import CoreModel
from repro.sim.stats import (
    ControllerStats,
    CoreStats,
    LatencyAccumulator,
    LatencySummary,
)
from repro.workloads.trace import Trace


@dataclass
class SimulationResult:
    """Everything a benchmark needs from one simulation run."""

    core_stats: list[CoreStats]
    controller_stats: ControllerStats
    elapsed_ns: float
    preventive_busy_fraction: float
    energy_nj: float
    energy_breakdown: dict[str, float]
    read_latency: LatencySummary
    #: Protocol violations observed by an attached checker (empty when the
    #: run was unchecked or clean); filled in by the run orchestration.
    protocol_violations: list = field(default_factory=list)

    @property
    def ipc(self) -> dict[int, float]:
        return {s.core: s.ipc for s in self.core_stats}

    @property
    def mean_ipc(self) -> float:
        values = [s.ipc for s in self.core_stats]
        return sum(values) / len(values)

    @property
    def total_instructions(self) -> int:
        return sum(s.instructions for s in self.core_stats)


class MemorySystem:
    """Glues cores, address mapping, controller, and plugins together."""

    #: Per-core offset separating address spaces of co-running workloads
    #: (the OS would map each workload to disjoint physical frames).
    CORE_ADDRESS_STRIDE = 1 << 22  # cache lines (256 MB at 64 B lines)

    def __init__(self, config: SystemConfig, traces: list[Trace], *,
                 mitigation: MitigationMechanism | None = None,
                 policy: RefreshLatencyPolicy | None = None,
                 observer: CommandObserver | None = None) -> None:
        if not traces:
            raise SimulationError("need at least one workload trace")
        if len(traces) > config.num_cores:
            raise SimulationError(
                f"{len(traces)} traces for {config.num_cores} cores")
        self.config = config
        self.mapper = AddressMapper(config)
        self.controller = MemoryController(config, mitigation, policy,
                                           observer)
        self.cores = [
            CoreModel(i, trace, config, self.mapper,
                      address_offset=i * self.CORE_ADDRESS_STRIDE)
            for i, trace in enumerate(traces)
        ]
        self._latency = LatencyAccumulator()

    def run(self, kernel: str | None = None) -> SimulationResult:
        """Simulate until every core has drained its trace.

        ``kernel`` selects the drain-loop implementation: ``"scalar"`` is
        the per-request oracle below, ``"array"`` the bit-exact
        structure-of-arrays drain loop in :mod:`repro.sim.arraykernel`.
        ``None`` resolves through the default
        :class:`repro.exec.ExecutionPolicy`.  Both kernels feed an
        attached observer the same command stream.
        """
        from repro.exec import resolve_kernel, validate_stage_kernel

        kernel = (resolve_kernel("sim") if kernel is None
                  else validate_stage_kernel("sim", kernel))
        if kernel == "array":
            from repro.sim.arraykernel import run_array
            return run_array(self)
        return self._run_scalar()

    def _run_scalar(self) -> SimulationResult:
        controller = self.controller
        for core in self.cores:
            self._enqueue_all(core.pump())
        stall_guard = 0
        while True:
            request = controller.service_one()
            if request is not None:
                stall_guard = 0
                if request.is_read:
                    self._latency.add(
                        request.completion_ns - request.arrival_ns)
                    core = self.cores[request.core]
                    core.note_completion(request)
                    self._enqueue_all(core.pump())
                continue
            # Nothing arrived yet: advance time (one scan covers every
            # request sharing the next timestamp) or finish.
            if controller.advance_to_next_arrival():
                continue
            if all(core.finished() for core in self.cores):
                break
            # No queued work but cores unfinished: pump everyone once.
            produced = 0
            for core in self.cores:
                requests = core.pump()
                produced += len(requests)
                self._enqueue_all(requests)
            stall_guard += 1
            if produced == 0 and stall_guard > 2:
                raise SimulationError(
                    "deadlock: cores unfinished but no requests pending")
        return self._collect([core.stats() for core in self.cores])

    def _enqueue_all(self, requests: list) -> None:
        for request in requests:
            self.controller.enqueue(request)

    def _collect(self, core_stats: list[CoreStats]) -> SimulationResult:
        controller = self.controller
        elapsed = max(s.elapsed_ns for s in core_stats)
        if elapsed <= 0:
            raise SimulationError("zero elapsed time")
        if controller.observer is not None:
            controller.observer.finalize(elapsed)
        controller.energy.finalize_background(elapsed)
        energy = controller.energy
        breakdown = {
            "activation": energy.activation_nj,
            "read": energy.read_nj,
            "write": energy.write_nj,
            "periodic_refresh": energy.periodic_refresh_nj,
            "preventive_refresh": energy.preventive_refresh_nj,
            "metadata": energy.metadata_nj,
            "background": energy.background_nj,
        }
        return SimulationResult(
            core_stats=core_stats,
            controller_stats=controller.stats,
            elapsed_ns=elapsed,
            preventive_busy_fraction=controller.preventive_busy_fraction(elapsed),
            energy_nj=energy.total_nj,
            energy_breakdown=breakdown,
            read_latency=self._latency.summary(),
        )

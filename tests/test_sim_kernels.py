"""Batched system-simulation kernel: knob plumbing and bit-exact parity.

The batched kernel (:mod:`repro.sim.kernels`) is a performance
reimplementation of the scalar drain loop — the acceptance bar is that a
run's *entire* :class:`SimulationResult` (IPC, energy, latency summary,
every controller counter) and, with an observer attached, the full command
event stream are identical between kernels.  These tests pin that
contract on directed configurations; ``test_property_sim_parity.py``
fuzzes it.
"""

import pytest

from repro.analysis.runner import effective_sim_kernel
from repro.errors import ConfigError
from repro.exec.parity import assert_all_parity, assert_parity
from repro.mitigations import MITIGATION_CLASSES, make_mitigation
from repro.mitigations.batched import (
    BatchedGraphene,
    BatchedHydra,
    BatchedPARA,
)
from repro.sim.config import SystemConfig
from repro.sim.kernels import (
    SIM_KERNELS,
    default_sim_kernel,
    resolve_sim_kernel,
)
from repro.sim.system import MemorySystem
from repro.workloads.synth import TraceSpec, generate_trace


def _trace(seed=3, requests=1200, **overrides):
    fields = dict(name="test.kernels", mpki=30.0, locality=0.5,
                  footprint_lines=4096, write_fraction=0.3)
    fields.update(overrides)
    return generate_trace(TraceSpec(**fields), requests=requests, seed=seed)


def _run_pair(config, trace_seeds, *, mitigation=None, nrh=256,
              batched_mitigation=False, policy_factory=None, **trace_kw):
    """Run identical systems through both kernels; return both results."""
    results = []
    for kernel in ("scalar", "batched"):
        traces = [_trace(seed=s, **trace_kw) for s in trace_seeds]
        batched = batched_mitigation and kernel == "batched"
        mechanism = (make_mitigation(mitigation, nrh, batched=batched,
                                     config=config)
                     if mitigation else None)
        policy = policy_factory(config) if policy_factory else None
        system = MemorySystem(config, traces, mitigation=mechanism,
                              policy=policy)
        results.append(system.run(kernel))
    return results


class TestKernelKnob:
    def test_known_kernels(self):
        assert SIM_KERNELS == ("scalar", "batched", "array")
        for kernel in SIM_KERNELS:
            assert resolve_sim_kernel(kernel) == kernel

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigError):
            resolve_sim_kernel("turbo")

    def test_default_is_array(self):
        assert default_sim_kernel() == "array"

    def test_run_rejects_unknown_kernel(self, single_core_config):
        system = MemorySystem(single_core_config, [_trace(requests=10)])
        with pytest.raises(ConfigError):
            system.run("turbo")

    def test_checking_forces_scalar(self):
        assert effective_sim_kernel("batched", "strict") == "scalar"
        assert effective_sim_kernel("batched", "tolerant") == "scalar"
        assert effective_sim_kernel("batched", "off") == "batched"
        assert effective_sim_kernel(None, "off") == default_sim_kernel()

    def test_observer_defaults_to_scalar(self, single_core_config):
        observer = _RecordingObserver()
        system = MemorySystem(single_core_config, [_trace(requests=50)],
                              observer=observer)
        system.run()  # must not crash: implicit scalar under an observer
        assert observer.finalized is not None


class TestKernelParity:
    @pytest.mark.parametrize("mitigation", sorted(MITIGATION_CLASSES))
    def test_single_core_all_mitigations(self, single_core_config, mitigation):
        scalar, batched = _run_pair(single_core_config, [3],
                                    mitigation=mitigation)
        assert_parity(scalar, batched)

    @pytest.mark.parametrize("mitigation", ["PARA", "Hydra", "Graphene"])
    def test_batched_mitigation_variants(self, single_core_config, mitigation):
        scalar, batched = _run_pair(single_core_config, [3],
                                    mitigation=mitigation, nrh=64,
                                    batched_mitigation=True)
        assert_parity(scalar, batched)

    def test_multicore(self, quad_core_config):
        scalar, batched = _run_pair(quad_core_config, [1, 2, 3, 4],
                                    mitigation="PARA")
        assert_parity(scalar, batched)

    def test_write_heavy_forwarding(self, single_core_config):
        scalar, batched = _run_pair(single_core_config, [9],
                                    write_fraction=0.7, locality=0.2)
        assert_parity(scalar, batched)
        assert scalar.controller_stats.forwarded_reads > 0

    def test_pacram_policy(self, single_core_config):
        from repro.analysis.runner import pacram_reference_config
        from repro.core.pacram import PaCRAM

        pacram = pacram_reference_config("H")
        scalar, batched = _run_pair(
            single_core_config, [5], mitigation="PARA", nrh=8,
            policy_factory=lambda cfg: PaCRAM(cfg, pacram))
        assert_parity(scalar, batched)
        assert scalar.controller_stats.preventive_refresh_partial > 0

    def test_mitigation_counters(self, single_core_config):
        for kernel_mitigations in (False, True):
            traces_s = [_trace(seed=3)]
            traces_b = [_trace(seed=3)]
            ms = make_mitigation("Hydra", 64)
            mb = make_mitigation("Hydra", 64, batched=kernel_mitigations,
                                 config=single_core_config)
            MemorySystem(single_core_config, traces_s,
                         mitigation=ms).run("scalar")
            MemorySystem(single_core_config, traces_b,
                         mitigation=mb).run("batched")
            assert_parity(ms.counters, mb.counters)


class _RecordingObserver:
    """Observer that keeps the full command stream for comparison."""

    def __init__(self):
        self.events = []
        self.finalized = None

    def on_command(self, command):
        self.events.append(command)

    def finalize(self, end_ns):
        self.finalized = end_ns


class TestObserverStreamParity:
    @pytest.mark.parametrize("mitigation", ["PARA", "RFM", "Hydra"])
    def test_event_streams_identical(self, single_core_config, mitigation):
        streams = []
        for kernel in ("scalar", "batched"):
            observer = _RecordingObserver()
            system = MemorySystem(
                single_core_config, [_trace(seed=3)],
                mitigation=make_mitigation(mitigation, 64),
                observer=observer)
            system.run(kernel)
            streams.append(observer)
        assert_all_parity(streams[0].events, streams[1].events,
                          label="batched command stream")
        assert streams[0].finalized == streams[1].finalized
        assert len(streams[0].events) > 0


class TestBatchedMitigationUnits:
    def test_make_mitigation_selects_batched(self, single_core_config):
        assert isinstance(
            make_mitigation("PARA", 128, batched=True), BatchedPARA)
        assert isinstance(
            make_mitigation("Hydra", 128, batched=True,
                            config=single_core_config), BatchedHydra)
        assert isinstance(
            make_mitigation("Graphene", 128, batched=True,
                            config=single_core_config), BatchedGraphene)
        # No batched variant: fall back to the scalar class.
        assert type(make_mitigation("RFM", 128, batched=True)).__name__ == "RFM"
        assert type(make_mitigation("None", 128, batched=True)).__name__ \
            == "NoMitigation"

    def test_batched_para_draw_stream_matches_scalar(self):
        scalar = make_mitigation("PARA", 64)
        batched = make_mitigation("PARA", 64, batched=True)
        for i in range(5000):
            assert list(scalar.on_activation(0, i % 97, float(i))) \
                == list(batched.on_activation(0, i % 97, float(i)))

    def test_batched_hydra_geometry_validation(self):
        with pytest.raises(ConfigError):
            BatchedHydra(64, rows_per_bank=0)

    def test_batched_tables_reset_on_refresh_window(self):
        config = SystemConfig(num_cores=1)
        for name in ("Hydra", "Graphene"):
            scalar = make_mitigation(name, 32)
            batched = make_mitigation(name, 32, batched=True, config=config)
            for i in range(400):
                assert list(scalar.on_activation(1, i % 7, float(i))) \
                    == list(batched.on_activation(1, i % 7, float(i)))
            scalar.on_refresh_window(1e6)
            batched.on_refresh_window(1e6)
            for i in range(400):
                assert list(scalar.on_activation(1, i % 7, float(i))) \
                    == list(batched.on_activation(1, i % 7, float(i)))

"""System-simulation kernels: knob plumbing and bit-exact parity.

The array kernel (:mod:`repro.sim.arraykernel`) is a performance
reimplementation of the scalar drain loop — the acceptance bar is that a
run's *entire* :class:`SimulationResult` (IPC, energy, latency summary,
every controller counter) and, with an observer attached, the full command
event stream are identical between kernels.  These tests pin that
contract on directed configurations; ``test_property_sim_parity.py``
fuzzes it.  The flattened mitigation twins of
:mod:`repro.mitigations.batched`, which array-kernel runs use, are pinned
against their scalar parents here too.
"""

import sys
import threading

import numpy as np
import pytest

from repro.analysis.runner import pacram_reference_config, run_simulation
from repro.errors import ConfigError
from repro.exec import STAGE_KERNELS, resolve_kernel
from repro.exec.parity import assert_all_parity, assert_parity
from repro.mitigations import MITIGATION_CLASSES, make_mitigation
from repro.mitigations.batched import (
    BatchedGraphene,
    BatchedHydra,
    BatchedPARA,
)
from repro.sim import arraykernel
from repro.sim.arraykernel import clear_decode_memo, decoded_columns
from repro.sim.config import SystemConfig
from repro.sim.system import MemorySystem
from repro.workloads.suites import multicore_mixes
from repro.workloads.synth import TraceSpec, clear_trace_memo, generate_trace
from repro.workloads.trace import Trace


def _trace(seed=3, requests=1200, **overrides):
    fields = dict(name="test.kernels", mpki=30.0, locality=0.5,
                  footprint_lines=4096, write_fraction=0.3)
    fields.update(overrides)
    return generate_trace(TraceSpec(**fields), requests=requests, seed=seed)


def _run_pair(config, trace_seeds, *, mitigation=None, nrh=256,
              batched_mitigation=False, policy_factory=None, **trace_kw):
    """Run identical systems through both kernels; return both results."""
    results = []
    for kernel in ("scalar", "array"):
        traces = [_trace(seed=s, **trace_kw) for s in trace_seeds]
        batched = batched_mitigation and kernel == "array"
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
        assert STAGE_KERNELS["sim"] == ("scalar", "array")
        for kernel in STAGE_KERNELS["sim"]:
            assert resolve_kernel("sim", kernel) == kernel

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigError):
            resolve_kernel("sim", "turbo")

    def test_default_is_array(self):
        assert resolve_kernel("sim") == "array"

    def test_run_rejects_unknown_kernel(self, single_core_config):
        system = MemorySystem(single_core_config, [_trace(requests=10)])
        with pytest.raises(ConfigError):
            system.run("turbo")


class TestKernelParity:
    @pytest.mark.parametrize("mitigation", sorted(MITIGATION_CLASSES))
    def test_single_core_all_mitigations(self, single_core_config, mitigation):
        scalar, array = _run_pair(single_core_config, [3],
                                  mitigation=mitigation)
        assert_parity(scalar, array)

    @pytest.mark.parametrize("mitigation", ["PARA", "Hydra", "Graphene"])
    def test_batched_mitigation_variants(self, single_core_config, mitigation):
        scalar, array = _run_pair(single_core_config, [3],
                                  mitigation=mitigation, nrh=64,
                                  batched_mitigation=True)
        assert_parity(scalar, array)

    def test_multicore(self, quad_core_config):
        scalar, array = _run_pair(quad_core_config, [1, 2, 3, 4],
                                  mitigation="PARA")
        assert_parity(scalar, array)

    def test_write_heavy_forwarding(self, single_core_config):
        scalar, array = _run_pair(single_core_config, [9],
                                  write_fraction=0.7, locality=0.2)
        assert_parity(scalar, array)
        assert scalar.controller_stats.forwarded_reads > 0

    def test_pacram_policy(self, single_core_config):
        from repro.analysis.runner import pacram_reference_config
        from repro.core.pacram import PaCRAM

        pacram = pacram_reference_config("H")
        scalar, array = _run_pair(
            single_core_config, [5], mitigation="PARA", nrh=8,
            policy_factory=lambda cfg: PaCRAM(cfg, pacram))
        assert_parity(scalar, array)
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
                         mitigation=mb).run("array")
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
        for kernel in ("scalar", "array"):
            observer = _RecordingObserver()
            system = MemorySystem(
                single_core_config, [_trace(seed=3)],
                mitigation=make_mitigation(mitigation, 64),
                observer=observer)
            system.run(kernel)
            streams.append(observer)
        assert_all_parity(streams[0].events, streams[1].events,
                          label="array command stream")
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


def _clear_memos():
    clear_trace_memo()
    clear_decode_memo()


class TestInputMemos:
    """Memoized traces and decoded columns never change a result."""

    def test_results_independent_of_run_order(self):
        def run(names, **kwargs):
            return run_simulation(names, requests=400, sim_kernel="array",
                                  **kwargs)

        first = dict(mitigation="Graphene", nrh=64,
                     pacram=pacram_reference_config("H"))
        _clear_memos()
        before = run(("spec06.mcf",), **first)
        run(("spec06.mcf",), mitigation="PARA", nrh=64)
        run(multicore_mixes(1)[0], mitigation="PARA", nrh=256)
        run(("ycsb.a",), mitigation="RFM", nrh=64,
            pacram=pacram_reference_config("S"))
        after = run(("spec06.mcf",), **first)
        _clear_memos()
        cold = run(("spec06.mcf",), **first)
        assert_parity(before, after)
        assert_parity(cold, after)

    @staticmethod
    def _run(config, trace, kernel):
        return MemorySystem(config, [trace]).run(kernel)

    def test_writable_trace_decoded_afresh(self, single_core_config):
        base = _trace(requests=600)
        trace = Trace(base.name, base.bubbles.copy(), base.is_write.copy(),
                      base.addresses.copy())
        first = self._run(single_core_config, trace, "array")
        trace.addresses *= 7
        trace.bubbles[::2] += 3
        second = self._run(single_core_config, trace, "array")
        assert_parity(self._run(single_core_config, trace, "scalar"), second)
        assert second.elapsed_ns != first.elapsed_ns

    def test_read_only_view_of_writable_array_decoded_afresh(
            self, single_core_config):
        base = _trace(requests=600)
        buffers = [np.array(base.bubbles), np.array(base.is_write),
                   np.array(base.addresses)]
        views = [buffer.view() for buffer in buffers]
        for view in views:
            view.flags.writeable = False
        trace = Trace(base.name, *views)
        first = self._run(single_core_config, trace, "array")
        buffers[2] *= 7
        second = self._run(single_core_config, trace, "array")
        assert_parity(self._run(single_core_config, trace, "scalar"), second)
        assert second.elapsed_ns != first.elapsed_ns

    def test_decode_memo_consistent_under_threads(self, monkeypatch):
        config = SystemConfig(num_cores=4)
        traces = [_trace(seed=seed, requests=300) for seed in range(6)]
        cores = [core for first in (0, 2)
                 for core in MemorySystem(config,
                                          traces[first:first + 4]).cores]
        expected = [
            arraykernel._decode(
                (core.trace.bubbles, core.trace.is_write,
                 core.trace.addresses),
                core.core_id, core.address_offset, core.config)
            for core in cores]
        # 8 decodings of 300 requests against a budget of 1,000: every
        # round evicts, so a lost update would show in the bookkeeping.
        monkeypatch.setattr(arraykernel._decoded, "budget", 1_000)
        clear_decode_memo()
        failures = []

        def hammer():
            try:
                for _ in range(40):
                    for core, want in zip(cores, expected):
                        if decoded_columns(core) != want:
                            failures.append(f"core {core.core_id} differs")
            except Exception as error:  # a thread's error fails the test
                failures.append(repr(error))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        held = sum(size for _, _, size
                   in arraykernel._decoded._entries.values())
        assert arraykernel._decoded.held == held <= 1_000
        clear_decode_memo()

"""Tests for the core model and the full simulated system."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.addrmap import AddressMapper
from repro.sim.config import SystemConfig
from repro.sim.core import CoreModel
from repro.sim.stats import weighted_speedup
from repro.sim.system import MemorySystem
from repro.workloads.trace import Trace


def make_trace(bubbles, addresses, writes=None, name="t") -> Trace:
    n = len(bubbles)
    return Trace(
        name=name,
        bubbles=np.asarray(bubbles, dtype=np.int64),
        is_write=np.asarray(writes if writes is not None else [False] * n),
        addresses=np.asarray(addresses, dtype=np.int64),
    )


@pytest.fixture()
def config() -> SystemConfig:
    return SystemConfig(num_cores=1)


@pytest.fixture()
def mapper(config) -> AddressMapper:
    return AddressMapper(config)


class TestCoreModel:
    def test_pump_emits_requests_in_order(self, config, mapper):
        trace = make_trace([10, 10, 10], [1, 2, 3])
        core = CoreModel(0, trace, config, mapper)
        requests = core.pump()
        assert len(requests) == 3
        arrivals = [r.arrival_ns for r in requests]
        assert arrivals == sorted(arrivals)

    def test_frontend_throughput(self, config, mapper):
        # 400 bubbles at 4-wide, 3.2 GHz: 100 cycles = 31.25 ns.
        trace = make_trace([400], [1])
        core = CoreModel(0, trace, config, mapper)
        request = core.pump()[0]
        assert request.arrival_ns == pytest.approx(400 / 4 / 3.2, rel=0.01)

    def test_window_limits_outstanding_reads(self, config, mapper):
        # Zero bubbles: the window holds 128 instructions = 128 reads.
        trace = make_trace([0] * 300, list(range(300)))
        core = CoreModel(0, trace, config, mapper)
        requests = core.pump()
        assert len(requests) == config.instruction_window

    def test_completion_releases_window(self, config, mapper):
        trace = make_trace([0] * 200, list(range(200)))
        core = CoreModel(0, trace, config, mapper)
        first_batch = core.pump()
        head = first_batch[0]
        head.completion_ns = 50.0
        core.note_completion(head)
        more = core.pump()
        assert more  # window slot freed
        assert all(r.arrival_ns >= 50.0 for r in more[:1])

    def test_writes_do_not_block_window(self, config, mapper):
        trace = make_trace([0] * 300, list(range(300)), writes=[True] * 300)
        core = CoreModel(0, trace, config, mapper)
        requests = core.pump()
        assert len(requests) == 300  # all emitted: stores retire immediately

    def test_finished_requires_all_loads_back(self, config, mapper):
        trace = make_trace([0, 0], [1, 2])
        core = CoreModel(0, trace, config, mapper)
        requests = core.pump()
        assert not core.finished()
        for i, request in enumerate(requests):
            request.completion_ns = 10.0 * (i + 1)
            core.note_completion(request)
        assert core.finished()

    def test_stats_before_finish_rejected(self, config, mapper):
        trace = make_trace([0], [1])
        core = CoreModel(0, trace, config, mapper)
        core.pump()
        with pytest.raises(SimulationError):
            core.stats()

    def test_address_offset_applied(self, config, mapper):
        trace = make_trace([0], [100])
        core = CoreModel(1, trace, config, mapper, address_offset=1 << 20)
        request = core.pump()[0]
        assert request.address == 100 + (1 << 20)


class TestMemorySystem:
    def test_single_core_completes(self, config, small_trace):
        result = MemorySystem(config, [small_trace]).run()
        assert result.total_instructions == small_trace.instructions
        assert 0 < result.mean_ipc <= config.issue_width

    def test_deterministic(self, config, small_trace):
        a = MemorySystem(config, [small_trace]).run()
        b = MemorySystem(config, [small_trace]).run()
        assert a.mean_ipc == b.mean_ipc
        assert a.energy_nj == b.energy_nj

    def test_multicore_contention_slows_cores(self, small_trace):
        single = MemorySystem(SystemConfig(num_cores=1), [small_trace]).run()
        quad = MemorySystem(SystemConfig(num_cores=4),
                            [small_trace] * 4).run()
        assert quad.ipc[0] < single.ipc[0]

    def test_too_many_traces_rejected(self, config, small_trace):
        with pytest.raises(SimulationError):
            MemorySystem(config, [small_trace, small_trace])

    def test_empty_traces_rejected(self, config):
        with pytest.raises(SimulationError):
            MemorySystem(config, [])

    def test_energy_breakdown_sums_to_total(self, config, small_trace):
        result = MemorySystem(config, [small_trace]).run()
        assert sum(result.energy_breakdown.values()) == pytest.approx(
            result.energy_nj)

    def test_write_heavy_trace_completes(self, config, mapper):
        trace = make_trace([5] * 500, list(range(500)),
                           writes=[True] * 500)
        result = MemorySystem(config, [trace]).run()
        assert result.controller_stats.writes == 500


class TestWeightedSpeedup:
    def test_identity(self):
        ipcs = {0: 1.0, 1: 2.0}
        assert weighted_speedup(ipcs, ipcs) == pytest.approx(2.0)

    def test_slowdown_below_count(self):
        assert weighted_speedup({0: 0.5}, {0: 1.0}) == pytest.approx(0.5)

    def test_mismatched_cores_rejected(self):
        with pytest.raises(SimulationError):
            weighted_speedup({0: 1.0}, {1: 1.0})

    def test_zero_baseline_rejected(self):
        with pytest.raises(SimulationError):
            weighted_speedup({0: 1.0}, {0: 0.0})

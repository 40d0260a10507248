"""Property-based parity: the array kernel is bit-exact with the oracle.

Hypothesis draws random trace shapes, core counts, mitigations (scalar and
batched variants), and N_RH values; for every draw the array kernel must
produce the *identical* :class:`SimulationResult` as the scalar oracle —
same IPC, energy, latency summary, and every controller counter —
identical mitigation counters, and (separately) identical observer event
streams.
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mitigations import MITIGATION_CLASSES, make_mitigation
from repro.sim.config import SystemConfig
from repro.sim.system import MemorySystem
from repro.workloads.synth import TraceSpec, generate_trace


@st.composite
def sim_setups(draw):
    """(config, trace specs+seeds, mitigation name, nrh, batched?)."""
    num_cores = draw(st.integers(min_value=1, max_value=3))
    traces = []
    for i in range(num_cores):
        spec = TraceSpec(
            name=f"prop.{i}",
            mpki=draw(st.floats(min_value=2.0, max_value=60.0)),
            locality=draw(st.floats(min_value=0.0, max_value=0.95)),
            footprint_lines=draw(st.sampled_from([512, 4096, 65536])),
            write_fraction=draw(st.floats(min_value=0.0, max_value=0.8)),
            hot_fraction=draw(st.floats(min_value=0.0, max_value=0.6)),
            hot_lines=draw(st.sampled_from([16, 64])),
        )
        requests = draw(st.integers(min_value=20, max_value=400))
        seed = draw(st.integers(min_value=0, max_value=2**16))
        traces.append((spec, requests, seed))
    mitigation = draw(st.sampled_from(sorted(MITIGATION_CLASSES)))
    nrh = draw(st.sampled_from([16, 64, 512]))
    batched_mitigation = draw(st.booleans())
    return num_cores, traces, mitigation, nrh, batched_mitigation


def _build(setup, kernel):
    num_cores, trace_specs, mitigation, nrh, batched_mitigation = setup
    config = SystemConfig(num_cores=num_cores)
    traces = [generate_trace(spec, requests=requests, seed=seed)
              for spec, requests, seed in trace_specs]
    mechanism = make_mitigation(
        mitigation, nrh,
        batched=(batched_mitigation and kernel == "array"),
        config=config)
    return config, traces, mechanism


@pytest.mark.parametrize("fast_kernel", ("array",))
@given(sim_setups())
@settings(max_examples=25, deadline=None)
def test_fast_kernel_matches_scalar_oracle(fast_kernel, setup):
    config, traces, mechanism_s = _build(setup, "scalar")
    scalar = MemorySystem(config, traces,
                          mitigation=mechanism_s).run("scalar")
    config, traces, mechanism_f = _build(setup, fast_kernel)
    fast = MemorySystem(config, traces,
                        mitigation=mechanism_f).run(fast_kernel)
    assert asdict(scalar) == asdict(fast)
    assert asdict(mechanism_s.counters) == asdict(mechanism_f.counters)


class _RecordingObserver:
    def __init__(self):
        self.events = []
        self.finalized = None

    def on_command(self, command):
        self.events.append(command)

    def finalize(self, end_ns):
        self.finalized = end_ns


@given(sim_setups())
@settings(max_examples=10, deadline=None)
def test_observer_event_streams_match(setup):
    streams = []
    for kernel in ("scalar", "array"):
        config, traces, mechanism = _build(setup, kernel)
        observer = _RecordingObserver()
        MemorySystem(config, traces, mitigation=mechanism,
                     observer=observer).run(kernel)
        streams.append(observer)
    for other in streams[1:]:
        assert streams[0].events == other.events
        assert streams[0].finalized == other.finalized

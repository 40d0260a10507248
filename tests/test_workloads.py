"""Tests for traces, synthetic generation, and the benchmark suites."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.workloads.suites import (
    WORKLOAD_SPECS,
    multicore_mixes,
    single_core_suite,
    workload_by_name,
    workload_spec,
)
from repro.workloads.synth import (
    TraceSpec,
    clear_trace_memo,
    generate_trace,
    trace_generations,
)
from repro.workloads.trace import Trace


class TestTrace:
    def test_instruction_count(self):
        trace = Trace("t", np.array([4, 4]), np.array([False, True]),
                      np.array([1, 2]))
        assert trace.instructions == 10
        assert trace.mpki == pytest.approx(200.0)

    def test_write_fraction(self):
        trace = Trace("t", np.zeros(4, dtype=np.int64),
                      np.array([True, True, False, False]),
                      np.arange(4))
        assert trace.write_fraction == 0.5

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ConfigError):
            Trace("t", np.array([1]), np.array([False, True]), np.array([1]))

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            Trace("t", np.array([], dtype=np.int64),
                  np.array([], dtype=bool), np.array([], dtype=np.int64))


class TestGenerateTrace:
    def test_deterministic(self):
        spec = TraceSpec("d", 10.0, 0.5, 2048)
        a = generate_trace(spec, requests=500, seed=1)
        b = generate_trace(spec, requests=500, seed=1)
        assert (a.addresses == b.addresses).all()

    def test_seed_changes_trace(self):
        spec = TraceSpec("d", 10.0, 0.5, 2048)
        a = generate_trace(spec, requests=500, seed=1)
        b = generate_trace(spec, requests=500, seed=2)
        assert (a.addresses != b.addresses).any()

    def test_mpki_approximated(self):
        for target in (2.0, 10.0, 35.0):
            spec = TraceSpec("m", target, 0.5, 2048)
            trace = generate_trace(spec, requests=8000, seed=3)
            assert trace.mpki == pytest.approx(target, rel=0.15)

    def test_write_fraction_approximated(self):
        spec = TraceSpec("w", 10.0, 0.5, 2048, write_fraction=0.4)
        trace = generate_trace(spec, requests=8000, seed=3)
        assert trace.write_fraction == pytest.approx(0.4, abs=0.03)

    def test_addresses_within_footprint(self):
        spec = TraceSpec("f", 10.0, 0.5, 777)
        trace = generate_trace(spec, requests=2000, seed=3)
        assert trace.addresses.min() >= 0
        assert trace.addresses.max() < 777

    def test_locality_increases_sequential_runs(self):
        low = generate_trace(TraceSpec("l", 10.0, 0.1, 4096),
                             requests=4000, seed=3)
        high = generate_trace(TraceSpec("h", 10.0, 0.9, 4096),
                              requests=4000, seed=3)

        def sequential_fraction(trace):
            diffs = np.diff(trace.addresses)
            return float((diffs == 1).mean())

        assert sequential_fraction(high) > sequential_fraction(low) + 0.3

    def test_hot_fraction_concentrates(self):
        spec = TraceSpec("hot", 10.0, 0.1, 65_536, hot_fraction=0.6,
                         hot_lines=32)
        trace = generate_trace(spec, requests=4000, seed=3)
        hot_hits = (trace.addresses < 32).mean()
        assert hot_hits > 0.4

    def test_validation(self):
        with pytest.raises(ConfigError):
            TraceSpec("x", -1.0, 0.5, 100)
        with pytest.raises(ConfigError):
            TraceSpec("x", 1.0, 1.5, 100)
        with pytest.raises(ConfigError):
            generate_trace(TraceSpec("x", 1.0, 0.5, 100), requests=0)

    def test_arrays_read_only(self):
        trace = generate_trace(TraceSpec("ro", 10.0, 0.5, 2048),
                               requests=300, seed=1)
        for array in (trace.bubbles, trace.is_write, trace.addresses):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1

    def test_equal_arguments_equal_content(self):
        spec = TraceSpec("eq", 10.0, 0.5, 2048)
        a = generate_trace(spec, requests=300, seed=1)
        b = generate_trace(TraceSpec("eq", 10.0, 0.5, 2048), requests=300,
                           seed=np.int64(1))
        assert b is a
        clear_trace_memo()
        c = generate_trace(spec, requests=300, seed=1)
        assert c is not a
        for name in ("bubbles", "is_write", "addresses"):
            assert (getattr(c, name) == getattr(a, name)).all()

    def test_float_requests_rejected_before_and_after_int(self):
        spec = TraceSpec("fl", 10.0, 0.5, 2048)
        clear_trace_memo()
        with pytest.raises(TypeError):
            generate_trace(spec, requests=400.0)
        generate_trace(spec, requests=400)
        with pytest.raises(TypeError):
            generate_trace(spec, requests=400.0)
        with pytest.raises(TypeError):
            generate_trace(spec, requests=400, seed=7.0)

    def test_memo_bounded(self):
        spec = TraceSpec("bound", 10.0, 0.5, 2048)
        clear_trace_memo()
        first = generate_trace(spec, requests=20, seed=0)
        for seed in range(1, 40):
            generate_trace(spec, requests=20, seed=seed)
        assert trace_generations() == 40
        assert generate_trace(spec, requests=20, seed=0) is not first


class TestSuites:
    def test_62_single_core_workloads(self):
        assert len(single_core_suite()) == 62
        assert len(set(single_core_suite())) == 62

    def test_60_mixes_of_four(self):
        mixes = multicore_mixes(60)
        assert len(mixes) == 60
        assert all(len(mix) == 4 for mix in mixes)

    def test_mixes_reference_known_workloads(self):
        names = set(single_core_suite())
        for mix in multicore_mixes(10):
            assert set(mix) <= names

    def test_mixes_deterministic(self):
        assert multicore_mixes(10) == multicore_mixes(10)

    def test_every_mix_has_memory_intensive_anchor(self):
        for mix in multicore_mixes(60):
            assert any(workload_spec(n).mpki >= 10.0 for n in mix)

    def test_suite_spans_intensity_range(self):
        mpkis = [spec.mpki for spec in WORKLOAD_SPECS]
        assert min(mpkis) < 1.0
        assert max(mpkis) > 30.0

    def test_all_five_suites_represented(self):
        prefixes = {name.split(".")[0] for name in single_core_suite()}
        assert prefixes == {"spec06", "spec17", "tpc", "media", "ycsb"}

    def test_workload_by_name(self):
        trace = workload_by_name("spec06.mcf", requests=100)
        assert trace.name == "spec06.mcf"
        assert len(trace) == 100

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError):
            workload_by_name("spec06.doom")

"""BaselineCache: memoized no-PaCRAM baselines with digest invalidation."""

from dataclasses import asdict

import pytest

from repro.analysis.baselines import (
    BaselineCache,
    baseline_code_digest,
    baseline_key,
    cacheable,
    result_from_json,
    result_to_json,
    trace_digest,
)
from repro.analysis.runner import run_simulation
from repro.errors import SimulationError
from repro.sim.config import SystemConfig
from repro.workloads.suites import workload_by_name


def _result(**kwargs):
    kwargs.setdefault("requests", 300)
    return run_simulation(("spec06.mcf",), **kwargs)


class TestResultRoundTrip:
    def test_exact(self):
        result = _result(mitigation="PARA", nrh=128)
        clone = result_from_json(result_to_json(result))
        assert asdict(clone) == asdict(result)

    def test_json_serializable(self):
        import json

        payload = result_to_json(_result())
        assert result_from_json(json.loads(json.dumps(payload))) is not None

    def test_refuses_checked_result(self):
        result = _result()
        result.protocol_violations = ["fake"]
        with pytest.raises(SimulationError):
            result_to_json(result)


class TestKeysAndDigests:
    def test_trace_digest_content_sensitive(self):
        a = workload_by_name("spec06.mcf", requests=200, seed=1)
        b = workload_by_name("spec06.mcf", requests=200, seed=1)
        c = workload_by_name("spec06.mcf", requests=200, seed=2)
        assert trace_digest(a) == trace_digest(b)
        assert trace_digest(a) != trace_digest(c)

    def test_key_covers_inputs(self):
        config = SystemConfig(num_cores=1)
        traces = [workload_by_name("spec06.mcf", requests=200, seed=7)]
        base = dict(mitigation="PARA", nrh=128, requests=200, seed=7,
                    config=config)
        key = baseline_key(("spec06.mcf",), traces, **base)
        assert key == baseline_key(("spec06.mcf",), traces, **base)
        assert key != baseline_key(("spec06.mcf",), traces,
                                   **{**base, "nrh": 64})
        assert key != baseline_key(("spec06.mcf",), traces,
                                   **{**base, "mitigation": "RFM"})
        other_config = SystemConfig(num_cores=1, channels=2)
        assert key != baseline_key(("spec06.mcf",), traces,
                                   **{**base, "config": other_config})

    def test_code_digest_stable(self):
        assert baseline_code_digest() == baseline_code_digest()

    def test_cacheable_gates(self):
        assert cacheable(pacram=None, checker=None)
        assert not cacheable(pacram=object(), checker=None)
        assert not cacheable(pacram=None, checker="strict")


class TestBaselineCache:
    def test_memoizes(self):
        cache = BaselineCache()
        first = _result(mitigation="PARA", nrh=128, cache=cache)
        second = _result(mitigation="PARA", nrh=128, cache=cache)
        assert asdict(first) == asdict(second)
        assert cache.hits == 1 and cache.misses == 1

    def test_get_returns_fresh_copies(self):
        cache = BaselineCache()
        first = _result(cache=cache)
        second = _result(cache=cache)
        assert first is not second
        second.energy_breakdown["activation"] = -1.0
        third = _result(cache=cache)
        assert third.energy_breakdown["activation"] \
            == first.energy_breakdown["activation"]

    def test_digest_drift_invalidates(self):
        cache = BaselineCache()
        cache.ensure("digest-a")
        cache.put("key", _result())
        assert len(cache) == 1
        cache.ensure("digest-b")
        assert len(cache) == 0
        assert cache.invalidations == 1
        assert cache.get("key") is None

    def test_lru_bound(self):
        cache = BaselineCache(maxsize=2)
        result = _result()
        for key in ("a", "b", "c"):
            cache.put(key, result)
        assert len(cache) == 2
        assert cache.get("a") is None  # evicted
        assert cache.get("c") is not None

    def test_rejects_bad_maxsize(self):
        with pytest.raises(ValueError):
            BaselineCache(maxsize=0)

    def test_pacram_and_checked_runs_bypass(self):
        from repro.analysis.runner import pacram_reference_config

        cache = BaselineCache()
        _result(mitigation="PARA", nrh=128,
                pacram=pacram_reference_config("H"), cache=cache)
        _result(mitigation="PARA", nrh=128, check_protocol="tolerant",
                cache=cache)
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0


class TestDiskTier:
    def test_shared_across_instances(self, tmp_path):
        cache = BaselineCache(disk_dir=tmp_path)
        first = _result(cache=cache)
        fresh = BaselineCache(disk_dir=tmp_path)
        second = _result(cache=fresh)
        assert asdict(first) == asdict(second)
        assert fresh.hits == 1 and fresh.misses == 0

    def test_stale_digest_ignored(self, tmp_path):
        cache = BaselineCache(disk_dir=tmp_path)
        cache.ensure("old-digest")
        cache.put("key", _result())
        fresh = BaselineCache(disk_dir=tmp_path)
        fresh.ensure("new-digest")
        assert fresh.get("key") is None

    def test_torn_file_is_a_miss(self, tmp_path):
        cache = BaselineCache(disk_dir=tmp_path)
        cache.ensure("d")
        cache.put("key", _result())
        for path in tmp_path.glob("baseline_*.json"):
            path.write_text("{ not json")
        fresh = BaselineCache(disk_dir=tmp_path)
        fresh.ensure("d")
        assert fresh.get("key") is None

    def test_clear_disk(self, tmp_path):
        cache = BaselineCache(disk_dir=tmp_path)
        cache.ensure("d")
        cache.put("a", _result())
        cache.put("b", _result(mitigation="PARA", nrh=128))
        assert cache.clear_disk() == 2
        assert cache.clear_disk() == 0


class TestSweepIntegration:
    def test_force_clears_cache(self, tmp_path):
        from repro.analysis.sweeprunner import SweepGrid, SweepRunner

        grid = SweepGrid(mitigations=("PARA",), nrh_values=(1024,),
                         pacram_vendors=(None,),
                         workload_sets=(("spec06.mcf",),), requests=300)
        runner = SweepRunner(tmp_path / "sweep", grid)
        runner.run(jobs=1)
        (entry,) = runner.cache_dir().glob("baseline_*.json")
        stale = entry.with_name("baseline_stale.json")
        stale.write_text("{}")
        runner.run(jobs=1, force=True)
        assert sorted(runner.cache_dir().glob("baseline_*.json")) == [entry]

"""The shared DigestCache: one memo implementation, one ``--force``.

Unit tests for :mod:`repro.runtime.cache`, the ``force`` contract of the
one cache a job persists (a sweep's baseline cache, cleared through
:class:`~repro.service.execution.JobExecution`), plus property tests
pinning that the thin instantiations (:class:`ProbeCache`,
:class:`BaselineCache`) invalidate on digest drift *identically* — same
hits, misses, invalidations, and surviving entries for any interleaving
of operations.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.baselines import BaselineCache, baseline_code_digest
from repro.analysis.sweeprunner import SweepGrid, SweepRunner
from repro.characterization.campaign import (
    CampaignConfig,
    CharacterizationCampaign,
)
from repro.characterization.probecache import ProbeCache
from repro.runtime.cache import DigestCache
from repro.service.execution import JobExecution
from repro.validation.physics import model_digest

#: One no-PaCRAM point: a sweep of it persists exactly one baseline.
_BASELINE_GRID = SweepGrid(mitigations=("PARA",), nrh_values=(1024,),
                           pacram_vendors=(None,),
                           workload_sets=(("spec06.mcf",),), requests=300)


class _PlainCache(DigestCache):
    """Instantiation with no disk tier."""

    name = "test-plain"


class _DiskCache(DigestCache):
    """Disk-backed instantiation using the base codec."""

    name = "test-disk"
    file_prefix = "entry"


def _force(execution: JobExecution) -> None:
    """A forced run of no tasks: only the ``force`` contract acts."""
    execution.run([], loader=None, force=True, jobs=1)


class TestDigestCacheCore:
    def test_basic_memoization(self):
        cache = _PlainCache(maxsize=8)
        cache.ensure("d1")
        assert cache.get("k") is None
        cache.put("k", {"v": 1})
        assert cache.get("k") == {"v": 1}
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction_order(self):
        cache = _PlainCache(maxsize=2)
        cache.ensure("d")
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b is now the oldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_first_bind_is_not_an_invalidation(self):
        cache = _PlainCache(maxsize=4)
        cache.ensure("d1")
        assert cache.invalidations == 0
        cache.ensure("d1")
        assert cache.invalidations == 0
        cache.ensure("d2")
        assert cache.invalidations == 1

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            _PlainCache(maxsize=0)

    def test_stats_shape(self):
        cache = _PlainCache(maxsize=4)
        cache.ensure("d")
        cache.put("k", 1)
        cache.get("k")
        cache.get("missing")
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["hits"] == 1
        assert stats["misses"] == 1 and stats["hit_rate"] == 0.5


class TestJobCache:
    """A job names the one disk-backed cache it persists: a sweep its
    baseline cache, a campaign none.  ``force`` clears exactly that
    cache's entries, and the summary counts them on disk."""

    def test_only_the_sweep_persists_a_cache(self, tmp_path):
        sweep = SweepRunner(tmp_path / "sweep", _BASELINE_GRID)
        assert isinstance(sweep.execution.cache, BaselineCache)
        assert sweep.execution.cache.disk_dir == sweep.cache_dir() \
            == tmp_path / "sweep" / "baseline_cache"
        campaign = CharacterizationCampaign(tmp_path / "campaign")
        assert campaign.execution.cache is None
        assert campaign.execution.describe_cache() is None

    def test_force_clears_the_sweeps_cache(self, tmp_path):
        runner = SweepRunner(tmp_path / "sweep", _BASELINE_GRID)
        runner.run(jobs=1)
        stale = runner.cache_dir() / "baseline_deadbeef.json"
        stale.write_text("{}")
        assert len(runner.execution.cache.disk_entries()) == 2
        runner.run(jobs=1, force=True)
        # The stale entry is gone; the forced run stored its one baseline
        # again.
        assert not stale.exists()
        assert len(runner.execution.cache.disk_entries()) == 1

    def test_force_on_a_missing_dir_is_a_noop(self, tmp_path):
        cache = BaselineCache(disk_dir=tmp_path / "nope")
        execution = JobExecution(tmp_path / "job", cache=cache)
        _force(execution)
        assert cache.disk_entries() == [] and cache.clear_disk() == 0
        assert not (tmp_path / "nope").exists()

    def test_foreign_files_survive_force(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        keeper = cache_dir / "README.txt"
        keeper.write_text("not a cache entry")
        (cache_dir / "baseline_deadbeef.json").write_text("{}")
        execution = JobExecution(tmp_path,
                                 cache=BaselineCache(disk_dir=cache_dir))
        _force(execution)
        assert sorted(p.name for p in cache_dir.iterdir()) == ["README.txt"]

    def test_force_without_a_cache_clears_nothing(self, tmp_path):
        # A campaign persists no cache: its force drops only its results,
        # never a cache that happens to live in the directory.
        entry = tmp_path / "baseline_cache" / "baseline_deadbeef.json"
        entry.parent.mkdir()
        entry.write_text("{}")
        _force(CharacterizationCampaign(tmp_path).execution)
        assert entry.exists()

    def test_summary_counts_entries_on_disk(self, tmp_path):
        execution = JobExecution(
            tmp_path, cache=_DiskCache(maxsize=4, disk_dir=tmp_path / "c"))
        assert execution.describe_cache() == "cache test-disk: persisted=0"
        # Entries another instance wrote (a worker's) count too.
        worker = _DiskCache(maxsize=4, disk_dir=tmp_path / "c")
        worker.ensure("d")
        worker.put("a", 1)
        worker.put("b", 2)
        (tmp_path / "c" / "notes.txt").write_text("not an entry")
        assert execution.describe_cache() == "cache test-disk: persisted=2"


class TestProbeCacheInMemory:
    """A scalar campaign memoizes its probes in memory and persists
    nothing beside its results."""

    def test_scalar_campaign_leaves_only_results(self, tmp_path,
                                                 monkeypatch):
        served = []
        get = ProbeCache.get

        def spy(self, key):
            value = get(self, key)
            served.append(value is not None)
            return value

        monkeypatch.setattr(ProbeCache, "get", spy)
        results = tmp_path / "campaign"
        config = CampaignConfig(module_ids=("S6",), per_region=1,
                                kernel="scalar")
        CharacterizationCampaign(results, config).run(jobs=1)
        assert sorted(p.name for p in results.iterdir()) \
            == ["S6.json", "run_report.json"]
        assert any(served)  # the probes did hit the memory tier


_DIGESTS = st.sampled_from(
    [model_digest("S6", 2025), model_digest("H5", 2025),
     model_digest("S6", 2026), baseline_code_digest()])
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("ensure"), _DIGESTS),
        st.tuples(st.just("put"), st.integers(0, 5)),
        st.tuples(st.just("get"), st.integers(0, 5))),
    min_size=1, max_size=40)


class TestDriftParityProperty:
    """Satellite: the shared implementation must invalidate on digest
    drift exactly like both pre-unification caches did, for any operation
    interleaving."""

    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS)
    def test_probe_and_baseline_invalidate_identically(self, ops):
        probe = ProbeCache(maxsize=8)
        plain = _PlainCache(maxsize=8)
        for op, arg in ops:
            if op == "ensure":
                probe.ensure(arg)
                plain.ensure(arg)
            elif op == "put":
                probe.put((arg,), arg)
                plain.put((arg,), arg)
            else:
                a = probe.get((arg,))
                b = plain.get((arg,))
                assert a == b
            assert len(probe) == len(plain)
            assert probe.digest == plain.digest
        assert probe.invalidations == plain.invalidations
        assert probe.hits == plain.hits and probe.misses == plain.misses

    @settings(max_examples=40, deadline=None)
    @given(digests=st.lists(_DIGESTS, min_size=1, max_size=20))
    def test_invalidations_count_digest_changes(self, digests):
        cache = BaselineCache(maxsize=4)
        changes = 0
        previous = None
        for digest in digests:
            cache.ensure(digest)
            if previous is not None and digest != previous:
                changes += 1
            previous = digest
        assert cache.invalidations == changes


class TestKeyCanonicalization:
    """Regression: ``key_text`` must canonicalize (sorted keys, stable
    separators) so logically equal keys share one entry and one disk
    file."""

    def test_dict_key_order_is_identity(self):
        cache = _PlainCache(maxsize=4)
        cache.ensure("d")
        cache.put({"b": 2, "a": 1}, "value")
        assert cache.get({"a": 1, "b": 2}) == "value"
        assert len(cache) == 1
        assert cache.hits == 1 and cache.misses == 0

    def test_reordered_keys_share_one_disk_file(self, tmp_path):
        cache = _DiskCache(maxsize=4, disk_dir=tmp_path)
        cache.ensure("d")
        cache.put({"b": 2, "a": 1}, 7)
        cache.put({"a": 1, "b": 2}, 7)
        assert len(list(tmp_path.glob("entry_*.json"))) == 1
        fresh = _DiskCache(maxsize=4, disk_dir=tmp_path)
        fresh.ensure("d")
        assert fresh.get({"a": 1, "b": 2}) == 7

    def test_key_text_is_canonical_json(self):
        cache = _DiskCache(maxsize=4)
        assert cache.key_text({"b": 2, "a": 1}) \
            == cache.key_text({"a": 1, "b": 2}) == '{"a":1,"b":2}'
        assert cache.key_text("already-a-string") == "already-a-string"


class TestForceClearsMemoryTier:
    """Regression: ``clear_disk()`` (what ``force`` calls) must also drop
    the in-memory tier and unbind the digest, or a live instance keeps
    serving stale payloads after ``--force``."""

    def test_clear_disk_resets_memory_and_digest(self, tmp_path):
        cache = _DiskCache(maxsize=4, disk_dir=tmp_path)
        cache.ensure("d")
        cache.put({"k": 1}, "stale")
        assert cache.clear_disk() == 1
        assert len(cache) == 0 and cache.digest is None
        cache.ensure("d")
        assert cache.get({"k": 1}) is None

    def test_memory_only_clear_disk_still_drops_entries(self):
        cache = _PlainCache(maxsize=4)
        cache.ensure("d")
        cache.put({"k": 1}, "stale")
        assert cache.clear_disk() == 0
        cache.ensure("d")
        assert cache.get({"k": 1}) is None

    def test_force_clears_the_jobs_live_instance(self, tmp_path):
        live = _DiskCache(maxsize=4, disk_dir=tmp_path / "entries")
        live.ensure("model")
        live.put({"k": 1}, 42)
        _force(JobExecution(tmp_path, cache=live))
        assert len(live) == 0 and live.digest is None
        live.ensure("model")
        assert live.get({"k": 1}) is None

    def test_force_leaves_other_sweeps_alone(self, tmp_path):
        forced = SweepRunner(tmp_path / "a", _BASELINE_GRID)
        other = SweepRunner(tmp_path / "b", _BASELINE_GRID)
        forced.run(jobs=1)
        other.run(jobs=1)
        kept = other.execution.cache.disk_entries()
        _force(forced.execution)
        assert forced.execution.cache.disk_entries() == []
        assert other.execution.cache.disk_entries() == kept

    def test_rebind_after_force_is_not_an_invalidation(self, tmp_path):
        cache = _DiskCache(maxsize=4, disk_dir=tmp_path)
        cache.ensure("d")
        cache.clear_disk()
        cache.ensure("d")
        assert cache.invalidations == 0


class TestDiskHitCounter:
    """Regression: disk-tier promotions must be distinguishable from warm
    memory hits (``disk_hits``), without changing the ``hits`` total."""

    def test_promotion_counts_once_in_each(self, tmp_path):
        cache = _DiskCache(maxsize=4, disk_dir=tmp_path)
        cache.ensure("d")
        cache.put({"k": 1}, 7)
        fresh = _DiskCache(maxsize=4, disk_dir=tmp_path)
        fresh.ensure("d")
        assert fresh.get({"k": 1}) == 7  # disk promotion
        assert fresh.get({"k": 1}) == 7  # now warm in memory
        assert fresh.hits == 2 and fresh.disk_hits == 1
        assert fresh.misses == 0

    def test_memory_hits_leave_disk_hits_zero(self):
        cache = _PlainCache(maxsize=4)
        cache.ensure("d")
        cache.put("k", 1)
        cache.get("k")
        assert cache.hits == 1 and cache.disk_hits == 0
        assert cache.stats()["disk_hits"] == 0



class TestChecksumRequired:
    """A disk entry is served only under its checksum: one without is a
    miss, however plausible its payload."""

    def test_entry_without_checksum_is_a_miss(self, tmp_path):
        writer = _DiskCache(maxsize=4, disk_dir=tmp_path)
        writer.ensure("d")
        writer.put({"k": 1}, {"value": 13})
        (path,) = writer.disk_entries()
        payload = json.loads(path.read_text())
        del payload["checksum"]
        payload["result"]["value"] = 14
        path.write_text(json.dumps(payload, sort_keys=True))
        reader = _DiskCache(maxsize=4, disk_dir=tmp_path)
        reader.ensure("d")
        assert reader.get({"k": 1}) is None
        assert reader.corrupt_entries == 1 and reader.misses == 1


class TestForceClearsProbeTier:
    """``sweep --force`` must clear the sweep's baseline cache, stale
    entries included, and keep files that are not entries; a resume must
    not touch it."""

    def test_cli_force_clears_all_tiers(self, tmp_path, capsys):
        from repro.cli import main

        results = tmp_path / "sweep"
        stale = results / "baseline_cache" / "baseline_stale.json"
        stale.parent.mkdir(parents=True)
        stale.write_text(json.dumps(
            {"digest": "stale-model", "key": "k", "result": {}}))
        keeper = stale.parent / "README.txt"
        keeper.write_text("not a cache entry")
        argv = ["sweep", "--dir", str(results), "--jobs", "1",
                "--mitigations", "Graphene", "--nrh", "128",
                "--requests", "300"]
        assert main(argv) == 0
        assert stale.exists()  # untouched resume
        assert "cache baseline: persisted=2" in capsys.readouterr().out
        assert main(argv + ["--force"]) == 0
        assert not stale.exists() and keeper.exists()
        assert "cache baseline: persisted=1" in capsys.readouterr().out

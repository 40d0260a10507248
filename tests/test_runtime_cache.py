"""The shared DigestCache: one memo implementation, one ``--force``.

Unit tests for :mod:`repro.runtime.cache` plus property tests pinning that
the thin instantiations (:class:`ProbeCache`, :class:`BaselineCache`)
invalidate on digest drift *identically* — same hits, misses,
invalidations, and surviving entries for any interleaving of operations.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.baselines import BaselineCache, baseline_code_digest
from repro.characterization.probecache import ProbeCache
from repro.runtime.cache import (
    DigestCache,
    cache_counters,
    clear_disk_tiers,
    disk_tier_entries,
    registered_tiers,
    reset_cache_counters,
    summarize_caches,
)
from repro.validation.physics import model_digest


class _PlainCache(DigestCache):
    """Counter-isolated instantiation with no disk tier."""

    name = "test-plain"
    tier_subdir = None


class _DiskCache(DigestCache):
    """Disk-backed instantiation using the base codec.

    ``tier_subdir`` stays ``None`` so this test-only cache never joins the
    ``--force`` registry (which other tests assert the exact contents of);
    the disk tier itself only needs ``disk_dir``.
    """

    name = "test-disk"
    tier_subdir = None
    file_prefix = "entry"


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


class TestTierRegistry:
    def test_both_tiers_registered(self):
        # Of the two caches only the baseline cache persists; the probe
        # cache lives in memory and registers no tier.
        assert registered_tiers() == {
            "baseline": ("baseline_cache", "baseline_*.json")}

    def test_clear_disk_tiers_clears_every_tier(self, tmp_path):
        baseline_dir = tmp_path / "baseline_cache"
        baseline_dir.mkdir()
        (baseline_dir / "baseline_deadbeef.json").write_text("{}")
        assert disk_tier_entries(tmp_path) == {"baseline": 1}
        removed = clear_disk_tiers(tmp_path)
        assert removed == {"baseline": 1}
        assert disk_tier_entries(tmp_path) == {"baseline": 0}

    def test_clear_missing_root_is_a_noop(self, tmp_path):
        assert clear_disk_tiers(tmp_path / "nope") == {"baseline": 0}

    def test_foreign_files_survive_force(self, tmp_path):
        (tmp_path / "baseline_cache").mkdir()
        keeper = tmp_path / "baseline_cache" / "README.txt"
        keeper.write_text("not a cache entry")
        clear_disk_tiers(tmp_path)
        assert keeper.exists()


class TestUnifiedCounters:
    def test_counters_accumulate_across_instances(self):
        reset_cache_counters()
        for _ in range(2):
            cache = ProbeCache()
            cache.ensure("d")
            cache.get(("k",))
            cache.put(("k",), 1)
            cache.get(("k",))
        counts = cache_counters()["probe"]
        assert counts["hits"] == 2 and counts["misses"] == 2

    def test_summary_lists_registered_tiers(self, tmp_path):
        reset_cache_counters()
        text = summarize_caches(tmp_path)
        assert "cache baseline:" in text and "persisted=0" in text
        assert "cache probe:" not in text  # no tier and nothing counted

    def test_summary_without_root_skips_persisted(self):
        reset_cache_counters()
        cache = ProbeCache()
        cache.ensure("d")
        cache.get(("k",))
        text = summarize_caches()
        assert "misses=1" in text and "persisted" not in text


class TestProbeCacheInMemory:
    """A scalar campaign memoizes its probes in memory and persists
    nothing beside its results."""

    def test_scalar_campaign_leaves_only_results(self, tmp_path):
        from repro.characterization.campaign import (
            CampaignConfig,
            CharacterizationCampaign,
        )

        reset_cache_counters()
        results = tmp_path / "campaign"
        config = CampaignConfig(module_ids=("S6",), per_region=1,
                                kernel="scalar")
        CharacterizationCampaign(results, config).run(jobs=1)
        assert sorted(p.name for p in results.iterdir()) \
            == ["S6.json", "run_report.json"]
        assert cache_counters()["probe"]["hits"] > 0


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
    """Regression: ``clear_disk()``/``clear_disk_tiers()`` must also drop
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

    def test_clear_disk_tiers_clears_live_instances(self, tmp_path):
        live = _DiskCache(maxsize=4, disk_dir=tmp_path / "entries")
        live.ensure("model")
        live.put({"k": 1}, 42)
        clear_disk_tiers(tmp_path)
        assert len(live) == 0 and live.digest is None

    def test_clear_disk_tiers_scopes_to_root(self, tmp_path):
        other = _DiskCache(maxsize=4, disk_dir=tmp_path / "elsewhere")
        other.ensure("model")
        other.put({"k": 1}, 9)
        clear_disk_tiers(tmp_path / "results")
        assert len(other) == 1  # different root: memory tier untouched
        assert other.get({"k": 1}) == 9 and other.disk_hits == 0

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

    def test_unified_counters_and_summary_surface_disk_hits(self, tmp_path):
        reset_cache_counters()
        cache = _DiskCache(maxsize=4, disk_dir=tmp_path)
        cache.ensure("d")
        cache.put({"k": 1}, 2)
        fresh = _DiskCache(maxsize=4, disk_dir=tmp_path)
        fresh.ensure("d")
        fresh.get({"k": 1})
        counts = cache_counters()["test-disk"]
        assert counts["hits"] == 1 and counts["disk_hits"] == 1
        text = summarize_caches(tmp_path)
        assert "cache test-disk: hits=1 disk_hits=1" in text


class TestForceClearsProbeTier:
    """``sweep --force`` must clear every registered tier under the results
    dir (``baseline_cache/``), stale entries included; a resume must not."""

    def test_cli_force_clears_all_tiers(self, tmp_path):
        from repro.cli import main

        results = tmp_path / "sweep"
        stale = results / "baseline_cache" / "baseline_stale.json"
        stale.parent.mkdir(parents=True)
        stale.write_text(json.dumps(
            {"digest": "stale-model", "key": "k", "result": {}}))
        argv = ["sweep", "--dir", str(results), "--jobs", "1",
                "--mitigations", "Graphene", "--nrh", "128",
                "--requests", "300"]
        assert main(argv) == 0
        assert stale.exists()  # untouched resume
        assert main(argv + ["--force"]) == 0
        assert not stale.exists()

"""Digest-bound caching shared by every fast path (the one implementation).

Both memoization layers of the repo — the characterization
:class:`~repro.characterization.probecache.ProbeCache` and the system
evaluation :class:`~repro.analysis.baselines.BaselineCache` — follow the
same discipline:

* entries are *bound to a digest* of everything that shapes a result
  without appearing in the key (the calibrated device model, or the
  simulator's tuning constants); :meth:`DigestCache.ensure` drops every
  entry when the digest drifts, so editing the model can never serve a
  stale result;
* the in-memory tier is a bounded LRU;
* an optional disk tier persists one atomic JSON file per entry (safe
  under parallel workers), ignoring files bound to a stale digest.  Only
  the baseline cache uses it (``baseline_cache/`` under a sweep
  directory); the probe cache lives in memory, per module.

This module holds that machinery exactly once.  Concrete caches subclass
:class:`DigestCache` with a value codec and a tier name; the **tier
registry** lets ``--force`` clear every persisted tier under an output
directory without each call site knowing which caches exist, and the
process-wide counters give campaign/sweep summaries one unified view of
hits, misses, and invalidations across all caches.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from collections import OrderedDict
from pathlib import Path
from typing import Any

from repro.runtime.persist import write_atomic

#: Registered disk tiers: cache name -> (subdir, file glob).  Populated at
#: class-definition time by :meth:`DigestCache.__init_subclass__`.
_TIER_REGISTRY: dict[str, tuple[str, str]] = {}

#: Live cache instances (all subclasses, disk-backed or not), so a
#: module-level ``--force`` can drop in-memory tiers of caches that are
#: still serving in this process — not just their persisted files.
_INSTANCES: "weakref.WeakSet[DigestCache]" = weakref.WeakSet()

#: Process-wide counters per cache name, accumulated across every instance
#: (including short-lived per-worker ones): the unified stats surfaced in
#: campaign and sweep summaries.
_COUNTERS: dict[str, dict[str, int]] = {}


def registered_tiers() -> dict[str, tuple[str, str]]:
    """``{cache name: (subdir, file glob)}`` of every known disk tier."""
    return dict(_TIER_REGISTRY)


def clear_disk_tiers(root: str | Path) -> dict[str, int]:
    """Delete every registered cache's persisted entries under ``root``.

    This is the single ``--force`` semantics: one call clears *all*
    persisted tiers beneath an output directory (``baseline_cache/``, and
    any tier a future cache registers), so a forced re-run can never
    replay memoized results from any layer.  Returns the per-cache
    removal counts.
    """
    root = Path(root)
    removed: dict[str, int] = {}
    for name, (subdir, pattern) in sorted(_TIER_REGISTRY.items()):
        tier_dir = root / subdir
        count = 0
        if tier_dir.is_dir():
            for path in sorted(tier_dir.glob(pattern)):
                path.unlink()
                count += 1
        removed[name] = count
    # Unlinking files is not enough: a cache instance alive in this
    # process would keep serving the same stale payloads from its memory
    # tier.  Drop the memory tier of every live instance whose disk tier
    # lives under ``root`` (and of memory-only instances, which cannot be
    # scoped to a directory), so a forced re-run truly recomputes.
    for cache in list(_INSTANCES):
        if cache.disk_dir is None or root in cache.disk_dir.parents \
                or cache.disk_dir == root:
            cache.clear_memory()
    return removed


def disk_tier_entries(root: str | Path) -> dict[str, int]:
    """Persisted entry counts per registered cache under ``root``."""
    root = Path(root)
    counts: dict[str, int] = {}
    for name, (subdir, pattern) in sorted(_TIER_REGISTRY.items()):
        tier_dir = root / subdir
        counts[name] = (len(list(tier_dir.glob(pattern)))
                        if tier_dir.is_dir() else 0)
    return counts


def cache_counters() -> dict[str, dict[str, int]]:
    """Process-wide hit/miss/invalidation totals per cache name."""
    return {name: dict(values) for name, values in sorted(_COUNTERS.items())}


def reset_cache_counters() -> None:
    """Zero the process-wide counters (test isolation)."""
    _COUNTERS.clear()


def summarize_caches(root: str | Path | None = None) -> str:
    """One-line-per-cache summary for campaign/sweep reports.

    Combines the process-local counters (meaningful for serial runs) with
    the persisted disk-tier entry counts under ``root`` (meaningful for
    parallel runs, whose workers counted in their own processes).
    """
    persisted = disk_tier_entries(root) if root is not None else {}
    names = sorted(set(_TIER_REGISTRY) | set(_COUNTERS))
    lines = []
    for name in names:
        counts = _COUNTERS.get(name, {})
        parts = [f"hits={counts.get('hits', 0)}",
                 f"disk_hits={counts.get('disk_hits', 0)}",
                 f"misses={counts.get('misses', 0)}",
                 f"invalidations={counts.get('invalidations', 0)}"]
        if root is not None:
            parts.append(f"persisted={persisted.get(name, 0)}")
        lines.append(f"cache {name}: " + " ".join(parts))
    return "\n".join(lines)


def _count(name: str, counter: str, amount: int = 1) -> None:
    totals = _COUNTERS.setdefault(
        name, {"hits": 0, "disk_hits": 0, "misses": 0, "invalidations": 0})
    totals[counter] = totals.get(counter, 0) + amount


class DigestCache:
    """Bounded LRU memo bound to a digest, with an optional disk tier.

    Subclasses set :attr:`name` (the registry/counter identity),
    :attr:`tier_subdir` (where the disk tier lives under an output
    directory), and :attr:`file_prefix` (entry file naming), and may
    override the codec hooks:

    * :meth:`key_text` — stable string identity of a key (disk file
      naming and stale-entry validation);
    * :meth:`encode` / :meth:`decode` — value <-> JSON-safe payload.
      ``encode`` may raise to refuse caching a value; ``decode`` runs on
      every hit, so mutable values come back as fresh copies.
    """

    name = "digest"
    tier_subdir: str | None = None
    file_prefix = "entry"

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if cls.tier_subdir is not None:
            _TIER_REGISTRY[cls.name] = (cls.tier_subdir,
                                        f"{cls.file_prefix}_*.json")

    def __init__(self, maxsize: int, disk_dir: str | Path | None = None) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.digest: str | None = None
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self.hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.invalidations = 0
        self.corrupt_entries = 0
        _INSTANCES.add(self)

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # codec hooks
    # ------------------------------------------------------------------
    def key_text(self, key: Any) -> str:
        """Stable string identity of ``key`` (must be injective).

        Canonical JSON: sorted mapping keys and fixed separators, so
        logically equal keys (``{"a": 1, "b": 2}`` vs. insertion-reversed)
        share one memory entry and one disk file.
        """
        return key if isinstance(key, str) else json.dumps(
            key, sort_keys=True, separators=(",", ":"), default=str)

    def encode(self, value: Any) -> Any:
        """Value -> JSON-safe payload (raise to refuse caching it)."""
        return value

    def decode(self, payload: Any) -> Any:
        """Payload -> a fresh value the caller may mutate freely."""
        return payload

    def valid_payload(self, payload: Any) -> bool:
        """Whether a persisted payload is shaped like an encoded value."""
        return True

    # ------------------------------------------------------------------
    # core protocol
    # ------------------------------------------------------------------
    def ensure(self, digest: str) -> None:
        """Bind the cache to ``digest``, clearing every entry on drift."""
        if self.digest == digest:
            return
        if self.digest is not None:
            self.invalidations += 1
            _count(self.name, "invalidations")
        self._entries.clear()
        self.digest = digest

    def get(self, key: Any) -> Any | None:
        # The memory tier keys on the canonical text, so logically equal
        # keys (and unhashable ones, like plain dicts) collapse to one
        # entry in both tiers.
        text = self.key_text(key)
        entries = self._entries
        try:
            payload = entries[text]
        except KeyError:
            payload = self._disk_get(text)
            if payload is None:
                self.misses += 1
                _count(self.name, "misses")
                return None
            self._store_memory(text, payload)
            self.disk_hits += 1
            _count(self.name, "disk_hits")
        else:
            entries.move_to_end(text)
        self.hits += 1
        _count(self.name, "hits")
        return self.decode(payload)

    def put(self, key: Any, value: Any) -> None:
        payload = self.encode(value)
        text = self.key_text(key)
        self._store_memory(text, payload)
        if self.disk_dir is not None:
            self._disk_put(text, payload)

    def _store_memory(self, text: str, payload: Any) -> None:
        entries = self._entries
        entries[text] = payload
        entries.move_to_end(text)
        if len(entries) > self.maxsize:
            entries.popitem(last=False)

    def clear_memory(self) -> None:
        """Drop every memory-tier entry and unbind the digest.

        Part of the ``--force`` contract: the next :meth:`ensure` rebinds
        without counting an invalidation, and every :meth:`get` recomputes.
        """
        self._entries.clear()
        self.digest = None

    # ------------------------------------------------------------------
    # disk tier
    # ------------------------------------------------------------------
    def _path(self, key: Any) -> Path:
        return self._path_for(self.key_text(key))

    def _path_for(self, text: str) -> Path:
        digest = hashlib.sha256(text.encode()).hexdigest()[:24]
        return self.disk_dir / f"{self.file_prefix}_{digest}.json"

    def _checksum(self, digest: str | None, text: str, payload: Any) -> str:
        """Integrity checksum over a disk entry's semantic content."""
        body = json.dumps({"digest": digest, "key": text, "result": payload},
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(body.encode()).hexdigest()

    def _disk_put(self, text: str, payload: Any) -> None:
        self.disk_dir.mkdir(parents=True, exist_ok=True)
        blob = json.dumps({"digest": self.digest, "key": text,
                           "result": payload,
                           "checksum": self._checksum(self.digest, text,
                                                      payload)},
                          sort_keys=True)
        write_atomic(self._path_for(text), blob)

    def _disk_get(self, text: str) -> Any | None:
        if self.disk_dir is None:
            return None
        try:
            raw = json.loads(self._path_for(text).read_text())
        except (OSError, ValueError):
            return None  # absent or torn file: treat as a miss
        if (not isinstance(raw, dict) or raw.get("digest") != self.digest
                or raw.get("key") != text
                or not self.valid_payload(raw.get("result"))):
            return None  # stale digest or hash collision: recompute
        # Torn writes are already impossible (write_atomic), but storage
        # bit-rot is not: a checksum mismatch means the payload silently
        # changed since it was written — serve a miss and recompute rather
        # than poison downstream results.  Entries persisted before the
        # checksum existed carry none and stay acceptable.
        checksum = raw.get("checksum")
        if checksum is not None and checksum != self._checksum(
                self.digest, text, raw["result"]):
            self.corrupt_entries += 1
            _count(self.name, "corrupt")
            return None
        return raw["result"]

    def clear_disk(self) -> int:
        """Delete every persisted entry (``--force``); returns the count.

        Also drops the memory tier and unbinds the digest: a live instance
        must not keep serving payloads whose persisted twins were just
        discarded.
        """
        self.clear_memory()
        if self.disk_dir is None or not self.disk_dir.is_dir():
            return 0
        removed = 0
        for path in sorted(self.disk_dir.glob(f"{self.file_prefix}_*.json")):
            path.unlink()
            removed += 1
        return removed

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "corrupt_entries": self.corrupt_entries,
            "hit_rate": self.hit_rate(),
        }

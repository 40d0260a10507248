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
* an optional disk tier persists one atomic, checksummed JSON file per
  entry (safe under parallel workers), ignoring files bound to a stale
  digest and serving a miss for any file whose checksum does not match.

This module holds that machinery exactly once.  Concrete caches subclass
:class:`DigestCache` with a value codec.  Only the baseline cache persists
(one directory per sweep, owned by
:class:`~repro.analysis.sweeprunner.SweepRunner`, which clears it on
``force`` and counts its entries in the sweep summary); the probe cache
lives in memory, one instance per module characterization.  Every
instance counts its own hits, misses and invalidations (:meth:`stats`).
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from pathlib import Path
from typing import Any

from repro.runtime.persist import write_atomic


class DigestCache:
    """Bounded LRU memo bound to a digest, with an optional disk tier.

    Subclasses set :attr:`name` (the label a summary prints) and
    :attr:`file_prefix` (entry file naming), and may override the codec
    hooks:

    * :meth:`key_text` — stable string identity of a key (disk file
      naming and stale-entry validation);
    * :meth:`encode` / :meth:`decode` — value <-> JSON-safe payload.
      ``encode`` may raise to refuse caching a value; ``decode`` runs on
      every hit, so mutable values come back as fresh copies.
    """

    name = "digest"
    file_prefix = "entry"

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
                return None
            self._store_memory(text, payload)
            self.disk_hits += 1
        else:
            entries.move_to_end(text)
        self.hits += 1
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
        # bit-rot is not: a missing or mismatched checksum means the
        # payload is not what was written — serve a miss and recompute
        # rather than poison downstream results.
        if raw.get("checksum") != self._checksum(self.digest, text,
                                                 raw["result"]):
            self.corrupt_entries += 1
            return None
        return raw["result"]

    def disk_entries(self) -> list[Path]:
        """The persisted entry files, sorted (none without a disk tier).
        Other files in the directory are not entries and are not listed."""
        if self.disk_dir is None or not self.disk_dir.is_dir():
            return []
        return sorted(self.disk_dir.glob(f"{self.file_prefix}_*.json"))

    def clear_disk(self) -> int:
        """Delete every persisted entry (``--force``); returns the count.

        Also drops the memory tier and unbinds the digest, so a live
        instance cannot serve what was just discarded: the next
        :meth:`ensure` rebinds without counting an invalidation, and every
        :meth:`get` recomputes.
        """
        self._entries.clear()
        self.digest = None
        entries = self.disk_entries()
        for path in entries:
            path.unlink()
        return len(entries)

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

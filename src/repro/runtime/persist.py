"""Crash-safe result persistence: atomic writes and corrupt-file quarantine.

The artifact workflow's whole value is resumability: a campaign that dies
mid-run must pick up exactly where it stopped.  A bare ``path.write_text``
breaks that promise — a crash mid-write leaves a truncated JSON file that
existence-based status checks count as "done" and that ``json.loads`` then
crashes on during resume.  This module provides the three primitives the
execution engine builds on:

* :func:`write_atomic` — write to a same-directory temp file, then
  ``os.replace`` it into place.  Readers observe either the old state or
  the complete new file, never a prefix.
* :func:`commit` — fsync a published result and then its directory, so
  it survives power loss too.  The engine commits each result it accepts
  (:meth:`repro.runtime.engine._Attempts.load`), and nothing else does.
* :func:`quarantine` — move an unreadable result aside (``*.corrupt``)
  so the point can be re-run instead of crashing the whole campaign.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["write_atomic", "commit", "quarantine", "discard_stale_tmp"]

#: Suffix appended to the temp file while an atomic write is in flight.
TMP_SUFFIX = ".tmp"

#: Suffix given to quarantined (unparseable / schema-invalid) result files.
CORRUPT_SUFFIX = ".corrupt"


def write_atomic(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically (tmp file + ``os.replace``).

    The temp file lives in the target directory (``os.replace`` is only
    atomic within one filesystem) and carries the writer's PID so
    concurrent workers never collide on it.  A crash between the two steps
    leaves only a stale ``*.tmp`` file, never a truncated result.

    Nothing is fsynced: the rename survives a *process* crash, because
    the data is in the page cache, but power loss can still empty or drop
    the file.  Results become durable when the engine accepts them
    (:func:`commit`); caches and ledgers never need to.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}{TMP_SUFFIX}")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        # Only reached with the tmp file still present if write or replace
        # failed; never remove the published result.
        tmp.unlink(missing_ok=True)
    return path


def commit(path: str | Path) -> None:
    """Flush a published result, then its directory entry, to stable
    storage.

    The execution engine calls this once for each result it accepts,
    after the loader has validated it, and before the next task runs at
    ``jobs=1``.  Power loss before the commit can leave the file empty or
    missing; resume validates every result through its loader, so an
    empty one is quarantined and both are recomputed.  An ``OSError``
    from the file's fsync (``EIO``) propagates: the engine classifies it
    like any failed attempt.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    _fsync_dir(Path(path).parent)


def _fsync_dir(directory: Path) -> None:
    """Flush a directory entry (the rename itself) to stable storage.

    Directory fds are not openable on some platforms/filesystems; losing
    the sync there only narrows the durability window back to that of an
    uncommitted write, so failures are deliberately non-fatal.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def quarantine(path: str | Path) -> Path:
    """Move a corrupt result file aside and return its new location.

    The file is renamed to ``<name>.corrupt`` (with a numeric suffix if a
    previous quarantine already claimed that name) so it remains available
    for post-mortem inspection while the engine re-runs the point.
    """
    path = Path(path)
    candidate = path.with_name(path.name + CORRUPT_SUFFIX)
    counter = 1
    while candidate.exists():
        candidate = path.with_name(f"{path.name}{CORRUPT_SUFFIX}{counter}")
        counter += 1
    os.replace(path, candidate)
    return candidate


def discard_stale_tmp(directory: str | Path) -> int:
    """Delete leftover ``*.tmp`` files from crashed writers; returns count.

    Safe to call before launching workers: live writers use fresh
    PID-stamped names, so anything already on disk is an orphan.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return 0
    removed = 0
    for stale in directory.glob(f"*{TMP_SUFFIX}"):
        stale.unlink(missing_ok=True)
        removed += 1
    return removed

"""Crash-safe result persistence: atomic writes and corrupt-file quarantine.

The artifact workflow's whole value is resumability: a campaign that dies
mid-run must pick up exactly where it stopped.  A bare ``path.write_text``
breaks that promise — a crash mid-write leaves a truncated JSON file that
existence-based status checks count as "done" and that ``json.loads`` then
crashes on during resume.  This module provides the two primitives the
execution engine builds on:

* :func:`write_atomic` — write to a same-directory temp file, then
  ``os.replace`` it into place.  Readers observe either the old state or
  the complete new file, never a prefix.
* :func:`quarantine` — move an unreadable result aside (``*.corrupt``)
  so the point can be re-run instead of crashing the whole campaign.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["write_atomic", "quarantine", "discard_stale_tmp"]

#: Suffix appended to the temp file while an atomic write is in flight.
TMP_SUFFIX = ".tmp"

#: Suffix given to quarantined (unparseable / schema-invalid) result files.
CORRUPT_SUFFIX = ".corrupt"


def write_atomic(path: str | Path, text: str, *, durable: bool = False) -> Path:
    """Write ``text`` to ``path`` atomically (tmp file + ``os.replace``).

    The temp file lives in the target directory (``os.replace`` is only
    atomic within one filesystem) and carries the writer's PID so
    concurrent workers never collide on it.  A crash between the two steps
    leaves only a stale ``*.tmp`` file, never a truncated result.

    ``durable=True`` additionally fsyncs the temp file before the rename
    and the parent directory after it.  The rename alone survives *process*
    crashes but not power loss: without the syncs the kernel may still hold
    both the data and the directory entry in the page cache, and a reboot
    can resurface an empty or missing result.  Resume validates every
    result through its loader, so such a file is never trusted: an empty
    one is quarantined and both are recomputed.  The syncs spare that
    recompute.  Campaign and sweep results — hours of compute per file —
    are written durably; caches and ledgers accept the cheaper default.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}{TMP_SUFFIX}")
    try:
        if durable:
            with tmp.open("w") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
        else:
            tmp.write_text(text)
        os.replace(tmp, path)
        if durable:
            _fsync_dir(path.parent)
    finally:
        # Only reached with the tmp file still present if write or replace
        # failed; never remove the published result.
        tmp.unlink(missing_ok=True)
    return path


def _fsync_dir(directory: Path) -> None:
    """Flush a directory entry (the rename itself) to stable storage.

    Directory fds are not openable on some platforms/filesystems; losing
    the sync there only narrows the durability window back to the
    non-durable behavior, so failures are deliberately non-fatal.
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

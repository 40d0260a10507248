"""Characterization-as-a-service: the unified job layer (ROADMAP item 3).

Campaigns and sweeps used to be two near-duplicate orchestrators, each
hand-rolling result paths, done/pending bookkeeping, the error ledger,
the run report, scheduler construction, and force/resume semantics.
This package lifts that plumbing into one shared abstraction and builds
the long-running service on top of it:

:class:`~repro.service.execution.JobExecution`
    The durable execution namespace both orchestrators now delegate to —
    per-unit result paths, resume/pending state, ledger + run-report
    locations, and scheduler fan-out through
    :func:`repro.runtime.scheduler.make_scheduler`.  A job hands it the
    one disk-backed cache it persists, if any (a sweep its baseline
    cache; a campaign none): ``force`` clears that cache's entries, and
    the sweep summary counts them on disk.

:class:`~repro.service.jobs.JobSpec` / :class:`~repro.service.jobs.JobStore`
    A job is a *kind* (``campaign`` | ``sweep``) plus its config
    dataclass; its id is the content digest of the wire-encoded spec —
    the same canonical-JSON digest scheme that keys
    :class:`~repro.runtime.cache.DigestCache` — so identical submissions
    dedup to the same job.  The store gives every job a durable
    namespace and an atomic ``queued -> running -> done/failed`` state
    machine riding :func:`repro.runtime.persist.write_atomic`.

:class:`~repro.service.manager.JobManager`
    Runs jobs through the scheduler seam (local or fleet) as one
    :class:`~repro.runtime.scheduler.RunOptions` says — the same object
    the batch CLI builds from its run flags — writes live progress into
    a per-job ``events.jsonl`` the ``stream`` verb replays, and renders
    figures on demand from persisted rows.

:class:`~repro.service.api.CharacterizationService` /
:class:`~repro.service.client.ServiceClient`
    The TCP endpoint (``repro-experiments serve-api``) and its client
    (``repro-experiments job ...``), speaking the length-prefixed JSON
    frame protocol from :mod:`repro.runtime.wire` — protocol-versioned
    hello, no pickles.

Import note: the heavyweight layers (manager/api/client import the
orchestrators, which import :mod:`repro.service.execution`) are exposed
lazily via module ``__getattr__`` so that ``campaign.py`` importing
``repro.service.execution`` never recurses through them.
"""

from __future__ import annotations

from repro.service.execution import JobExecution
from repro.service.jobs import (
    DONE,
    FAILED,
    JOB_KINDS,
    JOB_STATES,
    QUEUED,
    RUNNING,
    JobRecord,
    JobSpec,
    JobStateError,
    JobStore,
)

__all__ = [
    "DONE",
    "FAILED",
    "JOB_KINDS",
    "JOB_STATES",
    "QUEUED",
    "RUNNING",
    "CharacterizationService",
    "JobExecution",
    "JobManager",
    "JobRecord",
    "JobSpec",
    "JobStateError",
    "JobStore",
    "ServiceClient",
]

_LAZY = {
    "JobManager": ("repro.service.manager", "JobManager"),
    "CharacterizationService": ("repro.service.api",
                                "CharacterizationService"),
    "ServiceClient": ("repro.service.client", "ServiceClient"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)

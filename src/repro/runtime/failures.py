"""Failure taxonomy for the execution engine.

A week-long characterization campaign sees failures of very different
natures, and retrying them identically is exactly wrong in both
directions: a ``ConfigError`` is deterministic — re-running the point
burns attempts (and wall-clock) to reach the same exception — while a
full disk fails *every* point until an operator intervenes, so hammering
retries turns one infrastructure event into a grid-wide abandonment.

:func:`classify_failure` maps a worker exception onto one of four
classes, each with its own retry policy in
:class:`~repro.runtime.engine.TaskPool`:

``transient``
    Unknown/one-off errors (the default).  Retried with bounded,
    jittered exponential backoff, charged against ``max_attempts``.
``permanent``
    Deterministic library errors (``ConfigError``-shaped): the same
    inputs will raise the same way, so the point fails immediately with
    a single ledger record and no retries.
``timeout``
    The watchdog killed the task's worker past its deadline
    (:class:`TaskTimeout`).  Retried like a transient failure — a fresh
    worker may simply have been scheduled onto a healthier moment.
``infrastructure``
    The *environment* failed, not the point: a broken process pool, a
    full disk (``ENOSPC``), exhausted file descriptors.  The engine
    pauses, probes the result directory for writability, and retries
    without charging the point an attempt (bounded separately by
    ``max_infra_retries``).

The tables are fixed: fleet workers classify their own exceptions in
their own processes, so a rule registered at run time in one process
would make the two schedulers classify the same error differently.

The classification travels with every ledger record, the
:class:`~repro.runtime.engine.PoolReport`, progress lines, and the
end-of-run ``run_report.json``, so a post-mortem can separate "the model
rejected this config" from "the disk filled up at 3am".
"""

from __future__ import annotations

import errno
from concurrent.futures import BrokenExecutor

from repro.errors import (
    CharacterizationError,
    ConfigError,
    ProgramError,
    ReproError,
    UnknownModuleError,
)

__all__ = [
    "TRANSIENT",
    "PERMANENT",
    "TIMEOUT",
    "INFRASTRUCTURE",
    "FAILURE_CLASSES",
    "TaskTimeout",
    "classify_failure",
]

TRANSIENT = "transient"
PERMANENT = "permanent"
TIMEOUT = "timeout"
INFRASTRUCTURE = "infrastructure"

#: Every classification the engine understands, in severity order.
FAILURE_CLASSES = (TRANSIENT, PERMANENT, TIMEOUT, INFRASTRUCTURE)


class TaskTimeout(ReproError):
    """A task's worker produced no result within its deadline.

    Synthesized by the engine's watchdog (the worker itself was killed;
    it never raises this), and classified as ``timeout``.
    """


#: ``errno`` values that mean the *host* failed, not the task: resource
#: exhaustion and I/O-path faults an operator can fix while the campaign
#: pauses and probes.
_INFRA_ERRNOS = frozenset(
    code
    for code in (
        getattr(errno, name, None)
        for name in ("ENOSPC", "EDQUOT", "EROFS", "EIO",
                     "EMFILE", "ENFILE", "ENOMEM", "EAGAIN")
    )
    if code is not None
)

#: Deterministic library errors: same inputs, same exception — retrying
#: cannot succeed.  (Corrupt-*file* errors raised by loaders never reach
#: this table; the engine quarantines and recomputes those separately.)
_PERMANENT_TYPES: tuple[type[BaseException], ...] = (
    ConfigError,
    ProgramError,
    UnknownModuleError,
    CharacterizationError,
)


def classify_failure(error: BaseException) -> str:
    """Map one worker exception onto its failure class."""
    if isinstance(error, TaskTimeout):
        return TIMEOUT
    if isinstance(error, BrokenExecutor):
        return INFRASTRUCTURE
    if isinstance(error, (MemoryError, BlockingIOError)):
        return INFRASTRUCTURE
    if isinstance(error, OSError) and error.errno in _INFRA_ERRNOS:
        return INFRASTRUCTURE
    if isinstance(error, _PERMANENT_TYPES):
        return PERMANENT
    return TRANSIENT

"""Job identity and durable job state: :class:`JobSpec` + :class:`JobStore`.

A job is *what to compute* — a kind (``campaign`` | ``sweep``) plus the
config dataclass that fully determines its results.  Identity is content:
the spec is wire-encoded (:func:`repro.runtime.wire.encode_value`),
canonicalized, and digested exactly like a
:class:`~repro.runtime.cache.DigestCache` key or a fleet blob, so two
users submitting the same config get the same job id and share one
result namespace — dedup falls out of addressing, not bookkeeping.

The store gives each job a directory under its root::

    <root>/<job_id>/job.json        # record: state machine + history
    <root>/<job_id>/events.jsonl    # live progress events (stream verb)
    <root>/<job_id>/results/        # the orchestrator's results_dir

State transitions (``queued -> running -> done | failed``, plus the
requeue edges ``failed -> queued`` for retries and ``running -> queued``
for jobs orphaned by a crashed runner) are validated and persisted with
:func:`~repro.runtime.persist.write_atomic` — a torn ``job.json`` is
impossible by construction, and ``done`` is terminal.
"""

from __future__ import annotations

import json
import re
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import ConfigError, ReproError
from repro.runtime.persist import write_atomic
from repro.runtime.wire import (
    blob_digest,
    canonical_blob,
    decode_value,
    encode_value,
)

__all__ = [
    "DONE",
    "FAILED",
    "JOB_KINDS",
    "JOB_STATES",
    "QUEUED",
    "RUNNING",
    "JobRecord",
    "JobSpec",
    "JobStateError",
    "JobStore",
]

#: Each job kind's config class.  The service decodes *client* payloads
#: (the fleet's workers trust their coordinator instead), so a spec may
#: name only its kind's class, never whatever a frame names.
_SPEC_CLASSES = {
    "campaign": "repro.characterization.campaign:CampaignConfig",
    "sweep": "repro.analysis.sweeprunner:SweepGrid",
}

#: Every job kind the service can run.
JOB_KINDS = tuple(_SPEC_CLASSES)

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: Every job state, in lifecycle order.
JOB_STATES = (QUEUED, RUNNING, DONE, FAILED)

#: Legal state transitions.  ``done`` is terminal; ``running -> queued``
#: covers a job orphaned by a crashed runner (resubmission resumes it),
#: ``failed -> queued`` a retry of a failed one.
_TRANSITIONS = {
    QUEUED: {RUNNING},
    RUNNING: {DONE, FAILED, QUEUED},
    FAILED: {QUEUED},
    DONE: frozenset(),
}

#: Wire-codec tags that have no business inside a job spec.
_FORBIDDEN_SPEC_TAGS = ("__blob", "__task_path", "__p")

#: Deepest nesting a spec config may carry (a grid's workload names sit
#: six levels down); it bounds the decoder's recursion.
_MAX_SPEC_DEPTH = 16

_JOB_ID_RE = re.compile(r"[0-9a-f]{16}\Z")

RECORD_NAME = "job.json"
EVENTS_NAME = "events.jsonl"
RESULTS_DIRNAME = "results"


class JobStateError(ConfigError):
    """An illegal job-state transition was requested."""


def validate_job_id(job_id: str) -> str:
    """Job ids are 16 hex chars (a blob digest); anything else — including
    path metacharacters from a hostile client — is rejected before it can
    touch the filesystem."""
    if not isinstance(job_id, str) or not _JOB_ID_RE.fullmatch(job_id):
        raise ConfigError(f"malformed job id {job_id!r}")
    return job_id


def is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def check_tuple(name: str, values: Any, what: str,
                valid: Callable[[Any], bool], *,
                error: type[ReproError] = ConfigError) -> None:
    """Refuse, with ``error``, a spec field that is not a non-empty tuple
    of distinct values that ``valid`` accepts (``what`` names them)."""
    if not isinstance(values, tuple) or not values:
        raise error(f"{name} must be a non-empty tuple, got {values!r}")
    bad = [value for value in values if not valid(value)]
    if bad:
        raise error(f"{name} must hold {what}, got {bad[:4]!r}")
    duplicates = [value for value, count in Counter(values).items()
                  if count > 1]
    if duplicates:
        raise error(f"duplicate {name}: {duplicates!r}")


def _check_spec_payload(payload: Any, depth: int = 0) -> None:
    """Reject spec fields that nest a dataclass, carry execution-context
    tags (blobs, task paths, filesystem paths) or nest too deep."""
    if depth > _MAX_SPEC_DEPTH:
        raise ConfigError(
            f"job spec config nests deeper than {_MAX_SPEC_DEPTH} levels")
    if isinstance(payload, list):
        for item in payload:
            _check_spec_payload(item, depth + 1)
        return
    if not isinstance(payload, dict):
        return
    for tag in _FORBIDDEN_SPEC_TAGS:
        if tag in payload:
            raise ConfigError(
                f"job spec config may not carry the {tag!r} wire tag")
    if "__dc" in payload:
        raise ConfigError(f"job spec config names disallowed type "
                          f"{payload['__dc']!r} inside its fields")
    for value in payload.values():
        _check_spec_payload(value, depth + 1)


def _spec_class(kind: Any) -> str:
    """The wire reference of ``kind``'s config class."""
    ref = _SPEC_CLASSES.get(kind) if isinstance(kind, str) else None
    if ref is None:
        raise ConfigError(
            f"job kind must be one of {JOB_KINDS}, got {kind!r}")
    return ref


@dataclass(frozen=True)
class JobSpec:
    """What one job computes: a kind plus its config dataclass."""

    kind: str
    config: Any

    def __post_init__(self) -> None:
        ref = _spec_class(self.kind)
        cls = type(self.config)
        if f"{cls.__module__}:{cls.__qualname__}" != ref:
            raise ConfigError(f"a {self.kind} job's config must be a "
                              f"{ref}, got {cls.__qualname__}")

    def encoded(self) -> dict:
        """Wire-safe payload (what ships in a ``submit`` frame and what
        the job id digests)."""
        return {"kind": self.kind, "config": encode_value(self.config)}

    @property
    def job_id(self) -> str:
        """Content digest of the canonical encoded spec — the same
        canonical-JSON + sha256[:16] scheme that keys the digest caches,
        so identical submissions address the same job."""
        return blob_digest(canonical_blob(self.encoded()))

    @classmethod
    def decode(cls, payload: Any) -> "JobSpec":
        """Rebuild a spec from its encoded payload: an encoded instance
        of its kind's class, whose own checks then refuse bad values.
        Every refusal is a :class:`~repro.errors.ReproError`."""
        if not isinstance(payload, dict) or "kind" not in payload \
                or "config" not in payload:
            raise ConfigError(
                "job spec payload must be {'kind': ..., 'config': ...}")
        kind, config = payload["kind"], payload["config"]
        ref = _spec_class(kind)
        named = (config.get("__dc") if isinstance(config, dict)
                 else type(config).__name__)
        if named != ref:
            raise ConfigError(f"job spec config names disallowed type "
                              f"{named!r}; a {kind} job takes {ref!r}")
        if not isinstance(config.get("fields"), dict):
            raise ConfigError(f"job spec config carries no {ref} fields")
        _check_spec_payload({key: value for key, value in config.items()
                             if key != "__dc"})
        try:
            return cls(kind=kind, config=decode_value(config))
        except TypeError as error:  # an unknown field
            raise ConfigError(f"bad {kind} config: {error}") from None


@dataclass
class JobRecord:
    """One job's durable state (the contents of ``job.json``)."""

    job_id: str
    kind: str
    spec: dict  #: encoded :class:`JobSpec` payload
    state: str = QUEUED
    created_at: float = 0.0
    updated_at: float = 0.0
    error: str | None = None
    #: ``[state, unix_time]`` pairs, every transition ever taken.
    history: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {"job_id": self.job_id, "kind": self.kind, "spec": self.spec,
                "state": self.state, "created_at": self.created_at,
                "updated_at": self.updated_at, "error": self.error,
                "history": self.history}

    @classmethod
    def from_json(cls, raw: dict) -> "JobRecord":
        try:
            return cls(job_id=raw["job_id"], kind=raw["kind"],
                       spec=raw["spec"], state=raw["state"],
                       created_at=raw["created_at"],
                       updated_at=raw["updated_at"],
                       error=raw.get("error"),
                       history=list(raw.get("history") or []))
        except (KeyError, TypeError) as error:
            raise ConfigError(f"corrupt job record: {error}") from error

    def spec_obj(self) -> JobSpec:
        return JobSpec.decode(self.spec)


class JobStore:
    """Durable per-job namespaces under one root directory."""

    def __init__(self, root: str | Path,
                 clock=time.time) -> None:
        self.root = Path(root)
        self.clock = clock

    # ------------------------------------------------------------------
    # namespace layout
    # ------------------------------------------------------------------
    def namespace(self, job_id: str) -> Path:
        return self.root / validate_job_id(job_id)

    def record_path(self, job_id: str) -> Path:
        return self.namespace(job_id) / RECORD_NAME

    def events_path(self, job_id: str) -> Path:
        return self.namespace(job_id) / EVENTS_NAME

    def results_dir(self, job_id: str) -> Path:
        return self.namespace(job_id) / RESULTS_DIRNAME

    def exists(self, job_id: str) -> bool:
        return self.record_path(job_id).exists()

    def list_ids(self) -> tuple[str, ...]:
        if not self.root.is_dir():
            return ()
        return tuple(sorted(
            p.name for p in self.root.iterdir()
            if _JOB_ID_RE.fullmatch(p.name) and (p / RECORD_NAME).exists()))

    # ------------------------------------------------------------------
    # records
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> tuple[JobRecord, bool]:
        """Create (or dedup to) the job ``spec`` addresses.

        Returns ``(record, created)``: an identical earlier submission —
        same content digest — yields its existing record with
        ``created=False`` and writes nothing.
        """
        job_id = spec.job_id
        if self.exists(job_id):
            return self.load(job_id), False
        now = self.clock()
        record = JobRecord(job_id=job_id, kind=spec.kind,
                           spec=spec.encoded(), state=QUEUED,
                           created_at=now, updated_at=now,
                           history=[[QUEUED, now]])
        self._persist(record)
        return record, True

    def load(self, job_id: str) -> JobRecord:
        path = self.record_path(job_id)
        if not path.exists():
            raise ConfigError(f"unknown job {job_id!r}")
        try:
            raw = json.loads(path.read_text())
        except (OSError, ValueError) as error:
            raise ConfigError(
                f"unreadable job record {path}: {error}") from error
        record = JobRecord.from_json(raw)
        if record.job_id != job_id:
            raise ConfigError(
                f"job record {path} claims id {record.job_id!r}")
        return record

    def transition(self, job_id: str, new_state: str, *,
                   error: str | None = None) -> JobRecord:
        """Atomically move a job to ``new_state`` (state machine enforced).

        ``error`` is recorded on ``failed`` transitions and cleared on
        every other one.
        """
        if new_state not in JOB_STATES:
            raise ConfigError(
                f"job state must be one of {JOB_STATES}, got {new_state!r}")
        record = self.load(job_id)
        allowed = _TRANSITIONS[record.state]
        if new_state not in allowed:
            raise JobStateError(
                f"job {job_id} cannot go {record.state} -> {new_state} "
                f"(allowed: {sorted(allowed) or 'none — terminal state'})")
        record.state = new_state
        record.updated_at = self.clock()
        record.error = error if new_state == FAILED else None
        record.history.append([new_state, record.updated_at])
        self._persist(record)
        return record

    def _persist(self, record: JobRecord) -> None:
        write_atomic(self.record_path(record.job_id),
                     json.dumps(record.to_json(), indent=1, sort_keys=True))

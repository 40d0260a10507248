"""Run jobs: :class:`JobManager` + the progress event log.

The manager is the one place a :class:`~repro.service.jobs.JobRecord`
turns into computation: it builds the kind's orchestrator
(:class:`~repro.characterization.campaign.CharacterizationCampaign` or
:class:`~repro.analysis.sweeprunner.SweepRunner` — both thin adapters
over :class:`~repro.service.execution.JobExecution`) rooted at the job's
results namespace, fans the work out through the scheduler seam (local
or fleet), and drives the state machine ``queued -> running ->
done/failed`` around the run.

Progress streams ride the existing :class:`~repro.runtime.progress`
hooks: the manager tees every hook call into the job's ``events.jsonl``
(one JSON line per event, monotonically sequenced), which the service's
``stream`` verb tails and re-emits to clients — and
:func:`replay_event` maps an event line back onto any reporter, so
``job watch`` renders the same progress/ETA lines a local run prints.

Figures render **on demand from persisted rows** — no re-simulation:
``fig17`` aggregates a sweep's cached rows through the same
:func:`~repro.analysis.sweeprunner.render_aggregate` the batch CLI
prints, ``fig6`` rebuilds the N_RH boxes from a campaign's persisted
measurements, so service bytes match batch bytes by construction.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.runtime import LEDGER_NAME, REPORT_NAME, ProgressReporter
from repro.runtime.persist import CORRUPT_SUFFIX
from repro.service.jobs import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobRecord,
    JobSpec,
    JobStore,
)

if TYPE_CHECKING:
    from repro.runtime.distributed import Fleet

__all__ = ["EventLogProgress", "JobManager", "RunOptions", "TeeProgress",
           "JOB_FIGURES", "replay_event"]

#: Figures each job kind can render on demand from its persisted results.
JOB_FIGURES = {"campaign": ("fig6",), "sweep": ("fig17",)}


@dataclass(frozen=True)
class RunOptions:
    """Execution knobs of one job run (the campaign/sweep CLI surface)."""

    force: bool = False
    jobs: int | None = 1
    task_timeout_s: float | None = None
    scheduler: str = "local"
    workers: int | None = None
    serve: str | tuple[str, int] | None = None
    lease_batch: int | None = None


class EventLogProgress(ProgressReporter):
    """Append every progress hook to a JSONL event log.

    Lines carry a monotonically increasing ``seq`` (the stream verb's
    ordering contract) and are flushed per event so a concurrent reader
    only ever observes whole lines.  Opening the log truncates it: each
    run's stream starts at ``seq`` 0 with its ``start`` event.
    """

    def __init__(self, path: str | Path, clock=time.time) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("w")
        self._clock = clock
        self._seq = 0
        self._lock = threading.Lock()

    def _emit(self, event: str, **fields) -> None:
        with self._lock:
            record = {"seq": self._seq, "t": round(self._clock(), 3),
                      "event": event, **fields}
            self._seq += 1
            try:
                self._handle.write(
                    json.dumps(record, sort_keys=True) + "\n")
                self._handle.flush()
            except (OSError, ValueError):
                pass  # a full disk must not kill the run it narrates

    def close(self) -> None:
        try:
            self._handle.close()
        except OSError:
            pass

    # ------------------------------------------------------------------
    def start(self, total: int, reused: int = 0) -> None:
        self._emit("start", total=total, reused=reused)

    def task_done(self, key: str, *, worker: str | None = None) -> None:
        self._emit("task_done", key=key, worker=worker)

    def task_retry(self, key: str, attempt: int, error: str, *,
                   classification: str = "transient") -> None:
        self._emit("task_retry", key=key, attempt=attempt, error=error,
                   classification=classification)

    def task_timeout(self, key: str, attempt: int, timeout_s: float) -> None:
        self._emit("task_timeout", key=key, attempt=attempt,
                   timeout_s=timeout_s)

    def task_degraded(self, key: str, error: str) -> None:
        self._emit("task_degraded", key=key, error=error)

    def task_failed(self, key: str, error: str) -> None:
        self._emit("task_failed", key=key, error=error)

    def pool_rebuilt(self, rebuilds: int, mode: str, reason: str) -> None:
        self._emit("pool_rebuilt", rebuilds=rebuilds, mode=mode,
                   reason=reason)

    def worker_joined(self, worker: str, workers: int) -> None:
        self._emit("worker_joined", worker=worker, workers=workers)

    def worker_left(self, worker: str, workers: int, reason: str) -> None:
        self._emit("worker_left", worker=worker, workers=workers,
                   reason=reason)

    def lease_update(self, worker: str, in_flight: int) -> None:
        self._emit("lease_update", worker=worker, in_flight=in_flight)

    def finish(self) -> None:
        self._emit("finish")


#: Which positional hook each event name maps back onto (replay side).
_REPLAY_HOOKS = {
    "start": lambda r, e: r.start(e["total"], reused=e.get("reused", 0)),
    "task_done": lambda r, e: r.task_done(e["key"],
                                          worker=e.get("worker")),
    "task_retry": lambda r, e: r.task_retry(
        e["key"], e["attempt"], e["error"],
        classification=e.get("classification", "transient")),
    "task_timeout": lambda r, e: r.task_timeout(e["key"], e["attempt"],
                                                e["timeout_s"]),
    "task_degraded": lambda r, e: r.task_degraded(e["key"], e["error"]),
    "task_failed": lambda r, e: r.task_failed(e["key"], e["error"]),
    "pool_rebuilt": lambda r, e: r.pool_rebuilt(e["rebuilds"], e["mode"],
                                                e["reason"]),
    "worker_joined": lambda r, e: r.worker_joined(e["worker"],
                                                  e["workers"]),
    "worker_left": lambda r, e: r.worker_left(e["worker"], e["workers"],
                                              e["reason"]),
    "lease_update": lambda r, e: r.lease_update(e["worker"],
                                                e["in_flight"]),
    "finish": lambda r, e: r.finish(),
}


def replay_event(reporter: ProgressReporter, event: dict) -> None:
    """Feed one streamed event back into a reporter's matching hook.

    ``job watch`` replays the stream into a
    :class:`~repro.runtime.progress.PrintProgress`, so remote jobs render
    the same progress/ETA lines a local run prints.  Unknown events (a
    newer server) are ignored rather than fatal.
    """
    hook = _REPLAY_HOOKS.get(event.get("event"))
    if hook is None:
        return
    try:
        hook(reporter, event)
    except (KeyError, TypeError):
        pass  # malformed event: narration must not break the client


class TeeProgress(ProgressReporter):
    """Forward every hook to several reporters (event log + live one)."""

    def __init__(self, reporters: tuple[ProgressReporter, ...]) -> None:
        self.reporters = tuple(reporters)

    def _fanout(self, hook: str, *args, **kwargs) -> None:
        for reporter in self.reporters:
            getattr(reporter, hook)(*args, **kwargs)

    def start(self, total, reused=0):
        self._fanout("start", total, reused=reused)

    def task_done(self, key, *, worker=None):
        self._fanout("task_done", key, worker=worker)

    def task_retry(self, key, attempt, error, *,
                   classification="transient"):
        self._fanout("task_retry", key, attempt, error,
                     classification=classification)

    def task_timeout(self, key, attempt, timeout_s):
        self._fanout("task_timeout", key, attempt, timeout_s)

    def task_degraded(self, key, error):
        self._fanout("task_degraded", key, error)

    def task_failed(self, key, error):
        self._fanout("task_failed", key, error)

    def pool_rebuilt(self, rebuilds, mode, reason):
        self._fanout("pool_rebuilt", rebuilds, mode, reason)

    def worker_joined(self, worker, workers):
        self._fanout("worker_joined", worker, workers)

    def worker_left(self, worker, workers, reason):
        self._fanout("worker_left", worker, workers, reason)

    def lease_update(self, worker, in_flight):
        self._fanout("lease_update", worker, in_flight)

    def finish(self):
        self._fanout("finish")


class JobManager:
    """Submit, run, and read back jobs in one store."""

    def __init__(self, root: str | Path, *,
                 defaults: RunOptions | None = None) -> None:
        self.store = JobStore(root)
        self.defaults = defaults or RunOptions()
        #: An open worker fleet that ``fleet`` runs borrow instead of
        #: each opening its own; its opener (the service) closes it.
        self.fleet: Fleet | None = None
        self._active: set[str] = set()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> tuple[JobRecord, bool]:
        """Create (or dedup to) the job; returns ``(record, created)``."""
        return self.store.submit(spec)

    def status(self, job_id: str) -> JobRecord:
        return self.store.load(job_id)

    def is_active(self, job_id: str) -> bool:
        """Whether this manager is executing the job right now."""
        with self._lock:
            return job_id in self._active

    def run(self, job_id: str, *,
            progress: ProgressReporter | None = None,
            options: RunOptions | None = None) -> JobRecord:
        """Execute (or resume) one job; returns its terminal record.

        A ``done`` job returns immediately without recomputing anything
        (unless ``options.force``); ``queued``, ``failed``, and orphaned
        ``running`` jobs are (re)run — the orchestrator's resume contract
        reuses every valid persisted result, so a crash-interrupted job
        only computes what is missing.
        """
        options = options or self.defaults
        record = self.store.load(job_id)
        if record.state == DONE and not options.force:
            return record
        with self._lock:
            if job_id in self._active:
                raise ConfigError(f"job {job_id} is already running here")
            self._active.add(job_id)
        try:
            # Normalize to queued (covers failed retries and jobs a dead
            # runner abandoned in ``running``), then claim the run.
            if record.state != QUEUED:
                record = self.store.transition(job_id, QUEUED)
            self.store.transition(job_id, RUNNING)
            events = EventLogProgress(self.store.events_path(job_id))
            reporter: ProgressReporter = events
            if progress is not None:
                reporter = TeeProgress((events, progress))
            if options.scheduler == "fleet" and self.fleet is not None:
                placement = {"fleet": self.fleet}
            else:
                placement = {"workers": options.workers,
                             "serve": options.serve,
                             "lease_batch": options.lease_batch}
            try:
                runner = self._runner(record)
                runner.run(force=options.force, jobs=options.jobs,
                           progress=reporter,
                           task_timeout_s=options.task_timeout_s,
                           scheduler=options.scheduler, **placement)
            except BaseException as error:
                events.close()
                self.store.transition(
                    job_id, FAILED,
                    error=f"{type(error).__name__}: {error}")
                raise
            events.close()
            return self.store.transition(job_id, DONE)
        finally:
            with self._lock:
                self._active.discard(job_id)

    def _runner(self, record: JobRecord):
        """Build the kind's orchestrator rooted at the job's namespace."""
        spec = record.spec_obj()
        results_dir = self.store.results_dir(record.job_id)
        if spec.kind == "campaign":
            from repro.characterization.campaign import (
                CharacterizationCampaign,
            )
            return CharacterizationCampaign(results_dir, spec.config)
        from repro.analysis.sweeprunner import SweepRunner

        return SweepRunner(results_dir, spec.config)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def _require_done(self, job_id: str) -> JobRecord:
        record = self.store.load(job_id)
        if record.state != DONE:
            raise ConfigError(
                f"job {job_id} is {record.state}, not done"
                + (f" ({record.error})" if record.error else ""))
        return record

    def result_files(self, job_id: str) -> dict[str, bytes]:
        """Every persisted result file, by name — what ``fetch`` ships.

        Run telemetry (``run_report.json``, ``errors.jsonl``) and
        engine leftovers (quarantined/tmp files) are excluded: they
        describe *how* the job ran, not what it computed, and are not
        part of the byte-identity contract.
        """
        self._require_done(job_id)
        results_dir = self.store.results_dir(job_id)
        out: dict[str, bytes] = {}
        for path in sorted(results_dir.iterdir()):
            if not path.is_file():
                continue  # cache tiers live in subdirectories
            if path.name in (REPORT_NAME, LEDGER_NAME):
                continue
            if path.name.endswith(".tmp") or CORRUPT_SUFFIX in path.name:
                continue
            out[path.name] = path.read_bytes()
        return out

    def figure(self, job_id: str, name: str) -> str:
        """Render one figure from the job's persisted rows (no re-runs)."""
        record = self._require_done(job_id)
        spec = record.spec_obj()
        available = JOB_FIGURES[spec.kind]
        if name not in available:
            raise ConfigError(
                f"{spec.kind} jobs render {available}, not {name!r}")
        results_dir = self.store.results_dir(record.job_id)
        if spec.kind == "campaign":
            from repro.analysis.figures import fig6_nrh_boxes_from
            from repro.characterization.campaign import (
                CharacterizationCampaign,
            )
            campaign = CharacterizationCampaign(results_dir, spec.config)
            boxes = fig6_nrh_boxes_from(
                campaign.load(), tras_factors=spec.config.tras_factors)
            return repr(boxes)
        from repro.analysis.sweeprunner import (
            SweepRunner,
            load_row,
            render_aggregate,
        )
        runner = SweepRunner(results_dir, spec.config)
        rows = [load_row(runner.row_path(p))
                for p in spec.config.points()]
        return render_aggregate(runner.aggregate(rows))

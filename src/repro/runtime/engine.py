"""Fault-tolerant parallel task pool shared by campaigns and sweeps.

The artifact's ``run_ramulator_all.sh`` fans a grid of independent runs out
across many cores and resumes any that are missing; characterizing 30
modules is embarrassingly parallel by construction.  :class:`TaskPool` is
that engine for the in-process reproduction:

* each grid point is an independent :class:`Task` whose worker computes the
  result and persists it **atomically** to ``task.path``;
* on resume, existing result files are validated by the caller's loader —
  unparseable or schema-invalid files are quarantined (``*.corrupt``) and
  re-run instead of crashing the campaign;
* failures are *classified* (:mod:`repro.runtime.failures`): transient
  errors retry with bounded, seed-jittered exponential backoff; permanent
  (``ConfigError``-shaped) errors fail immediately with no retries;
  infrastructure errors (broken pool, ``ENOSPC``) pause, probe the result
  directory, and retry without charging the point an attempt; and every
  event lands in a per-run error ledger (``errors.jsonl``);
* retries are *scheduled*, not slept through: the drain loop keeps
  collecting finished futures while a retrying point waits out its
  backoff, so one flaky point never stalls the rest of the grid;
* a per-task **deadline** (``timeout_s``) arms a watchdog: the drain loop
  waits with a bounded timeout, and a worker that overruns is killed
  (the whole pool is torn down and rebuilt — a hung process cannot be
  cancelled politely), the in-flight survivors are re-enqueued without
  charge, and the timed-out point retries or fails as ``timeout``;
* a **broken pool** (a worker SIGKILLed by the OOM killer takes the whole
  ``ProcessPoolExecutor`` down) is rebuilt up to ``max_pool_rebuilds``
  times, re-enqueueing every in-flight point without charging attempts;
  if pools keep dying the engine degrades to *isolated* mode — one fresh
  single-worker pool per point, so a poison task breaks only itself and
  is finally identifiable — and to inline in-process execution if worker
  processes cannot be spawned at all;
* a task may carry ``fallback_args`` (the scalar-oracle kernel): if its
  primary args raise inside a worker, it is re-run once on the fallback
  — recorded as ``degraded`` — before normal retry logic applies, so a
  numpy edge case costs one point's speed, not the campaign;
* ``jobs=1`` runs the very same submission/retry/load code path inline
  (no subprocesses), so serial and parallel runs are the same engine —
  deadlines are only enforceable when workers are separate processes;
* every run ends by writing ``run_report.json`` next to the ledger: task
  counts, the failure-class breakdown, degradations, timeouts, and pool
  rebuilds, machine-readable for dashboards and asserted consistent with
  the ledger by a property test.

Both schedulers share one retry policy: a run's :class:`_Attempts` owns
the ready queue and the retry heap, attempts and infrastructure strikes,
degradation, the timeout verdict, quarantine of a result that fails to
load, and abandonment, with every ledger record and progress hook these
emit.  The local drain (:class:`_Drain`: pool, isolated and inline
execution, the watchdog) and the fleet's lease table
(:mod:`repro.runtime.distributed`) each keep only how they run tasks.

Workers must be module-level callables with picklable arguments (they cross
a ``ProcessPoolExecutor`` boundary when ``jobs > 1``), and results flow back
through the filesystem, not the pipe: the parent re-loads ``task.path``
after the worker finishes, so what a run returns is exactly what a resumed
run would reload.
"""

from __future__ import annotations

import heapq
import itertools
import json
import os
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

from repro.errors import ConfigError, ExecutionError
from repro.rng import derive_seed
from repro.runtime.failures import (
    INFRASTRUCTURE,
    PERMANENT,
    TIMEOUT,
    TRANSIENT,
    TaskTimeout,
    classify_failure,
)
from repro.runtime.persist import discard_stale_tmp, quarantine, write_atomic
from repro.runtime.progress import ProgressReporter

__all__ = ["Task", "TaskPool", "PoolReport", "LEDGER_NAME",
           "LEDGER_MAX_BYTES", "REPORT_NAME", "describe_run_report"]

#: File name of the per-run error ledger, kept next to the results.
LEDGER_NAME = "errors.jsonl"

#: Default size cap of the error ledger.  A retry loop on a long campaign
#: must not fill the disk; when the ledger outgrows the cap, the oldest
#: records are dropped (the newest ones explain the current failures).
LEDGER_MAX_BYTES = 512 * 1024

#: File name of the end-of-run machine-readable report.
REPORT_NAME = "run_report.json"

#: ``run_report.json`` schema version (bump on breaking shape changes).
#: v2 adds the scheduler name, per-worker task/failure/degraded counts, and
#: lease-revocation stats; every v1 field keeps its exact shape, so v1
#: readers (which ``.get`` what they need) keep working.
REPORT_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class Task:
    """One independent grid point.

    ``fn(*args)`` must compute the point and persist it atomically to
    ``path`` (see :func:`repro.runtime.persist.write_atomic`); its return
    value is ignored — the pool re-loads ``path`` instead.

    ``timeout_s`` overrides the pool-wide deadline for this task;
    ``fallback_args`` are the graceful-degradation arguments (typically
    the same args with the scalar-oracle kernel substituted): if the
    primary args raise inside a worker, the task re-runs once on the
    fallback before normal retry accounting resumes.
    """

    key: str
    path: Path
    fn: Callable[..., Any]
    args: tuple = ()
    timeout_s: float | None = None
    fallback_args: tuple | None = None


class _InlineExecutor:
    """``jobs=1`` executor: runs each submission immediately, in-process.

    Implements just enough of the ``Executor`` protocol for the pool's
    submit/wait/retry loop, so the serial path exercises the exact same
    engine code as the parallel one.
    """

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as error:  # noqa: BLE001 — mirrored to future
            future.set_exception(error)
        return future

    def shutdown(self, wait: bool = True,
                 cancel_futures: bool = False) -> None:
        return None


@dataclass
class PoolReport:
    """What happened during one :meth:`TaskPool.run` call."""

    reused: list[str] = field(default_factory=list)
    computed: list[str] = field(default_factory=list)
    quarantined: list[str] = field(default_factory=list)
    retried: list[str] = field(default_factory=list)
    failed: dict[str, str] = field(default_factory=dict)
    #: Failure-taxonomy class of each permanently failed key.
    failure_classes: dict[str, str] = field(default_factory=dict)
    #: Keys whose worker overran its deadline (one entry per event).
    timeouts: list[str] = field(default_factory=list)
    #: Keys re-run on their fallback (scalar-oracle) args.
    degraded: list[str] = field(default_factory=list)
    #: Pause-and-probe cycles taken for infrastructure failures.
    infra_pauses: int = 0
    #: Times a broken worker pool was replaced.
    pool_rebuilds: int = 0
    #: Times the watchdog tore a pool down for a deadline overrun.
    watchdog_kills: int = 0
    #: Execution mode the run ended in: ``pool``, ``isolated``, ``inline``
    #: (local scheduler) or ``fleet`` (distributed scheduler).
    final_mode: str = "inline"
    #: Which scheduler backend produced this report.
    scheduler: str = "local"
    #: Per-worker counters (fleet runs; empty for the local pool, whose
    #: worker processes are anonymous and interchangeable).
    workers: dict[str, dict[str, int]] = field(default_factory=dict)
    #: Leases the coordinator revoked from overrunning workers.
    lease_revocations: int = 0


def describe_run_report(payload: dict) -> str:
    """One human line summarizing a persisted ``run_report.json``."""
    counts = payload.get("counts", {})
    pool = payload.get("pool", {})
    parts = [f"computed {counts.get('computed', 0)}",
             f"reused {counts.get('reused', 0)}",
             f"failed {counts.get('failed', 0)}"]
    for quiet in ("quarantined", "retries", "timeouts", "degraded",
                  "infra_pauses"):
        if counts.get(quiet):
            parts.append(f"{quiet} {counts[quiet]}")
    if pool.get("rebuilds"):
        parts.append(f"pool rebuilds {pool['rebuilds']}")
    if pool.get("watchdog_kills"):
        parts.append(f"watchdog kills {pool['watchdog_kills']}")
    # v2 fields; absent from v1 payloads, which must keep describing fine.
    workers = payload.get("workers") or {}
    if workers:
        parts.append(f"workers {len(workers)}")
    revoked = (payload.get("leases") or {}).get("revoked", 0)
    if revoked:
        parts.append(f"leases revoked {revoked}")
    classes = {name: count
               for name, count in payload.get("failure_classes", {}).items()
               if count}
    line = "last run: " + ", ".join(parts)
    if classes:
        breakdown = ", ".join(f"{name}={count}"
                              for name, count in sorted(classes.items()))
        line += f" [{breakdown}]"
    return line


class TaskPool:
    """Resumable, retrying executor for a list of independent tasks."""

    def __init__(self, *, jobs: int | None = None, max_attempts: int = 3,
                 backoff_s: float = 0.1, backoff_max_s: float = 30.0,
                 backoff_jitter: float = 0.25,
                 timeout_s: float | None = None,
                 max_pool_rebuilds: int = 3,
                 max_infra_retries: int = 5,
                 infra_pause_s: float = 1.0,
                 seed: int = 0,
                 ledger_path: str | Path | None = None,
                 ledger_max_bytes: int = LEDGER_MAX_BYTES,
                 report_path: str | Path | None = None,
                 progress: ProgressReporter | None = None,
                 sleep: Callable[[float], None] = time.sleep,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        if max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {max_attempts}")
        if ledger_max_bytes < 1:
            raise ConfigError(
                f"ledger_max_bytes must be >= 1, got {ledger_max_bytes}")
        if timeout_s is not None and timeout_s <= 0:
            raise ConfigError(f"timeout_s must be positive, got {timeout_s}")
        if backoff_max_s < 0 or backoff_jitter < 0:
            raise ConfigError("backoff_max_s and backoff_jitter must be >= 0")
        if max_pool_rebuilds < 0 or max_infra_retries < 0:
            raise ConfigError(
                "max_pool_rebuilds and max_infra_retries must be >= 0")
        self.jobs = jobs
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self.backoff_max_s = backoff_max_s
        self.backoff_jitter = backoff_jitter
        self.timeout_s = timeout_s
        self.max_pool_rebuilds = max_pool_rebuilds
        self.max_infra_retries = max_infra_retries
        self.infra_pause_s = infra_pause_s
        self.seed = seed
        self.ledger_path = Path(ledger_path) if ledger_path else None
        self.ledger_max_bytes = ledger_max_bytes
        self.report_path = Path(report_path) if report_path else None
        self.progress = progress or ProgressReporter()
        self.sleep = sleep
        self.clock = clock
        self.last_report: PoolReport | None = None
        self._run_started_monotonic = time.monotonic()

    # ------------------------------------------------------------------
    def backoff_for(self, key: str, attempt: int) -> float:
        """Retry delay after failed ``attempt`` of ``key``.

        Exponential in the attempt number but bounded by
        ``backoff_max_s``, plus deterministic seed-derived jitter (a
        fraction of the base in ``[0, backoff_jitter)``) so a grid of
        points that failed together — one NFS hiccup hits every worker
        at once — does not resubmit in lockstep and recreate the spike.
        """
        base = min(self.backoff_s * (2 ** (attempt - 1)), self.backoff_max_s)
        if base <= 0 or self.backoff_jitter <= 0:
            return max(base, 0.0)
        unit = derive_seed(self.seed, "backoff", key, attempt) / 2.0 ** 64
        return base * (1.0 + self.backoff_jitter * unit)

    # ------------------------------------------------------------------
    def run(self, tasks: list[Task], loader: Callable[[Path], Any], *,
            force: bool = False) -> dict[str, Any]:
        """Run (or resume) ``tasks``; returns ``{key: loaded result}``.

        Existing result files are validated through ``loader`` and reused;
        corrupt ones are quarantined and re-run.  Raises
        :class:`~repro.errors.ExecutionError` after all points have been
        attempted if any failed permanently — everything else is persisted,
        so a follow-up run only re-attempts the failures.
        """
        keys = [task.key for task in tasks]
        if len(set(keys)) != len(keys):
            raise ConfigError("task keys must be unique within one run")
        self._run_started_monotonic = time.monotonic()
        report = PoolReport()
        self.last_report = report
        results: dict[str, Any] = {}
        pending: list[Task] = []
        for task in tasks:
            if force or not task.path.exists():
                pending.append(task)
                continue
            try:
                results[task.key] = loader(task.path)
                report.reused.append(task.key)
            except Exception as error:  # corrupt / schema-invalid result
                moved = quarantine(task.path)
                report.quarantined.append(task.key)
                self._record(task.key, 0, f"{error}",
                             action="quarantine", moved_to=str(moved))
                pending.append(task)
        self.progress.start(len(tasks), reused=len(report.reused))
        charged: dict[str, int] = {}
        if pending:
            for directory in {task.path.parent for task in pending}:
                discard_stale_tmp(directory)
            charged = self._execute(pending, loader, results, report)
        self.progress.finish()
        self._write_report(len(tasks), report)
        if report.failed:
            ledger = f" (ledger: {self.ledger_path})" if self.ledger_path else ""
            named = ", ".join(
                f"{key} [{report.failure_classes.get(key, TRANSIENT)}, "
                f"{charged[key]} attempt{'' if charged[key] == 1 else 's'}]"
                for key in sorted(report.failed))
            raise ExecutionError(
                f"{len(report.failed)}/{len(tasks)} points failed "
                f"permanently: {named}{ledger}")
        return {key: results[key] for key in keys}

    # ------------------------------------------------------------------
    def _execute(self, pending: list[Task], loader: Callable[[Path], Any],
                 results: dict[str, Any], report: PoolReport,
                 ) -> dict[str, int]:
        """Drain ``pending`` into ``results``/``report``; returns the
        attempts charged to each abandoned point.

        The scheduler seam: :class:`TaskPool` drains through a local
        process pool; :class:`repro.runtime.distributed.FleetScheduler`
        overrides this one method to drain through a worker fleet.  Reuse,
        ledgering and reporting live in :meth:`run`, the retry policy in
        :class:`_Attempts`; every backend shares both.
        """
        drain = _Drain(self, pending, loader, results, report)
        drain.execute()
        return drain.attempts.abandoned

    # ------------------------------------------------------------------
    def _write_report(self, total: int, report: PoolReport) -> None:
        """Persist ``run_report.json`` next to the results/ledger."""
        path = self.report_path
        if path is None and self.ledger_path is not None:
            path = self.ledger_path.parent / REPORT_NAME
        if path is None:
            return
        class_counts: dict[str, int] = {}
        for classification in report.failure_classes.values():
            class_counts[classification] = \
                class_counts.get(classification, 0) + 1
        payload = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "scheduler": report.scheduler,
            "jobs": self.jobs,
            "tasks": total,
            "elapsed_s": round(
                time.monotonic() - self._run_started_monotonic, 6),
            "counts": {
                "reused": len(report.reused),
                "computed": len(report.computed),
                "quarantined": len(report.quarantined),
                "retries": len(report.retried),
                "timeouts": len(report.timeouts),
                "degraded": len(report.degraded),
                "infra_pauses": report.infra_pauses,
                "failed": len(report.failed),
            },
            "pool": {
                "rebuilds": report.pool_rebuilds,
                "watchdog_kills": report.watchdog_kills,
                "final_mode": report.final_mode,
            },
            "failure_classes": class_counts,
            "failed": {
                key: {"error": message,
                      "class": report.failure_classes.get(key, TRANSIENT)}
                for key, message in sorted(report.failed.items())
            },
            "degraded_keys": sorted(set(report.degraded)),
            "timeout_keys": sorted(set(report.timeouts)),
            "workers": {worker: dict(sorted(stats.items()))
                        for worker, stats in sorted(report.workers.items())},
            "leases": {"revoked": report.lease_revocations},
        }
        write_atomic(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")

    # ------------------------------------------------------------------
    def _record(self, key: str, attempt: int, error: str, *,
                action: str, worker: str | None = None,
                **extra: str) -> None:
        """Append one event to the error ledger (if one is configured).

        Each record carries the retry ``attempt`` number, the monotonic
        ``elapsed_s`` since the run started (wall-clock ``time`` can jump
        backwards under NTP; debugging a retry storm needs real durations),
        and the ``worker`` the event is attributed to — ``"local"`` for the
        in-process pool (``worker=None``), the worker id for fleet runs.
        """
        if self.ledger_path is None:
            return
        record = {"key": key, "action": action, "attempt": attempt,
                  "error": error, "worker": worker or "local",
                  "time": time.time(),
                  "elapsed_s": round(
                      time.monotonic() - self._run_started_monotonic, 6),
                  **extra}
        self.ledger_path.parent.mkdir(parents=True, exist_ok=True)
        with self.ledger_path.open("a") as ledger:
            ledger.write(json.dumps(record) + "\n")
        self._trim_ledger()

    def _trim_ledger(self) -> None:
        """Drop oldest ledger records once the file outgrows the cap."""
        try:
            size = self.ledger_path.stat().st_size
        except OSError:
            return
        if size <= self.ledger_max_bytes:
            return
        lines = self.ledger_path.read_text().splitlines(keepends=True)
        # Evict oldest-first, but always keep the newest record even if it
        # alone exceeds the cap.
        while len(lines) > 1 and size > self.ledger_max_bytes:
            size -= len(lines.pop(0).encode("utf-8"))
        write_atomic(self.ledger_path, "".join(lines))


def _probe_ok(task: Task) -> bool:
    """Whether the task's result directory accepts writes again."""
    probe = task.path.parent / f".probe.{os.getpid()}.tmp"
    try:
        task.path.parent.mkdir(parents=True, exist_ok=True)
        probe.write_text("probe")
        probe.unlink()
        return True
    except OSError:
        try:
            probe.unlink(missing_ok=True)
        except OSError:
            pass
        return False


class _Attempts:
    """One run's retry policy, shared by the local and the fleet drain.

    A drain hands tasks out and reports what became of each; this class
    decides what happens next and keeps the books: the ready queue and
    the retry heap, the attempts charged to each point, infrastructure
    strikes (refund the attempt, pause, probe the result directory),
    kernel degradation, the timeout verdict, loading (or quarantining)
    computed results, done and abandoned points, and every ledger record
    and progress hook these transitions emit.

    ``worker`` names the fleet worker an event is attributed to; the
    local pool's anonymous processes pass ``None``, ledgered as
    ``"local"``.  The fleet calls every method with its condition held.
    """

    def __init__(self, pool: TaskPool, pending: list[Task],
                 loader: Callable[[Path], Any], results: dict[str, Any],
                 report: PoolReport) -> None:
        self.p = pool
        self.loader = loader
        self.results = results
        self.report = report
        #: (task, whether handing it out charges an attempt)
        self.queue: deque[tuple[Task, bool]] = deque(
            (task, True) for task in pending)
        #: (ready_at, seq, task, probe, worker) — scheduled retries, each
        #: charged an attempt when handed out again.
        self.retries: list[tuple[float, int, Task, bool, str | None]] = []
        self.charged = {task.key: 0 for task in pending}
        #: Points neither done nor abandoned yet.
        self.outstanding = {task.key: task for task in pending}
        #: Abandoned points, each with its charged attempts at the time.
        self.abandoned: dict[str, int] = {}
        #: Degraded points, each with the worker its degradation names.
        self.degraded: dict[str, str | None] = {}
        self.infra_strikes: dict[str, int] = {}
        self._seq = itertools.count()

    # ------------------------------------------------------------------
    # the queue
    # ------------------------------------------------------------------
    def take(self) -> Task | None:
        """The next ready task, charged an attempt if it owes one."""
        if not self.queue:
            return None
        task, charge = self.queue.popleft()
        if charge:
            self.charged[task.key] += 1
        return task

    def requeue(self, task: Task) -> None:
        """Run ``task`` again at once, uncharged: its result died with
        its worker through no fault of its own."""
        self.queue.append((task, False))

    def deadline(self, task: Task) -> float | None:
        """When ``task``, handed out now, is overdue (``None``: never)."""
        timeout = self._timeout(task)
        return None if timeout is None else self.p.clock() + timeout

    def next_due(self) -> float | None:
        """Ready time of the earliest scheduled retry, if any."""
        return self.retries[0][0] if self.retries else None

    def admit_due(self) -> None:
        """Move every retry whose time has come onto the ready queue."""
        now = self.p.clock()
        while self.retries and self.retries[0][0] <= now:
            _, _, task, probe, worker = heapq.heappop(self.retries)
            self._admit(task, probe, worker)

    def wait_for_retry(self) -> None:
        """Nothing in flight: sleep until the earliest retry, admit it.

        After sleeping the full remaining delay the retry is treated as
        due unconditionally — injected test clocks may not advance, and
        trusting the sleep keeps the schedule deterministic for them.
        """
        ready_at, _, task, probe, worker = heapq.heappop(self.retries)
        delay = ready_at - self.p.clock()
        if delay > 0:
            self.p.sleep(delay)
        self._admit(task, probe, worker)

    def _admit(self, task: Task, probe: bool, worker: str | None) -> None:
        if probe and not _probe_ok(task):
            if self._strike(
                    task, "result directory not writable (probe failed)",
                    worker, action="infra-pause",
                    verdict="infrastructure failure outlasted "
                            f"{self.p.max_infra_retries} probes"):
                self._push_retry(task, self.p.clock() + self.p.infra_pause_s,
                                 probe=True, worker=worker)
            return
        self.queue.append((task, True))

    def _push_retry(self, task: Task, ready_at: float, *, probe: bool,
                    worker: str | None) -> None:
        heapq.heappush(self.retries,
                       (ready_at, next(self._seq), task, probe, worker))

    # ------------------------------------------------------------------
    # outcomes
    # ------------------------------------------------------------------
    def load(self, task: Task, *, worker: str | None = None) -> bool:
        """Load ``task``'s computed result; whether the point is done.

        A result that fails to load is quarantined and retried: it is
        recomputable by construction, so always a (transient) retry,
        never a permanent verdict.
        """
        try:
            loaded = self.loader(task.path)
        except Exception as error:  # noqa: BLE001 — corrupt / schema-invalid
            if task.path.exists():
                quarantine(task.path)
                self.report.quarantined.append(task.key)
            self.failed(task, f"{error}", TRANSIENT, worker=worker)
            return False
        self.results[task.key] = loaded
        self.report.computed.append(task.key)
        del self.outstanding[task.key]
        if worker is None:
            self.p.progress.task_done(task.key)
        else:
            self.p.progress.task_done(task.key, worker=worker)
        return True

    def failed(self, task: Task, error: str, classification: str, *,
               worker: str | None = None) -> None:
        """One charged attempt at ``task`` raised ``error``.

        An infrastructure fault (e.g. ``ENOSPC``) is the environment's,
        not the point's: the attempt is refunded and the point retried
        after a pause and a probe of its result directory, bounded
        separately by ``max_infra_retries`` so a dead disk cannot loop
        forever.
        """
        if classification == INFRASTRUCTURE:
            self.charged[task.key] -= 1
            if self._strike(task, error, worker, action="infra-pause",
                            verdict=error):
                self.p.progress.task_retry(
                    task.key, self.infra_strikes[task.key], error,
                    classification=INFRASTRUCTURE)
                self._push_retry(task, self.p.clock() + self.p.infra_pause_s,
                                 probe=True, worker=worker)
            return
        self.p._record(task.key, self.charged[task.key], error,
                       action="attempt", worker=worker,
                       **{"class": classification})
        self.charge(task, error, classification, worker=worker)

    def charge(self, task: Task, error: str, classification: str, *,
               worker: str | None = None) -> None:
        """Settle a charged, already ledgered failure of ``task``: one
        free re-run on its fallback kernel, a retry after backoff, or
        abandonment."""
        if (task.fallback_args is not None and classification != TIMEOUT
                and self.degrade(task, error, worker=worker)):
            self.queue.append(
                (replace(task, args=task.fallback_args, fallback_args=None),
                 False))
            return
        attempt = self.charged[task.key]
        if classification == PERMANENT or attempt >= self.p.max_attempts:
            self.abandon(task, error, classification, worker=worker)
            return
        self.p.progress.task_retry(task.key, attempt, error,
                                   classification=classification)
        self._retry_later(task, attempt, worker)

    def degrade(self, task: Task, error: str, *,
                worker: str | None = None) -> bool:
        """Note that ``task`` falls back to its scalar-oracle kernel;
        false if it already has (degradation happens at most once).

        Kernel graceful degradation: the fallback re-run is free, so a
        numpy edge case costs one point's speed, not the campaign.
        """
        if task.key in self.degraded:
            return False
        self.degraded[task.key] = worker
        self.report.degraded.append(task.key)
        self.p._record(task.key, self.charged[task.key], error,
                       action="degraded", worker=worker)
        self.p.progress.task_degraded(task.key, error)
        return True

    def timed_out(self, task: Task, remedy: str, *,
                  worker: str | None = None) -> None:
        """``task`` produced no result by its deadline; ``remedy`` says
        what was done to its worker.  Retried (charged) or abandoned."""
        timeout = self._timeout(task)
        attempt = self.charged[task.key]
        error = TaskTimeout(f"no result within {timeout:g}s "
                            f"(attempt {attempt}; {remedy})")
        self.report.timeouts.append(task.key)
        self.p.progress.task_timeout(task.key, attempt, timeout)
        self.p._record(task.key, attempt, f"{error}", action="timeout",
                       worker=worker, **{"class": TIMEOUT})
        if attempt < self.p.max_attempts:
            self._retry_later(task, attempt, worker)
        else:
            self.abandon(task, f"{error}", TIMEOUT, worker=worker)

    def lost(self, task: Task, error: str, *, worker: str) -> None:
        """``task``'s worker died with its result: refund the attempt,
        count an infrastructure strike — a poison task that kills every
        worker it lands on is abandoned, not looped forever — and
        requeue it at once."""
        self.charged[task.key] -= 1
        if self._strike(task, error, worker, action="worker-lost",
                        verdict=f"{error} "
                                f"({self.p.max_infra_retries + 1} strikes)"):
            self.queue.append((task, True))

    def abandon(self, task: Task, error: str, classification: str, *,
                worker: str | None = None) -> None:
        """Give ``task`` up: it fails the run as ``classification``."""
        self.report.failed[task.key] = error
        self.report.failure_classes[task.key] = classification
        self.abandoned[task.key] = self.charged[task.key]
        self.p._record(task.key, self.charged[task.key], error,
                       action="abandoned", worker=worker,
                       **{"class": classification})
        self.p.progress.task_failed(task.key, error)
        self.outstanding.pop(task.key, None)

    # ------------------------------------------------------------------
    def _strike(self, task: Task, error: str, worker: str | None, *,
                action: str, verdict: str) -> bool:
        """Count and ledger one infrastructure strike against ``task``;
        past ``max_infra_retries`` it is abandoned with ``verdict``.
        Returns whether the task may run again."""
        strikes = self.infra_strikes.get(task.key, 0) + 1
        self.infra_strikes[task.key] = strikes
        self.report.infra_pauses += 1
        self.p._record(task.key, strikes, error, action=action,
                       worker=worker, **{"class": INFRASTRUCTURE})
        if strikes <= self.p.max_infra_retries:
            return True
        self.abandon(task, verdict, INFRASTRUCTURE, worker=worker)
        return False

    def _retry_later(self, task: Task, attempt: int,
                     worker: str | None) -> None:
        self.report.retried.append(task.key)
        self._push_retry(
            task, self.p.clock() + self.p.backoff_for(task.key, attempt),
            probe=False, worker=worker)

    def _timeout(self, task: Task) -> float | None:
        return task.timeout_s if task.timeout_s is not None \
            else self.p.timeout_s


class _Drain:
    """One run's local drain loop: submissions, deadlines, pools.

    Execution modes, in degradation order:

    * ``pool`` — one ``ProcessPoolExecutor`` with up to ``jobs`` workers;
    * ``isolated`` — after ``max_pool_rebuilds`` broken pools, one fresh
      single-worker pool per outstanding point, so a poison task breaks
      only its own pool and is identifiable (and chargeable);
    * ``inline`` — ``jobs=1``, or worker processes cannot be spawned at
      all; tasks run in the parent, where deadlines are unenforceable.

    What becomes of each outcome is the run's :class:`_Attempts`.
    """

    def __init__(self, pool: TaskPool, pending: list[Task],
                 loader: Callable[[Path], Any], results: dict[str, Any],
                 report: PoolReport) -> None:
        self.p = pool
        self.report = report
        self.attempts = _Attempts(pool, pending, loader, results, report)
        self.workers = min(pool.jobs, len(pending))
        self.mode = "pool" if self.workers > 1 else "inline"
        self.executor: Any = None
        self.generation = 0
        self.futures: dict[Future, Task] = {}
        self.future_gen: dict[Future, int] = {}
        self.deadlines: dict[Future, float] = {}

    # ------------------------------------------------------------------
    def execute(self) -> None:
        attempts = self.attempts
        self._new_executor()
        try:
            while attempts.queue or attempts.retries or self.futures:
                self._submit_ready()
                if not self.futures:
                    if attempts.queue:
                        continue  # isolated-mode gate re-opens next pass
                    if attempts.retries:
                        attempts.wait_for_retry()
                    continue
                done, _ = wait(self.futures, timeout=self._tick(),
                               return_when=FIRST_COMPLETED)
                for future in done:
                    self._on_complete(future)
                self._enforce_deadlines()
        finally:
            self._shutdown(kill=False)
        self.report.final_mode = self.mode

    # ------------------------------------------------------------------
    # executor lifecycle
    # ------------------------------------------------------------------
    def _new_executor(self) -> None:
        self.generation += 1
        if self.mode == "inline":
            self.executor = _InlineExecutor()
            return
        workers = 1 if self.mode == "isolated" else self.workers
        try:
            self.executor = ProcessPoolExecutor(max_workers=workers)
        except OSError:
            # Cannot spawn workers at all: last rung of the ladder.
            self.mode = "inline"
            self.executor = _InlineExecutor()

    def _shutdown(self, kill: bool) -> None:
        executor = self.executor
        self.executor = None
        if executor is None:
            return
        if kill:
            # A hung worker cannot be cancelled through the Executor API;
            # SIGKILL the worker processes before discarding the pool.
            for process in list(getattr(executor, "_processes", {}).values()):
                try:
                    process.kill()
                except OSError:  # already reaped
                    pass
        try:
            executor.shutdown(wait=not kill, cancel_futures=True)
        except Exception:  # noqa: BLE001 — a dying pool must not kill the run
            pass

    def _rebuild(self, reason: str) -> None:
        """Replace a broken pool, degrading to isolated mode past the cap."""
        self.report.pool_rebuilds += 1
        if self.mode == "pool" \
                and self.report.pool_rebuilds > self.p.max_pool_rebuilds:
            self.mode = "isolated"
        self._requeue_in_flight()
        self._shutdown(kill=True)
        self._new_executor()
        self.p.progress.pool_rebuilt(self.report.pool_rebuilds, self.mode,
                                     reason)

    def _requeue_in_flight(self) -> None:
        """Re-enqueue every in-flight task without charging an attempt.

        Their results died with the pool through no fault of their own;
        stale completions of the popped futures are ignored later.
        """
        for task in self.futures.values():
            self.attempts.requeue(task)
        self.futures.clear()
        self.future_gen.clear()
        self.deadlines.clear()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def _submit_ready(self) -> None:
        self.attempts.admit_due()
        # One outstanding point at a time when isolating.
        while not (self.mode == "isolated" and self.futures):
            task = self.attempts.take()
            if task is None:
                return
            self._submit(task)

    def _submit(self, task: Task) -> None:
        while True:
            try:
                future = self.executor.submit(task.fn, *task.args)
            except (BrokenExecutor, RuntimeError) as error:
                # The pool died between completions (or was shut down
                # under us); replace it and try this submission again.
                self._record_infra(task, error, action="pool-broken")
                self._rebuild(f"submit failed: {error}")
                continue
            break
        self.futures[future] = task
        self.future_gen[future] = self.generation
        deadline = self.attempts.deadline(task)
        if deadline is not None and self.mode != "inline":
            self.deadlines[future] = deadline

    # ------------------------------------------------------------------
    # waiting
    # ------------------------------------------------------------------
    def _tick(self) -> float | None:
        """Bounded ``wait()`` timeout: the next deadline or retry, if any."""
        events = list(self.deadlines.values())
        ready_at = self.attempts.next_due()
        if ready_at is not None:
            events.append(ready_at)
        if not events:
            return None
        return max(0.0, min(events) - self.p.clock())

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def _on_complete(self, future: Future) -> None:
        task = self.futures.pop(future, None)
        if task is None:
            return  # stale completion from a torn-down pool
        generation = self.future_gen.pop(future, self.generation)
        self.deadlines.pop(future, None)
        error = future.exception()
        if error is None:
            self.attempts.load(task)
        elif isinstance(error, BrokenExecutor):
            self._on_broken_pool(task, error, generation)
        else:
            self.attempts.failed(task, f"{error}", classify_failure(error))

    def _on_broken_pool(self, task: Task, error: BaseException,
                        generation: int) -> None:
        self._record_infra(task, error, action="pool-broken")
        if self.mode == "isolated" and generation == self.generation:
            # Single-task pool: the culprit is known.  Replace the pool
            # and charge the point like any other failed attempt.
            self.report.pool_rebuilds += 1
            self._shutdown(kill=True)
            self._new_executor()
            self.attempts.charge(task, f"{error}", INFRASTRUCTURE)
            return
        if generation == self.generation:
            self._rebuild(f"{error}")
        # The result was lost with the pool; re-run without charge.
        self.attempts.requeue(task)

    def _record_infra(self, task: Task, error: BaseException, *,
                      action: str) -> None:
        self.p._record(task.key, self.attempts.charged[task.key], f"{error}",
                       action=action, **{"class": INFRASTRUCTURE})

    # ------------------------------------------------------------------
    # watchdog
    # ------------------------------------------------------------------
    def _enforce_deadlines(self) -> None:
        if not self.deadlines:
            return
        now = self.p.clock()
        overdue = {future for future, deadline in self.deadlines.items()
                   if deadline <= now}
        if not overdue:
            return
        self.report.watchdog_kills += 1
        # A hung worker cannot be cancelled individually: tear the whole
        # pool down (SIGKILL), rebuild, and re-enqueue the innocent
        # in-flight points without charging them an attempt.
        in_flight = list(self.futures.items())
        self.futures.clear()
        self.future_gen.clear()
        self.deadlines.clear()
        self._shutdown(kill=True)
        self._new_executor()
        self.p.progress.pool_rebuilt(
            self.report.pool_rebuilds, self.mode,
            "watchdog: task deadline exceeded")
        for future, task in in_flight:
            if future in overdue:
                self.attempts.timed_out(task, "worker killed")
            else:
                self.attempts.requeue(task)

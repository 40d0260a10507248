"""Distributed campaign execution: TCP coordinator + worker fleet.

The paper's grids (per-vendor, per-tRAS/tRC, fine NRH bisection over
thousands of rows) are embarrassingly parallel, and after the kernel-tier
work the remaining order-of-magnitude lever is scale-out across hosts.
:class:`FleetScheduler` is the ``fleet`` backend behind
:func:`repro.runtime.scheduler.make_scheduler` — the same shape as the
litex-rowhammer-tester ``litex_server``/``RemoteClient`` socket bridge
that drives real DRAM Bender boards remotely, but for simulation tasks:

* the **coordinator** (this process) serves workers on a
  :class:`~repro.runtime.wire.FrameServer` — the listener, ``hello``
  check and close path it shares with ``serve-api`` — leases
  *batches* of tasks to workers (one round trip per batch, not per task),
  parks a request it cannot fill yet until a task is ready or the run
  ends, tracks each lease in a monotonic deadline table, and is the only
  writer of the result store — workers push result bytes back over the
  wire and the coordinator publishes them with the same atomic durable
  writes the local pool uses;
* **workers** (``repro-experiments worker --connect host:port``, or the
  loopback processes the coordinator spawns itself) pull leases, execute
  them through the identical ``Task`` machinery — failure taxonomy,
  kernel graceful degradation included — in a private scratch directory,
  and report per-task outcomes;
* task payloads ship as **digests + args**, not pickles: heavy arguments
  (campaign/sweep configs) are content-addressed blobs sent at most once
  per worker (:mod:`repro.runtime.wire`), so warm workers receive
  digest-sized leases, and results compress above a size threshold;
* failures map onto the PR-7 taxonomy: a worker crash or disconnect is
  **infrastructure** (the lease is requeued without charging the point an
  attempt, bounded by ``max_infra_retries``), an overrun lease is a
  **timeout** (revoked — the in-flight generation is invalidated so a
  late result is dropped as stale — and reassigned, charged), worker-side
  exceptions classify exactly as they would locally.

Because every task derives its result only from its arguments and seed,
and retries/reassignments re-run the same pure function, the published
files are **byte-identical** to a local run for any worker count, lease
batch size, or failure interleaving — asserted by the fleet chaos
scenarios and the ``distributed-smoke`` CI job.

Trust model: see :mod:`repro.runtime.wire` — a worker executes
coordinator-named module-level callables, so only connect workers to a
coordinator you control (the CLI's own loopback fleet always qualifies).
"""

from __future__ import annotations

import base64
import heapq
import json
import os
import shutil
import socket
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from typing import Any, Callable

from repro.errors import ConfigError
from repro.runtime.engine import Task, TaskPool, PoolReport
from repro.runtime.failures import (
    INFRASTRUCTURE,
    PERMANENT,
    TIMEOUT,
    TRANSIENT,
    TaskTimeout,
    classify_failure,
)
from repro.runtime.persist import quarantine, write_atomic
from repro.runtime.wire import (
    PROTOCOL_VERSION,
    FrameError,
    FrameServer,
    callable_ref,
    connect_with_retry,
    decode_value,
    encode_value,
    intern_args,
    recv_frame,
    referenced_blobs,
    resolve_callable,
    send_frame,
)

__all__ = ["FleetScheduler", "run_worker", "DEFAULT_LEASE_BATCH",
           "echo_point"]

#: Tasks per lease.  Batching amortizes the request/reply round trip; the
#: default keeps a small grid spread across workers while cutting frames
#: by ~4x on large ones.
DEFAULT_LEASE_BATCH = 4

#: Longest a parked lease request waits before re-checking on its own.
#: A worker with nothing to lease is answered as soon as a result, a
#: requeue, a due retry or the close can answer it (each notifies), so
#: this only bounds what a missed wake-up costs: one tick, never a hang.
DEFAULT_POLL_S = 0.05

#: Per-worker counter names, fixed so ``run_report.json`` is stable.
_WORKER_STATS = ("tasks", "failures", "degraded", "revoked", "disconnects",
                 "stale_results")


def echo_point(n: int, path: str) -> None:
    """Trivial reference task (tests and the scheduler-overhead bench)."""
    write_atomic(path, json.dumps({"n": n, "echo": n * n + 1},
                                  sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------
def _execute_spec(spec: dict, blobs: dict[str, Any],
                  scratch_root: Path) -> dict:
    """Run one leased task in a private scratch dir; return its outcome.

    The result file (and any siblings the task writes next to it, e.g. a
    ``*.violations.jsonl`` ledger) are shipped back base64-encoded; the
    scratch dir is deleted afterwards, so a worker host accumulates no
    state beyond its warm caches.
    """
    entry: dict[str, Any] = {"key": spec["key"], "gen": spec["gen"],
                             "status": "ok", "degraded": False}
    started = time.monotonic()
    task_dir = Path(tempfile.mkdtemp(prefix="task-", dir=scratch_root))
    path = task_dir / spec["path"]
    try:
        try:
            fn = resolve_callable(spec["fn"])
            args = [decode_value(a, task_path=str(path), blobs=blobs)
                    for a in spec["args"]]
        except Exception as error:  # noqa: BLE001 — reported, not raised
            entry.update(status="error", error=f"{error}",
                         error_class=classify_failure(error))
            return entry
        try:
            try:
                fn(*args)
            except Exception as error:  # noqa: BLE001 — degradation hook
                fallback = spec.get("fallback")
                if fallback is None or classify_failure(error) == TIMEOUT:
                    raise
                # Kernel graceful degradation, worker-side: one free re-run
                # on the fallback (scalar-oracle) args, exactly like the
                # local drain loop.
                entry["degraded"] = True
                entry["degraded_error"] = f"{error}"
                fn(*[decode_value(a, task_path=str(path), blobs=blobs)
                     for a in fallback])
        except Exception as error:  # noqa: BLE001 — classified for the wire
            entry.update(status="error", error=f"{error}",
                         error_class=classify_failure(error))
            return entry
        files: dict[str, str] = {}
        for file in sorted(task_dir.rglob("*")):
            if file.is_file():
                name = file.relative_to(task_dir).as_posix()
                files[name] = base64.b64encode(file.read_bytes()
                                               ).decode("ascii")
        if spec["path"] not in files:
            entry.update(status="error",
                         error=f"task produced no result file "
                               f"{spec['path']!r}",
                         error_class=TRANSIENT)
            return entry
        entry["files"] = files
        return entry
    finally:
        entry["elapsed_s"] = round(time.monotonic() - started, 6)
        shutil.rmtree(task_dir, ignore_errors=True)


def run_worker(host: str, port: int, *, worker_id: str | None = None,
               batch: int = DEFAULT_LEASE_BATCH,
               scratch_dir: str | Path | None = None,
               connect_timeout_s: float = 10.0) -> int:
    """Worker client: pull leases from ``host:port`` until shut down.

    Blocks until the coordinator says ``shutdown`` or the connection
    drops; returns 0 on a clean shutdown and 3 if the coordinator went
    away first (the run may simply have finished while this worker was
    idle — the coordinator closes every connection when it is done).
    ``scratch_dir`` overrides the temporary scratch root (kept if given,
    deleted otherwise).  Connecting retries with bounded exponential
    backoff for up to ``connect_timeout_s`` (a worker started moments
    before its coordinator must not die on the race), then raises
    :class:`~repro.errors.ConfigError` instead of hanging.
    """
    worker_id = worker_id or f"w-{socket.gethostname()}-{os.getpid()}"
    own_scratch = scratch_dir is None
    scratch_root = Path(scratch_dir) if scratch_dir is not None \
        else Path(tempfile.mkdtemp(prefix="repro-worker-"))
    scratch_root.mkdir(parents=True, exist_ok=True)
    sock = connect_with_retry(host, port, timeout_s=connect_timeout_s)
    blobs: dict[str, Any] = {}
    try:
        send_frame(sock, {"type": "hello", "worker": worker_id,
                          "pid": os.getpid(),
                          "protocol": PROTOCOL_VERSION,
                          "max": batch, "results": []})
        while True:
            try:
                reply = recv_frame(sock)
            except (ConnectionError, OSError):
                return 3  # coordinator gone (usually: the run finished)
            if reply is None or reply.get("type") == "shutdown":
                return 0
            if reply.get("type") == "error":
                raise ConfigError(f"coordinator refused worker: "
                                  f"{reply.get('error')}")
            if reply.get("type") == "idle":
                # Only a coordinator from an older checkout still replies
                # ``idle``; this one parks the request instead.
                time.sleep(float(reply.get("poll_s", DEFAULT_POLL_S)))
                send_frame(sock, {"type": "lease", "max": batch,
                                  "results": []})
                continue
            # A lease: absorb new blob bodies, run the batch, report the
            # outcomes and ask for the next batch in the same frame.
            blobs.update(reply.get("blobs") or {})
            entries = [_execute_spec(spec, blobs, scratch_root)
                       for spec in reply.get("tasks") or []]
            send_frame(sock, {"type": "lease", "max": batch,
                              "results": entries})
    except (ConnectionError, BrokenPipeError, OSError):
        return 3
    finally:
        sock.close()
        if own_scratch:
            shutil.rmtree(scratch_root, ignore_errors=True)


# ---------------------------------------------------------------------------
# coordinator side
# ---------------------------------------------------------------------------
@dataclass
class _Lease:
    """One task currently out with a worker."""

    worker: str
    gen: int
    deadline: float | None
    task: Task


class FleetScheduler(TaskPool):
    """The ``fleet`` scheduler backend: lease tasks to a worker fleet.

    Inherits every shared contract from :class:`TaskPool` — resume/reuse,
    quarantine, the error ledger, ``run_report.json``, retry accounting —
    and overrides only the drain: instead of a local process pool, tasks
    are leased over TCP to ``workers`` spawned loopback worker processes
    and/or external ``repro-experiments worker`` clients connecting to the
    ``serve`` address.  ``timeout_s`` / per-task deadlines become lease
    deadlines enforced by the coordinator's revocation table.
    """

    def __init__(self, *, workers: int = 2,
                 serve: tuple[str, int] | None = None,
                 lease_batch: int = DEFAULT_LEASE_BATCH,
                 **pool_options: Any) -> None:
        super().__init__(**pool_options)
        if workers < 0:
            raise ConfigError(f"workers must be >= 0, got {workers}")
        if workers == 0 and serve is None:
            raise ConfigError(
                "a fleet needs spawned loopback workers (workers >= 1) "
                "or a serve address for external ones")
        if lease_batch < 1:
            raise ConfigError(
                f"lease_batch must be >= 1, got {lease_batch}")
        self.workers = workers
        self.serve = serve
        self.lease_batch = lease_batch
        #: ``(host, port)`` actually bound, set once listening (tests and
        #: external workers need the ephemeral port).
        self.bound_address: tuple[str, int] | None = None
        #: Set while the coordinator is accepting connections.
        self.serving = threading.Event()

    def _execute(self, pending: list[Task], loader: Callable[[Path], Any],
                 results: dict[str, Any], report: PoolReport) -> None:
        try:
            _FleetRun(self, pending, loader, results, report).execute()
        finally:
            self.serving.clear()


class _FleetRun:
    """One fleet run: the lease table, retry schedule, and worker server."""

    def __init__(self, pool: FleetScheduler, pending: list[Task],
                 loader: Callable[[Path], Any], results: dict[str, Any],
                 report: PoolReport) -> None:
        self.p = pool
        self.loader = loader
        self.results = results
        self.report = report
        self.pending = pending
        self.cond = threading.Condition()
        self.queue: list[tuple[Task, bool]] = []
        #: (ready_at, seq, task, charge) — scheduled retries.
        self.retries: list[tuple[float, int, Task, bool]] = []
        self.attempts = {task.key: 0 for task in pending}
        self.gens: dict[str, int] = {}
        self.leases: dict[str, _Lease] = {}
        self.outstanding = {task.key for task in pending}
        self.blob_table: dict[str, Any] = {}
        self.worker_sent: dict[str, set[str]] = {}
        self.worker_stats: dict[str, dict[str, int]] = {}
        self.connected: set[str] = set()
        self.degraded_keys: set[str] = set()
        self.infra_strikes: dict[str, int] = {}
        self.closing = False
        self._seq = 0
        self._procs: list[Any] = []

    # ------------------------------------------------------------------
    def execute(self) -> None:
        for task, _charge in ((t, True) for t in self.pending):
            self.queue.append((task, True))
        self.server = FrameServer(self.p.serve or ("127.0.0.1", 0),
                                  self._serve_worker, "worker")
        self.p.bound_address = self.server.address
        # Everything past the listener — including spawning — runs under
        # the shutdown guarantee: a Ctrl-C or crash anywhere below must
        # never orphan a spawned worker or leave a lease connection open.
        try:
            # Spawn loopback workers BEFORE starting any thread: forking
            # a multi-threaded parent can deadlock the child on inherited
            # lock state.  The workers connect immediately and block in
            # the listen backlog until the server starts accepting.
            self._spawn_workers()
            self.server.start()
            self.p.serving.set()
            with self.cond:
                while self.outstanding:
                    self._revoke_overdue()
                    if self._fleet_dead():
                        self._fail_remaining(
                            "every fleet worker is gone (no connections, "
                            "no live spawned workers)")
                        break
                    self.cond.wait(timeout=0.05)
        finally:
            self._shutdown()
        self.report.final_mode = "fleet"
        self.report.scheduler = "fleet"
        self.report.workers = {worker: dict(stats) for worker, stats
                               in sorted(self.worker_stats.items())}

    def _spawn_workers(self) -> None:
        if not self.p.workers:
            return
        import multiprocessing

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # platforms without fork
            ctx = multiprocessing.get_context("spawn")
        for index in range(self.p.workers):
            proc = ctx.Process(
                target=run_worker, args=self.p.bound_address,
                kwargs={"worker_id": f"w{index + 1}",
                        "batch": self.p.lease_batch},
                daemon=True, name=f"repro-fleet-w{index + 1}")
            proc.start()
            self._procs.append(proc)

    def _fleet_dead(self) -> bool:
        """No worker will ever serve this run again.

        Only decidable for a pure loopback fleet: with an explicit serve
        address, an external worker may still connect, so the coordinator
        keeps waiting (the operator owns that fleet's lifecycle).
        """
        if self.connected or self.p.serve is not None:
            return False
        return all(not proc.is_alive() for proc in self._procs)

    def _fail_remaining(self, reason: str) -> None:
        for key in sorted(self.outstanding):
            task = next(t for t in self.pending if t.key == key)
            self._fail(task, reason, INFRASTRUCTURE)
        self.outstanding.clear()

    def _shutdown(self) -> None:
        """Tear the fleet down without orphans, however the run ended.

        Remote leases first: setting ``closing`` wakes every lease
        request parked on the condition, which is answered ``shutdown``,
        and closing the server wakes every connection thread blocked in
        ``recv``, which then closes its connection, so each worker exits
        on its own.
        Spawned loopback workers then get one short grace period
        *collectively*, and stragglers are escalated SIGTERM -> join ->
        SIGKILL — an interrupted coordinator (Ctrl-C mid-sweep) must
        never leave live children behind.
        """
        with self.cond:
            self.closing = True
            self.cond.notify_all()
        self.server.close()
        deadline = time.monotonic() + 0.5
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()  # SIGTERM: let multiprocessing clean up
        for proc in self._procs:
            if proc.is_alive():
                proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)

    # ------------------------------------------------------------------
    # connection handler (one thread per worker)
    # ------------------------------------------------------------------
    def _serve_worker(self, conn: socket.socket, hello: dict) -> None:
        worker = self._register(str(hello.get("worker") or "w-?"))
        message = hello
        try:
            while True:
                maxn = max(1, int(message.get("max") or self.p.lease_batch))
                with self.cond:
                    self._ingest(worker, message.get("results") or [])
                    self.cond.notify_all()
                    reply = self._grant(worker, maxn)
                    while reply is None:  # parked: nothing ready yet
                        self.cond.wait(timeout=self._park_s())
                        reply = self._grant(worker, maxn)
                send_frame(conn, reply)
                if reply["type"] == "shutdown":
                    with self.cond:
                        self.connected.discard(worker)
                        self.cond.notify_all()
                    return
                message = recv_frame(conn)
                if message is None:
                    raise ConnectionError("worker closed the connection")
        except Exception as error:  # noqa: BLE001 — classified as a loss
            self._worker_lost(worker, error)

    def _register(self, requested: str) -> str:
        with self.cond:
            worker = requested
            suffix = 2
            while worker in self.connected:
                worker = f"{requested}#{suffix}"
                suffix += 1
            self.connected.add(worker)
            self.worker_stats.setdefault(
                worker, {name: 0 for name in _WORKER_STATS})
            self.p.progress.worker_joined(worker, len(self.connected))
            return worker

    def _worker_lost(self, worker: str, error: BaseException) -> None:
        """A connection died: requeue its leases without charging them.

        The worker's results died with it through no fault of the tasks —
        the PR-7 infrastructure rule — but each loss still counts an
        infra strike, so a poison task that kills every worker it lands
        on is eventually abandoned as ``infrastructure`` instead of
        looping forever.
        """
        with self.cond:
            self.connected.discard(worker)
            if self.closing:
                self.cond.notify_all()
                return
            stats = self.worker_stats.setdefault(
                worker, {name: 0 for name in _WORKER_STATS})
            for key, lease in sorted(self.leases.items()):
                if lease.worker != worker:
                    continue
                del self.leases[key]
                stats["disconnects"] += 1
                task = lease.task
                # Refund the attempt charged at grant: requeue uncharged.
                self.attempts[key] -= 1
                strikes = self.infra_strikes.get(key, 0) + 1
                self.infra_strikes[key] = strikes
                self.report.infra_pauses += 1
                self.p._record(key, strikes, f"worker lost: {error}",
                               action="worker-lost", worker=worker,
                               **{"class": INFRASTRUCTURE})
                if strikes > self.p.max_infra_retries:
                    self._fail(task, f"worker lost: {error} "
                                     f"({strikes} strikes)", INFRASTRUCTURE)
                else:
                    self.queue.append((task, True))
            self.p.progress.worker_left(worker, len(self.connected),
                                        f"{error}")
            self.cond.notify_all()

    # ------------------------------------------------------------------
    # lease granting (lock held)
    # ------------------------------------------------------------------
    def _pop_ready(self, now: float) -> tuple[Task, bool] | None:
        while self.retries and self.retries[0][0] <= now:
            _, _, task, charge = heapq.heappop(self.retries)
            self.queue.append((task, charge))
        if self.queue:
            return self.queue.pop(0)
        return None

    def _push_retry(self, task: Task, ready_at: float, *,
                    charge: bool) -> None:
        self._seq += 1
        heapq.heappush(self.retries, (ready_at, self._seq, task, charge))

    def _grant(self, worker: str, maxn: int) -> dict | None:
        """The reply to a lease request, or ``None`` while nothing is
        ready but tasks are still out (the caller parks the request)."""
        if self.closing:  # a frame buffered at close earns no new lease
            return {"type": "shutdown"}
        now = self.p.clock()
        specs: list[dict] = []
        while len(specs) < maxn:
            item = self._pop_ready(now)
            if item is None:
                break
            task, charge = item
            if charge:
                self.attempts[task.key] += 1
            gen = self.gens[task.key] = self.gens.get(task.key, 0) + 1
            timeout = task.timeout_s if task.timeout_s is not None \
                else self.p.timeout_s
            deadline = now + timeout if timeout is not None else None
            self.leases[task.key] = _Lease(worker, gen, deadline, task)
            specs.append(self._spec(task, gen))
        if specs:
            sent = self.worker_sent.setdefault(worker, set())
            needed: set[str] = set()
            for spec in specs:
                needed |= referenced_blobs(spec["args"])
                if spec["fallback"] is not None:
                    needed |= referenced_blobs(spec["fallback"])
            bodies = {digest: self.blob_table[digest]
                      for digest in sorted(needed - sent)}
            sent.update(bodies)
            self.p.progress.lease_update(
                worker, sum(1 for lease in self.leases.values()
                            if lease.worker == worker))
            return {"type": "lease", "tasks": specs, "blobs": bodies}
        if not self.outstanding:
            return {"type": "shutdown"}
        return None

    def _park_s(self) -> float:
        """Bound on one parked wait: the next retry's ready time, capped
        at :data:`DEFAULT_POLL_S`."""
        if self.retries:
            return max(0.0, min(DEFAULT_POLL_S,
                                self.retries[0][0] - self.p.clock()))
        return DEFAULT_POLL_S

    def _spec(self, task: Task, gen: int) -> dict:
        path_str = str(task.path)
        args = intern_args(
            [encode_value(a, task_path=path_str) for a in task.args],
            self.blob_table)
        fallback = None
        if task.fallback_args is not None:
            fallback = intern_args(
                [encode_value(a, task_path=path_str)
                 for a in task.fallback_args],
                self.blob_table)
        return {"key": task.key, "gen": gen, "fn": callable_ref(task.fn),
                "args": args, "fallback": fallback,
                "path": task.path.name}

    # ------------------------------------------------------------------
    # result ingestion (lock held)
    # ------------------------------------------------------------------
    def _ingest(self, worker: str, entries: list[dict]) -> None:
        stats = self.worker_stats[worker]
        for entry in entries:
            key = entry.get("key")
            lease = self.leases.get(key)
            if (lease is None or lease.worker != worker
                    or lease.gen != entry.get("gen")):
                # Revoked-and-reassigned (or plain unknown): the lease
                # table is the source of truth; drop the stale result.
                stats["stale_results"] += 1
                continue
            del self.leases[key]
            task = lease.task
            if entry.get("degraded") and key not in self.degraded_keys:
                self.degraded_keys.add(key)
                self.report.degraded.append(key)
                message = entry.get("degraded_error", "fast kernel failed")
                stats["degraded"] += 1
                self.p._record(key, self.attempts[key], message,
                               action="degraded", worker=worker)
                self.p.progress.task_degraded(key, message)
            if entry.get("status") == "ok":
                self._publish_ok(task, worker, entry, stats)
            else:
                stats["failures"] += 1
                self._failed_attempt(
                    task, worker, str(entry.get("error", "worker error")),
                    str(entry.get("error_class", TRANSIENT)))

    def _publish_ok(self, task: Task, worker: str, entry: dict,
                    stats: dict[str, int]) -> None:
        try:
            self._publish_files(task, entry.get("files") or {})
            loaded = self.loader(task.path)
        except Exception as error:  # noqa: BLE001 — classified transient
            if task.path.exists():
                quarantine(task.path)
            self.report.quarantined.append(task.key)
            # A corrupt shipped result is recomputable by construction:
            # always a (transient) retry, never a permanent verdict.
            self._failed_attempt(task, worker, f"{error}", TRANSIENT)
            return
        self.results[task.key] = loaded
        self.report.computed.append(task.key)
        self.outstanding.discard(task.key)
        stats["tasks"] += 1
        self.p.progress.task_done(task.key, worker=worker)

    def _publish_files(self, task: Task, files: dict[str, str]) -> None:
        """Atomically write the worker's shipped files into the store."""
        if task.path.name not in files:
            raise FrameError(
                f"worker shipped no result file {task.path.name!r}")
        for name, encoded in sorted(files.items()):
            rel = PurePosixPath(name)
            if rel.is_absolute() or ".." in rel.parts:
                raise FrameError(f"illegal shipped file name {name!r}")
            text = base64.b64decode(encoded).decode("utf-8")
            # The primary result gets the local pool's durable write;
            # side files (violation ledgers) take the cheaper default,
            # exactly as the in-process task function would.
            write_atomic(task.path.parent / rel, text,
                         durable=(name == task.path.name))

    def _failed_attempt(self, task: Task, worker: str, message: str,
                        classification: str) -> None:
        if classification not in (TRANSIENT, PERMANENT, TIMEOUT,
                                  INFRASTRUCTURE):
            classification = TRANSIENT
        key = task.key
        attempt = self.attempts[key]
        self.p._record(key, attempt, message, action="attempt",
                       worker=worker, **{"class": classification})
        if classification == PERMANENT:
            self._fail(task, message, classification)
            return
        if classification == INFRASTRUCTURE:
            # The worker's *environment* failed (full disk, OOM): refund
            # the attempt and retry after a pause, bounded separately.
            self.attempts[key] -= 1
            strikes = self.infra_strikes.get(key, 0) + 1
            self.infra_strikes[key] = strikes
            self.report.infra_pauses += 1
            if strikes > self.p.max_infra_retries:
                self._fail(task, message, INFRASTRUCTURE)
                return
            self.p.progress.task_retry(key, strikes, message,
                                       classification=INFRASTRUCTURE)
            self._push_retry(task, self.p.clock() + self.p.infra_pause_s,
                             charge=True)
            return
        if attempt < self.p.max_attempts:
            self.report.retried.append(key)
            self.p.progress.task_retry(key, attempt, message,
                                       classification=classification)
            delay = self.p.backoff_for(key, attempt)
            self._push_retry(task, self.p.clock() + delay, charge=True)
        else:
            self._fail(task, message, classification)

    def _fail(self, task: Task, error: str, classification: str) -> None:
        self.report.failed[task.key] = error
        self.report.failure_classes[task.key] = classification
        self.p._record(task.key, self.attempts[task.key], error,
                       action="abandoned", **{"class": classification})
        self.p.progress.task_failed(task.key, error)
        self.outstanding.discard(task.key)

    # ------------------------------------------------------------------
    # lease watchdog (main thread, lock held)
    # ------------------------------------------------------------------
    def _revoke_overdue(self) -> None:
        """Revoke leases past their deadline and reassign the tasks.

        The PR-7 watchdog, coordinator-style: the overrunning worker is
        not killed (it may be another host), but its lease generation is
        invalidated — a late result is dropped as stale — and the task is
        recharged and rescheduled exactly like a local watchdog timeout.
        """
        now = self.p.clock()
        for key, lease in sorted(self.leases.items()):
            if lease.deadline is None or lease.deadline > now:
                continue
            del self.leases[key]
            self.gens[key] = self.gens.get(key, 0) + 1
            task = lease.task
            self.report.lease_revocations += 1
            self.report.timeouts.append(key)
            self.worker_stats[lease.worker]["revoked"] += 1
            timeout = task.timeout_s if task.timeout_s is not None \
                else self.p.timeout_s
            attempt = self.attempts[key]
            error = TaskTimeout(
                f"no result within {timeout:g}s (attempt {attempt}; "
                f"lease revoked from {lease.worker})")
            self.p.progress.task_timeout(key, attempt, timeout)
            self.p._record(key, attempt, f"{error}", action="timeout",
                           worker=lease.worker, **{"class": TIMEOUT})
            if attempt < self.p.max_attempts:
                self.report.retried.append(key)
                delay = self.p.backoff_for(key, attempt)
                self._push_retry(task, now + delay, charge=True)
            else:
                self._fail(task, f"{error}", TIMEOUT)
            self.cond.notify_all()  # re-bound parked waits, or end the run

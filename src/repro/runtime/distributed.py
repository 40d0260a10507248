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
  parks a request it cannot fill yet until a task is ready or the fleet
  closes, tracks each lease in a monotonic deadline table, and is the
  only writer of the result store — workers push result bytes back over
  the wire and the coordinator publishes them with the same atomic
  writes the local pool's tasks use, then commits each result it accepts
  at the engine's one commit point; a worker never fsyncs;
* the **fleet** (:class:`Fleet`: listener, loopback worker processes,
  connections) has a lifetime of its own, and runs borrow it one at a
  time.  A batch run opens a private fleet and closes it when it ends; a
  fleet-backed ``serve-api`` opens one at start and keeps it, workers
  connected and parked, until it stops — so no job forks, tears down or
  re-imports, and external workers serve every job;
* **workers** (``repro-experiments worker --connect host:port``, or the
  loopback processes the coordinator spawns itself) pull leases, execute
  them through the identical ``Task`` machinery — failure taxonomy,
  kernel graceful degradation included — in a private scratch directory,
  and report per-task outcomes;
* task payloads ship as **digests + args**, not pickles: heavy arguments
  (campaign/sweep configs) are content-addressed blobs sent at most once
  per worker (:mod:`repro.runtime.wire`), so warm workers receive
  digest-sized leases, and results compress above a size threshold;
* failures follow the local pool's retry policy, because both backends
  account them through one class (:class:`repro.runtime.engine._Attempts`)
  and every record names its worker: worker-side exceptions and
  coordinator-side publish errors classify exactly as they would locally
  (an ``ENOSPC`` pauses, probes the result directory and retries
  uncharged); a worker crash or disconnect is **infrastructure** (its
  leases are requeued at once without charging the points an attempt,
  bounded by ``max_infra_retries``), and so is a refused shipment, whose
  worker is disconnected; an overrun lease is a **timeout**
  (revoked — the in-flight generation is invalidated so a late result is
  dropped as stale — and reassigned, charged).  Lease generations are
  fleet-wide, so a late result never matches a later run's lease of the
  same key either.

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
import itertools
import json
import os
import shutil
import socket
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.errors import ConfigError
from repro.runtime.engine import PoolReport, Task, TaskPool, _Attempts
from repro.runtime.failures import (
    FAILURE_CLASSES,
    INFRASTRUCTURE,
    TIMEOUT,
    TRANSIENT,
    classify_failure,
)
from repro.runtime.persist import write_atomic
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

__all__ = ["Fleet", "FleetScheduler", "run_worker", "lease_spec",
           "DEFAULT_LEASE_BATCH", "echo_point"]

#: Tasks per lease.  Batching amortizes the request/reply round trip; the
#: default keeps a small grid spread across workers while cutting frames
#: by ~4x on large ones.
DEFAULT_LEASE_BATCH = 4

#: Longest a parked lease request waits before re-checking on its own.
#: A worker with nothing to lease is answered as soon as a new run, a
#: result, a requeue, a due retry or the close can answer it (each
#: notifies), so this only bounds what a missed wake-up costs: one tick,
#: never a hang.
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
    away first (its fleet may simply have closed while this worker was
    idle — closing drops every connection).  Between runs of a fleet that
    stays open, the worker's lease request waits on the coordinator.  A
    coordinator replies ``lease``, ``shutdown`` or ``error``; an
    ``error`` or any other reply raises
    :class:`~repro.errors.ConfigError` naming it.
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
                return 3  # coordinator gone (usually: the fleet closed)
            if reply is None or reply.get("type") == "shutdown":
                return 0
            kind = reply.get("type")
            if kind == "error":
                raise ConfigError(f"coordinator refused worker: "
                                  f"{reply.get('error')}")
            if kind != "lease":
                raise ConfigError(
                    f"coordinator sent a reply this worker does not know: "
                    f"type {kind!r}")
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


def _check_shape(workers: int = 2, serve: tuple[str, int] | None = None,
                 lease_batch: int = DEFAULT_LEASE_BATCH) -> None:
    """Refuse a fleet shape no :class:`Fleet` can run (its defaults fill
    in what is not given)."""
    if workers < 0:
        raise ConfigError(f"workers must be >= 0, got {workers}")
    if workers == 0 and serve is None:
        raise ConfigError(
            "a fleet needs spawned loopback workers (workers >= 1) "
            "or a serve address for external ones")
    if lease_batch < 1:
        raise ConfigError(
            f"lease_batch must be >= 1, got {lease_batch}")


class FleetScheduler(TaskPool):
    """The ``fleet`` scheduler backend: lease tasks to a worker fleet.

    Inherits every shared contract from :class:`TaskPool` — resume/reuse,
    quarantine, the error ledger, ``run_report.json``, retry accounting —
    and overrides only the drain: instead of a local process pool, tasks
    are leased over TCP to the workers of a :class:`Fleet`.  A run borrows
    the open ``fleet`` it is given and leaves it open; without one, each
    run opens a private fleet of ``workers`` spawned loopback worker
    processes and/or external ``repro-experiments worker`` clients
    connecting to the ``serve`` address, and closes it when it ends.
    ``timeout_s`` / per-task deadlines become lease deadlines enforced by
    the coordinator's revocation table.
    """

    def __init__(self, *, fleet: Fleet | None = None, workers: int = 2,
                 serve: tuple[str, int] | None = None,
                 lease_batch: int = DEFAULT_LEASE_BATCH,
                 **pool_options: Any) -> None:
        super().__init__(**pool_options)
        if fleet is None:
            _check_shape(workers, serve, lease_batch)
        self.fleet = fleet
        self.workers = workers
        self.serve = serve
        self.lease_batch = lease_batch
        #: ``(host, port)`` actually bound, set once listening (tests and
        #: external workers need the ephemeral port).
        self.bound_address: tuple[str, int] | None = None
        #: Set while a run's fleet is accepting connections.
        self.serving = threading.Event()

    def _execute(self, pending: list[Task], loader: Callable[[Path], Any],
                 results: dict[str, Any], report: PoolReport,
                 ) -> dict[str, int]:
        fleet = self.fleet
        try:
            if fleet is None:
                fleet = Fleet(workers=self.workers, serve=self.serve,
                              lease_batch=self.lease_batch)
            self.bound_address = fleet.address
            self.serving.set()
            run = _FleetRun(fleet, self, pending, loader, results, report)
            fleet.drain(run)
            return run.attempts.abandoned
        finally:
            self.serving.clear()
            if fleet is not None and fleet is not self.fleet:
                fleet.close()


class Fleet:
    """A worker fleet with a lifetime of its own; runs borrow it in turn.

    Holds what outlives one run: the listener, the ``workers`` loopback
    worker processes it forks itself, one connection thread per worker
    (external ones connect to ``serve``), and the parking of lease
    requests nothing can fill yet.  One run at a time drains through
    :meth:`drain`; between runs every worker stays connected with its
    lease request parked, so the next run leases to warm workers.  A
    request is answered ``shutdown`` only once :meth:`close` is called,
    by whoever opened the fleet.
    """

    def __init__(self, *, workers: int = 2,
                 serve: tuple[str, int] | None = None,
                 lease_batch: int = DEFAULT_LEASE_BATCH) -> None:
        _check_shape(workers, serve, lease_batch)
        self.serve = serve
        self.lease_batch = lease_batch
        self.cond = threading.Condition()
        #: The run draining through the fleet right now, if any.
        self.run: _FleetRun | None = None
        self.connected: set[str] = set()
        #: Blob digests each connected worker holds: a worker keeps every
        #: blob it was sent for as long as its connection lives.
        self.worker_sent: dict[str, set[str]] = {}
        #: Lease generations, fleet-wide: a late result from an earlier
        #: run never matches a later run's lease of the same key.
        self.gens = itertools.count(1)
        self.closing = False
        self._procs: list[Any] = [None] * workers
        self.server = FrameServer(serve or ("127.0.0.1", 0),
                                  self._serve_worker, "worker")
        #: ``(host, port)`` actually bound (the port may be ephemeral).
        self.address: tuple[str, int] = self.server.address
        # Everything past the listener — including forking — runs under
        # the close guarantee: a Ctrl-C or crash anywhere below must
        # never orphan a spawned worker or leave the port open.
        try:
            # Fork the loopback workers BEFORE starting any thread: forking
            # a multi-threaded parent can deadlock the child on inherited
            # lock state.  The workers connect immediately and block in
            # the listen backlog until the server starts accepting.
            self._spawn_missing()
            self.server.start()
        except BaseException:
            self.close()
            raise

    def _spawn_missing(self) -> None:
        """Fork a loopback worker into every slot without a live one."""
        import multiprocessing

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # platforms without fork
            ctx = multiprocessing.get_context("spawn")
        for index, proc in enumerate(self._procs):
            if proc is not None and proc.is_alive():
                continue
            proc = ctx.Process(
                target=run_worker, args=self.address,
                kwargs={"worker_id": f"w{index + 1}",
                        "batch": self.lease_batch},
                daemon=True, name=f"repro-fleet-w{index + 1}")
            proc.start()
            self._procs[index] = proc

    def close(self) -> None:
        """Tear the fleet down without orphans (idempotent).

        Setting ``closing`` wakes every lease request parked on the
        condition, which is answered ``shutdown``, and closing the server
        wakes every connection thread blocked in ``recv``, which then
        closes its connection, so each worker exits on its own.
        Spawned loopback workers then get one short grace period
        *collectively*, and stragglers are escalated SIGTERM -> join ->
        SIGKILL — an interrupted coordinator (Ctrl-C mid-sweep) must
        never leave live children behind.
        """
        with self.cond:
            if self.closing:
                return
            self.closing = True
            self.cond.notify_all()
        self.server.close()
        procs = [proc for proc in self._procs if proc is not None]
        deadline = time.monotonic() + 0.5
        for proc in procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc in procs:
            if proc.is_alive():
                proc.terminate()  # SIGTERM: let multiprocessing clean up
        for proc in procs:
            if proc.is_alive():
                proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)

    # ------------------------------------------------------------------
    def drain(self, run: _FleetRun) -> None:
        """Lease ``run``'s tasks until none is outstanding.

        Loopback workers that died since the last run are replaced
        first, and every worker already connected is reported to the run
        through ``worker_joined``, so each run names the workers that
        serve it.  A run whose workers are all gone for good fails its
        remaining tasks.
        """
        if not self.closing:
            self._spawn_missing()
        with self.cond:
            if self.run is not None:
                raise ConfigError("a fleet drains one run at a time")
            self.run = run
            for count, worker in enumerate(sorted(self.connected), 1):
                run._joined(worker, count)
            self.cond.notify_all()  # hand the parked requests their leases
            try:
                while run.attempts.outstanding:
                    run._revoke_overdue()
                    if self._dead():
                        run._fail_remaining(
                            "every fleet worker is gone (no connections, "
                            "no live spawned workers)")
                        break
                    self.cond.wait(timeout=0.05)
            finally:
                self.run = None
        run._finish()

    def _dead(self) -> bool:
        """No worker will ever serve the active run again.

        Always so once the fleet closes; otherwise only decidable for a
        pure loopback fleet: with an explicit serve address, an external
        worker may still connect, so the run keeps waiting (the operator
        owns that fleet's lifecycle).
        """
        if self.closing:
            return True
        if self.connected or self.serve is not None:
            return False
        return all(not proc.is_alive() for proc in self._procs)

    # ------------------------------------------------------------------
    # connection handler (one thread per worker)
    # ------------------------------------------------------------------
    def _serve_worker(self, conn: socket.socket, hello: dict) -> None:
        worker = self._register(str(hello.get("worker") or "w-?"))
        message = hello
        try:
            while True:
                maxn = max(1, int(message.get("max") or self.lease_batch))
                with self.cond:
                    # A result that outlived its run matches no lease.
                    if self.run is not None:
                        self.run._ingest(worker,
                                         message.get("results") or [])
                    self.cond.notify_all()
                    reply = self._reply(worker, maxn)
                    while reply is None:  # parked: nothing to lease yet
                        self.cond.wait(timeout=self._park_s())
                        reply = self._reply(worker, maxn)
                send_frame(conn, reply)
                if reply["type"] == "shutdown":
                    with self.cond:
                        self._leave(worker)
                    return
                message = recv_frame(conn)
                if message is None:
                    raise ConnectionError("worker closed the connection")
        except Exception as error:  # noqa: BLE001 — classified as a loss
            with self.cond:
                self._leave(worker)
                if self.run is not None and not self.closing:
                    self.run._worker_lost(worker, error,
                                          len(self.connected))

    def _reply(self, worker: str, maxn: int) -> dict | None:
        """The reply to a lease request, or ``None`` to park it: while no
        run is active, or the active one has nothing ready (lock held)."""
        if self.run is None:
            return {"type": "shutdown"} if self.closing else None
        return self.run._grant(worker, maxn)

    def _park_s(self) -> float:
        if self.run is None:
            return DEFAULT_POLL_S
        return self.run._park_s()

    def _register(self, requested: str) -> str:
        with self.cond:
            worker = requested
            suffix = 2
            while worker in self.connected:
                worker = f"{requested}#{suffix}"
                suffix += 1
            self.connected.add(worker)
            self.worker_sent[worker] = set()
            if self.run is not None:
                self.run._joined(worker, len(self.connected))
            return worker

    def _leave(self, worker: str) -> None:
        """Forget a closed connection (lock held)."""
        self.connected.discard(worker)
        self.worker_sent.pop(worker, None)
        self.cond.notify_all()


def lease_spec(task: Task, gen: int, blob_table: dict[str, Any]) -> dict:
    """Encode ``task`` as lease generation ``gen`` for the wire.

    Heavy arguments are interned into ``blob_table`` (digest -> body), so
    the spec carries digests and each body ships to a worker only once.
    """
    path_str = str(task.path)
    args = intern_args(
        [encode_value(a, task_path=path_str) for a in task.args], blob_table)
    fallback = None
    if task.fallback_args is not None:
        fallback = intern_args(
            [encode_value(a, task_path=path_str) for a in task.fallback_args],
            blob_table)
    return {"key": task.key, "gen": gen, "fn": callable_ref(task.fn),
            "args": args, "fallback": fallback, "path": task.path.name}


class _FleetRun:
    """One run's lease table on a :class:`Fleet`.

    The leases, blob table and per-worker counters of one
    :meth:`TaskPool.run` — all that must not outlive it.  What becomes of
    each outcome (queue, retries, attempts, strikes, verdicts) is the
    run's :class:`~repro.runtime.engine._Attempts`, the same retry policy
    the local drain uses, with every record naming its worker.  Every
    method runs with the fleet's condition held.
    """

    def __init__(self, fleet: Fleet, pool: FleetScheduler,
                 pending: list[Task], loader: Callable[[Path], Any],
                 results: dict[str, Any], report: PoolReport) -> None:
        self.fleet = fleet
        self.p = pool
        self.report = report
        self.attempts = _Attempts(pool, pending, loader, results, report)
        self.leases: dict[str, _Lease] = {}
        self.blob_table: dict[str, Any] = {}
        self.worker_stats: dict[str, dict[str, int]] = {}

    # ------------------------------------------------------------------
    def _joined(self, worker: str, workers: int) -> None:
        self.worker_stats.setdefault(
            worker, {name: 0 for name in _WORKER_STATS})
        self.p.progress.worker_joined(worker, workers)

    def _finish(self) -> None:
        for worker in self.attempts.degraded.values():
            self.worker_stats[worker]["degraded"] += 1
        self.report.final_mode = "fleet"
        self.report.scheduler = "fleet"
        self.report.workers = {worker: dict(stats) for worker, stats
                               in sorted(self.worker_stats.items())}

    def _fail_remaining(self, reason: str) -> None:
        outstanding = self.attempts.outstanding
        for key in sorted(outstanding):
            self.attempts.abandon(outstanding[key], reason, INFRASTRUCTURE)

    def _worker_lost(self, worker: str, error: BaseException,
                     workers: int) -> None:
        """A connection died: requeue its leases without charging them."""
        stats = self.worker_stats.setdefault(
            worker, {name: 0 for name in _WORKER_STATS})
        for key, lease in sorted(self.leases.items()):
            if lease.worker != worker:
                continue
            del self.leases[key]
            stats["disconnects"] += 1
            self.attempts.lost(lease.task, f"worker lost: {error}",
                               worker=worker)
        self.p.progress.worker_left(worker, workers, f"{error}")

    # ------------------------------------------------------------------
    # lease granting
    # ------------------------------------------------------------------
    def _grant(self, worker: str, maxn: int) -> dict | None:
        """The reply to a lease request, or ``None`` while nothing is
        ready (the caller parks the request)."""
        if self.fleet.closing:  # a frame buffered at close earns no lease
            return {"type": "shutdown"}
        self.attempts.admit_due()
        specs: list[dict] = []
        while len(specs) < maxn:
            task = self.attempts.take()
            if task is None:
                break
            gen = next(self.fleet.gens)
            self.leases[task.key] = _Lease(worker, gen,
                                           self.attempts.deadline(task), task)
            specs.append(lease_spec(task, gen, self.blob_table))
        if not specs:
            return None
        sent = self.fleet.worker_sent.setdefault(worker, set())
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

    def _park_s(self) -> float:
        """Bound on one parked wait: the next retry's ready time, capped
        at :data:`DEFAULT_POLL_S`."""
        ready_at = self.attempts.next_due()
        if ready_at is None:
            return DEFAULT_POLL_S
        return max(0.0, min(DEFAULT_POLL_S, ready_at - self.p.clock()))

    # ------------------------------------------------------------------
    # result ingestion
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
            if entry.get("degraded"):
                self.attempts.degrade(
                    task, entry.get("degraded_error", "fast kernel failed"),
                    worker=worker)
            if entry.get("status") == "ok":
                self._publish(task, worker, entry.get("files") or {}, stats)
                continue
            stats["failures"] += 1
            classification = entry.get("error_class")
            if classification not in FAILURE_CLASSES:  # untrusted wire
                classification = TRANSIENT
            self.attempts.failed(task, str(entry.get("error", "worker error")),
                                 classification, worker=worker)

    def _publish(self, task: Task, worker: str, files: dict[str, str],
                 stats: dict[str, int]) -> None:
        """Publish a worker's shipped files, then load the result.

        A refused shipment is that worker's fault, not the point's: the
        point is requeued uncharged and the :class:`FrameError` closes
        the worker's connection, as any malformed frame from it does.  A
        coordinator-side fault (a full disk) is classified exactly like
        a worker's.
        """
        try:
            self._publish_files(task, files)
        except FrameError as error:
            stats["disconnects"] += 1
            self.attempts.lost(task, f"worker lost: {error}", worker=worker)
            raise
        except Exception as error:  # noqa: BLE001 — classified here
            self.attempts.failed(task, f"{error}", classify_failure(error),
                                 worker=worker)
            return
        if self.attempts.load(task, worker=worker):
            stats["tasks"] += 1

    def _publish_files(self, task: Task, files: dict[str, str]) -> None:
        """Atomically write the worker's shipped files into the store:
        the result and ``<result stem>.*`` side files beside it (a
        violations ledger), all names checked and all bodies decoded
        before any is written."""
        if task.path.name not in files:
            raise FrameError(
                f"worker shipped no result file {task.path.name!r}")
        own = f"{task.path.stem}."
        foreign = sorted(name for name in files if "/" in name or not (
            name == task.path.name or name.startswith(own)))
        if foreign:
            raise FrameError(f"task {task.key!r} may ship only its own "
                             f"files, got {foreign!r}")
        try:
            texts = {name: base64.b64decode(encoded).decode("utf-8")
                     for name, encoded in files.items()}
        except (TypeError, ValueError) as error:
            raise FrameError(f"task {task.key!r} shipped an undecodable "
                             f"file: {error}") from None
        for name, text in sorted(texts.items()):
            write_atomic(task.path.parent / name, text)

    # ------------------------------------------------------------------
    # lease watchdog (the draining thread)
    # ------------------------------------------------------------------
    def _revoke_overdue(self) -> None:
        """Revoke leases past their deadline and reassign the tasks.

        The local watchdog, coordinator-style: the overrunning worker is
        not killed (it may be another host), but its lease generation is
        invalidated — a late result is dropped as stale — and the task
        gets the same timeout verdict as a local one.
        """
        now = self.p.clock()
        for key, lease in sorted(self.leases.items()):
            if lease.deadline is None or lease.deadline > now:
                continue
            del self.leases[key]
            self.report.lease_revocations += 1
            self.worker_stats[lease.worker]["revoked"] += 1
            self.attempts.timed_out(
                lease.task, f"lease revoked from {lease.worker}",
                worker=lease.worker)
            self.fleet.cond.notify_all()  # re-bound parked waits, end the run

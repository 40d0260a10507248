"""The characterization service: a TCP job API over wire frames.

``repro-experiments serve-api`` runs one of these.  The endpoint speaks
the same length-prefixed JSON frame protocol as the fleet coordinator
(:mod:`repro.runtime.wire` — no pickles, a protocol-versioned ``hello``
opens every connection), on the same
:class:`~repro.runtime.wire.FrameServer`, and exposes five verbs:

``submit``
    ``{"type": "submit", "spec": {...}}`` — dedup-or-create the job
    (id = content digest of the spec) and enqueue it if it still needs
    work.  An identical resubmission returns the same job id and
    recomputes nothing.
``status``
    One job's record: state, timestamps, transition history, error.
``stream``
    Tail the job's ``events.jsonl`` and re-emit every progress event as
    a frame until the job reaches a terminal state (``end`` frame).
``results``
    The persisted result files, base64-encoded by name — byte-identical
    to what a batch CLI run of the same config writes.
``figure``
    Render a figure on demand from the persisted rows (no re-runs).

Jobs execute **sequentially** in one runner thread (queue fairness:
first submitted, first run), each fanning out through the scheduler seam
(local pool or worker fleet) per the service's
:class:`~repro.runtime.scheduler.RunOptions`.  A
fleet-backed service opens its fleet once, at start and before any
thread exists, and every job borrows it: the loopback workers (and any
external ``repro-experiments worker``) stay connected between jobs until
the runner stops, which closes the fleet.  On startup, jobs a previous
service process left ``queued`` or orphaned in ``running`` are
re-enqueued and resume from their persisted results; an unreadable job
record is set aside (``job.json.corrupt``) instead of refusing to start.

Trust model: the service *decodes client payloads*, the inverse of the
fleet's worker-trusts-coordinator direction — job specs therefore only
instantiate allow-listed config dataclasses
(:mod:`repro.service.jobs`), and job ids are validated before touching
the filesystem.  An ``admin: stop`` verb shuts the service down; bind to
loopback unless every reachable client is trusted.
"""

from __future__ import annotations

import base64
import json
import socket
import sys
import threading
from collections import deque
from pathlib import Path

from repro.errors import ConfigError, ReproError
from repro.runtime.persist import quarantine
from repro.runtime.scheduler import RunOptions, open_fleet, parse_address
from repro.runtime.wire import (
    PROTOCOL_VERSION,
    FrameServer,
    recv_frame,
    send_frame,
)
from repro.service.jobs import DONE, FAILED, JobRecord, JobSpec
from repro.service.manager import JobManager

__all__ = ["CharacterizationService", "SERVICE_NAME"]

#: Advertised in the hello frame so clients can tell a service apart
#: from a fleet coordinator listening on the same kind of socket.
SERVICE_NAME = "repro-characterization-service"

#: How often a stream forwards a running job's new progress events.  A
#: stream never waits this long for its job's end: the runner wakes every
#: stream when a job finishes.
DEFAULT_STREAM_POLL_S = 0.05


def _job_frame(record: JobRecord, **extra) -> dict:
    frame = {"type": "job", "job_id": record.job_id, "kind": record.kind,
             "state": record.state, "error": record.error,
             "created_at": record.created_at,
             "updated_at": record.updated_at,
             "history": record.history}
    frame.update(extra)
    return frame


class CharacterizationService:
    """One serve-api process: job queue, runner thread, frame server."""

    def __init__(self, store_root: str | Path, *,
                 serve: str | tuple[str, int] = ("127.0.0.1", 0),
                 options: RunOptions | None = None,
                 poll_s: float = DEFAULT_STREAM_POLL_S) -> None:
        if isinstance(serve, str):
            serve = parse_address(serve)
        self.manager = JobManager(store_root, options=options)
        self.serve = serve
        self.poll_s = poll_s
        self.bound_address: tuple[str, int] | None = None
        self._queue: deque[str] = deque()
        self._queued: set[str] = set()
        self._cond = threading.Condition()
        #: Jobs the runner has finished, done or failed (under ``_cond``).
        self._finished_runs = 0
        self._stop = threading.Event()
        self.server: FrameServer | None = None
        self._runner: threading.Thread | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Open the fleet (if the options select one), bind, recover the
        queue from the store, start serving.

        The fleet opens first: forking its loopback workers is safest
        before this service starts any thread.
        """
        options = self.manager.options
        if options.scheduler == "fleet":
            self.manager.fleet = open_fleet(options)
        try:
            self.server = FrameServer(self.serve, self._serve_conn,
                                      "client")
            self.bound_address = self.server.address
            self._recover_queue()
            self._runner = threading.Thread(target=self._run_loop,
                                            daemon=True,
                                            name="service-runner")
            self._runner.start()
        except BaseException:
            self._close_fleet()
            raise
        self.server.start()
        return self.bound_address

    def _recover_queue(self) -> None:
        """Re-enqueue jobs a previous service process never finished.

        A job found ``running`` with no live runner is an orphan of a
        crash; :meth:`JobManager.run` normalizes it back through
        ``queued`` and its resume contract recomputes only what is
        missing on disk.  A record that cannot be read (power loss can
        leave ``job.json`` empty) is moved aside as ``job.json.corrupt``
        and named on stderr; resubmitting its spec makes a fresh record,
        which resumes from the results on disk.
        """
        store = self.manager.store
        for job_id in store.list_ids():
            try:
                record = store.load(job_id)
            except ConfigError as error:
                moved = quarantine(store.record_path(job_id))
                print(f"serve-api: set aside {moved}: {error}",
                      file=sys.stderr)
                continue
            if record.state in (DONE, FAILED):
                continue
            self._enqueue(record)

    def stop(self, *, wait: bool = True) -> None:
        """Shut the service down (idempotent).

        The runner closes the fleet once its current job ends.
        ``wait=False`` is the in-connection-handler form: it returns
        without waiting for the runner to finish its current job.
        """
        self._stop.set()
        with self._cond:
            self._cond.notify_all()
        if self.server is not None:
            self.server.close()
        if wait and self._runner is not None:
            self._runner.join(timeout=10.0)

    def serve_forever(self) -> None:
        """Block until stopped (Ctrl-C or a ``stop`` verb)."""
        if self.bound_address is None:
            self.start()
        try:
            while not self._stop.wait(timeout=0.5):
                pass
        except KeyboardInterrupt:
            pass
        self.stop()

    # ------------------------------------------------------------------
    # job queue (FIFO fairness)
    # ------------------------------------------------------------------
    def _enqueue(self, record: JobRecord) -> int | None:
        """Queue a job that still needs work; returns its position."""
        if record.state == DONE:
            return None
        with self._cond:
            if record.job_id in self._queued:
                return self._queue.index(record.job_id)
            if self.manager.is_active(record.job_id):
                return None  # mid-run right now
            self._queue.append(record.job_id)
            self._queued.add(record.job_id)
            position = len(self._queue) - 1
            self._cond.notify_all()
            return position

    def _run_loop(self) -> None:
        try:
            while True:
                with self._cond:
                    while not self._queue and not self._stop.is_set():
                        self._cond.wait(timeout=0.2)
                    if self._stop.is_set():
                        return
                    job_id = self._queue.popleft()
                    self._queued.discard(job_id)
                try:
                    self.manager.run(job_id)
                except Exception:  # noqa: BLE001 — recorded as failed
                    pass
                finally:
                    with self._cond:
                        self._finished_runs += 1
                        self._cond.notify_all()
        finally:
            self._close_fleet()

    def _close_fleet(self) -> None:
        if self.manager.fleet is not None:
            self.manager.fleet.close()

    # ------------------------------------------------------------------
    # connection handler (one thread per client)
    # ------------------------------------------------------------------
    def _serve_conn(self, conn: socket.socket, hello: dict) -> None:
        send_frame(conn, {"type": "hello", "protocol": PROTOCOL_VERSION,
                          "service": SERVICE_NAME})
        while True:
            message = recv_frame(conn)
            if message is None:
                return
            verb = message.get("type")
            if verb == "stream":
                self._stream(conn, message)
                continue
            try:
                reply = self._dispatch(verb, message)
            except ReproError as error:
                reply = {"type": "error", "error": f"{error}"}
            send_frame(conn, reply)
            if verb == "stop" and reply.get("type") == "ok":
                self.stop(wait=False)
                return

    def _dispatch(self, verb: str | None, message: dict) -> dict:
        if verb == "submit":
            spec = JobSpec.decode(message.get("spec"))
            record, created = self.manager.submit(spec)
            position = self._enqueue(record)
            return _job_frame(record, deduped=not created,
                              position=position)
        if verb == "status":
            return _job_frame(self.manager.status(message.get("job_id")))
        if verb == "results":
            files = self.manager.result_files(message.get("job_id"))
            return {"type": "results", "job_id": message.get("job_id"),
                    "files": {name: base64.b64encode(data).decode("ascii")
                              for name, data in files.items()}}
        if verb == "figure":
            text = self.manager.figure(message.get("job_id"),
                                       str(message.get("name")))
            return {"type": "figure", "job_id": message.get("job_id"),
                    "name": message.get("name"), "text": text}
        if verb == "stop":
            return {"type": "ok"}
        raise ReproError(
            f"unknown verb {verb!r}; this service speaks "
            f"submit/status/stream/results/figure/stop")

    # ------------------------------------------------------------------
    # streaming
    # ------------------------------------------------------------------
    def _stream(self, conn: socket.socket, message: dict) -> None:
        """Tail one job's event log and re-emit it as frames.

        State is snapshotted *before* each read: the manager closes the
        event log before flipping the record to a terminal state, so a
        terminal snapshot guarantees the following read drains the file.
        Between reads the handler waits until the runner finishes a job,
        the service stops, or ``poll_s`` passes (to forward a running
        job's progress): the finished-runs count is read before the
        snapshot, so a job that ends after it is never waited out.
        """
        try:
            job_id = message.get("job_id")
            record = self.manager.store.load(job_id)
        except ReproError as error:
            send_frame(conn, {"type": "error", "error": f"{error}"})
            return
        path = self.manager.store.events_path(job_id)
        offset = 0
        while True:
            with self._cond:
                finished = self._finished_runs
            record = self.manager.store.load(job_id)
            state = record.state
            offset = self._emit_new_events(conn, path, offset)
            if state in (DONE, FAILED):
                send_frame(conn, {"type": "end", "job_id": job_id,
                                  "state": state, "error": record.error})
                return
            if self._stop.is_set():
                send_frame(conn, {"type": "end", "job_id": job_id,
                                  "state": state,
                                  "error": "service stopping"})
                return
            with self._cond:
                self._cond.wait_for(
                    lambda: (self._finished_runs != finished
                             or self._stop.is_set()),
                    timeout=self.poll_s)

    def _emit_new_events(self, conn: socket.socket, path: Path,
                         offset: int) -> int:
        """Send every complete new line past ``offset``; returns the new
        offset.  A rerun truncates the log, so a shrunken file resets the
        cursor instead of reading past EOF forever."""
        if not path.exists():
            return offset
        try:
            size = path.stat().st_size
            if size < offset:
                offset = 0
            with path.open("rb") as handle:
                handle.seek(offset)
                chunk = handle.read()
        except OSError:
            return offset
        consumed = chunk.rfind(b"\n")
        if consumed < 0:
            return offset
        for line in chunk[:consumed].splitlines():
            text = line.decode("utf-8", errors="replace").strip()
            if not text:
                continue
            try:
                event = json.loads(text)
            except ValueError:
                continue
            send_frame(conn, {"type": "event", "data": event})
        return offset + consumed + 1

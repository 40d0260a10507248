"""Client of the characterization service (the ``job`` CLI verbs).

One :class:`ServiceClient` holds one framed TCP connection to a
``repro-experiments serve-api`` endpoint: a protocol-versioned hello on
connect (with bounded, backing-off connect retry — a service that never
comes up is a clear error, not a hang), then request/reply frames for
``submit``/``status``/``results``/``figure`` and a tailing loop for
``stream``.  Error frames surface as :class:`~repro.errors.ConfigError`.
"""

from __future__ import annotations

import base64
import socket
from pathlib import Path
from typing import Callable

from repro.errors import ConfigError
from repro.runtime.scheduler import parse_address
from repro.runtime.wire import (
    PROTOCOL_VERSION,
    connect_with_retry,
    recv_frame,
    send_frame,
)
from repro.service.jobs import JobSpec

__all__ = ["ServiceClient"]


class ServiceClient:
    """One framed connection to a characterization service."""

    def __init__(self, address: str | tuple[str, int], *,
                 connect_timeout_s: float = 10.0) -> None:
        if isinstance(address, str):
            address = parse_address(address)
        host, port = self.address = address
        self.sock: socket.socket | None = connect_with_retry(
            host, port, timeout_s=connect_timeout_s)
        try:
            reply = self._roundtrip({"type": "hello",
                                     "protocol": PROTOCOL_VERSION})
        except ConfigError:
            self.close()
            raise
        if reply.get("type") != "hello" \
                or reply.get("protocol") != PROTOCOL_VERSION:
            self.close()
            raise ConfigError(
                f"{host}:{port} did not answer a service hello "
                f"(got {reply.get('type')!r}); is that a serve-api "
                f"endpoint?")
        self.service = reply.get("service")

    # ------------------------------------------------------------------
    def close(self) -> None:
        sock, self.sock = self.sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _roundtrip(self, message: dict) -> dict:
        if self.sock is None:
            raise ConfigError("service connection is closed")
        try:
            send_frame(self.sock, message)
            reply = recv_frame(self.sock)
        except (ConnectionError, OSError) as error:
            raise ConfigError(
                f"service at {self.address[0]}:{self.address[1]} went "
                f"away: {error}") from error
        if reply is None:
            raise ConfigError(
                f"service at {self.address[0]}:{self.address[1]} closed "
                f"the connection")
        if reply.get("type") == "error":
            raise ConfigError(f"service error: {reply.get('error')}")
        return reply

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> dict:
        """Submit a job; returns the job frame (``job_id``, ``state``,
        ``deduped``, queue ``position``)."""
        return self._roundtrip({"type": "submit",
                                "spec": spec.encoded()})

    def status(self, job_id: str) -> dict:
        return self._roundtrip({"type": "status", "job_id": job_id})

    def stream(self, job_id: str,
               on_event: Callable[[dict], None] | None = None) -> dict:
        """Follow a job's progress events until it reaches a terminal
        state; returns the ``end`` frame (``state``, ``error``)."""
        if self.sock is None:
            raise ConfigError("service connection is closed")
        try:
            send_frame(self.sock, {"type": "stream", "job_id": job_id})
            while True:
                frame = recv_frame(self.sock)
                if frame is None:
                    raise ConfigError(
                        "service closed the connection mid-stream")
                kind = frame.get("type")
                if kind == "error":
                    raise ConfigError(f"service error: {frame.get('error')}")
                if kind == "end":
                    return frame
                if kind == "event" and on_event is not None:
                    on_event(frame.get("data") or {})
        except (ConnectionError, OSError) as error:
            raise ConfigError(
                f"service at {self.address[0]}:{self.address[1]} went "
                f"away mid-stream: {error}") from error

    def results(self, job_id: str) -> dict[str, bytes]:
        """The job's persisted result files, decoded to bytes by name."""
        reply = self._roundtrip({"type": "results", "job_id": job_id})
        return {name: base64.b64decode(encoded)
                for name, encoded in sorted(
                    (reply.get("files") or {}).items())}

    def fetch(self, job_id: str, dest: str | Path) -> list[Path]:
        """Write the job's result files under ``dest``; returns paths."""
        dest = Path(dest)
        dest.mkdir(parents=True, exist_ok=True)
        written = []
        for name, data in self.results(job_id).items():
            if "/" in name or "\\" in name or name.startswith("."):
                raise ConfigError(f"illegal result file name {name!r}")
            path = dest / name
            path.write_bytes(data)
            written.append(path)
        return written

    def figure(self, job_id: str, name: str) -> str:
        """Render one figure from the job's cached rows, server-side."""
        reply = self._roundtrip({"type": "figure", "job_id": job_id,
                                 "name": name})
        return str(reply.get("text"))

    def stop_service(self) -> None:
        """Ask the service to shut down (the admin verb)."""
        self._roundtrip({"type": "stop"})

"""Wire format of the distributed scheduler: frames, codec, blobs, server.

The fleet backend (:mod:`repro.runtime.distributed`) moves three kinds of
payload between a coordinator and its workers, and every byte crosses a
TCP socket — so the format is built for amortization, not generality:

* **Frames** — length-prefixed JSON.  Each frame is a 5-byte header
  (``!BI``: flags, payload length) followed by the payload; payloads at or
  above :data:`COMPRESS_MIN` are zlib-compressed (flag bit
  :data:`FLAG_ZLIB`).  JSON rather than pickle keeps the protocol
  inspectable and version-checkable, and means a malicious *frame* can at
  worst produce garbage data, not code execution.

* **Values** — a small tagged codec for the argument shapes task payloads
  actually contain: JSON scalars pass through, tuples and dataclasses are
  tagged (``{"__t": [...]}`` / ``{"__dc": "module:qualname", ...}``) and
  rebuilt on the far side, and the one string equal to the task's result
  path is replaced by a sentinel the worker resolves to its *own* scratch
  path — result files travel back through the protocol, never through a
  shared filesystem.

* **Blobs** — content-addressed interning of heavy arguments.  A campaign
  ships the same :class:`~repro.characterization.campaign.CampaignConfig`
  with every task; instead of re-serializing it per task, any encoded
  argument above :data:`BLOB_MIN` bytes is replaced by the 16-hex digest of
  its canonical encoding, and the body ships at most once per worker
  (the coordinator tracks which digests each worker has already seen).
  Warm workers therefore receive digest-sized task payloads — the
  measured reason fleet leases beat pickled-task payloads in
  ``bench_parallel_scaling``.

* **Server** — all three arrive through :class:`FrameServer`, the one
  listener behind both frame endpoints (the fleet coordinator and
  ``serve-api``, :mod:`repro.service.api`): it accepts, checks the
  versioned ``hello``, hands each connection to its endpoint's handler on
  its own thread, and owns the close path that wakes every blocked reader.

Trust model: resolving ``fn`` references (:func:`resolve_callable`) imports
and calls coordinator-chosen module-level callables, so a worker extends
the same trust to its coordinator that running the CLI extends to this
codebase.  Only connect ``repro-experiments worker`` to a coordinator you
control — the loopback fleet the CLI spawns itself always satisfies this.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import socket
import struct
import threading
import time
import zlib
from pathlib import Path
from typing import Any, Callable

from repro.errors import ConfigError

__all__ = [
    "COMPRESS_MIN",
    "BLOB_MIN",
    "PROTOCOL_VERSION",
    "FrameError",
    "FrameServer",
    "connect_with_retry",
    "nodelay",
    "send_frame",
    "recv_frame",
    "encode_value",
    "decode_value",
    "canonical_blob",
    "blob_digest",
    "callable_ref",
    "resolve_callable",
]

#: Protocol version carried in every ``hello``; a mismatch is a hard error
#: (a half-upgraded fleet must fail loudly, not deadlock on frame shapes).
PROTOCOL_VERSION = 1

#: Frame payloads at or above this many bytes are zlib-compressed.
COMPRESS_MIN = 2048

#: Encoded arguments at or above this many bytes are interned as blobs.
BLOB_MIN = 96

#: Refuse frames claiming more than this, and compressed frames that
#: inflate past it (a corrupt length prefix or a zlib bomb must not make
#: the receiver allocate gigabytes).
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: The cap on a connection's first frame, read before its ``hello`` is
#: checked: any peer may send it.  Worker and client hellos are a few
#: hundred bytes at most.
MAX_HELLO_BYTES = 64 * 1024

_HEADER = struct.Struct("!BI")
_FLAG_ZLIB = 0x01

#: Tag keys of the value codec.  Deliberately un-JSON-like so real payload
#: dicts (statistics, configs) can never collide with them.
_TAG_TUPLE = "__t"
_TAG_DATACLASS = "__dc"
_TAG_PATH = "__p"
_TAG_TASK_PATH = "__task_path"
_TAG_BLOB = "__blob"
_TAGS = frozenset({_TAG_TUPLE, _TAG_DATACLASS, _TAG_PATH, _TAG_TASK_PATH,
                   _TAG_BLOB})


class FrameError(ConfigError):
    """A frame violated the protocol (bad length, bad JSON, bad shape)."""


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------
def nodelay(sock: socket.socket) -> socket.socket:
    """Turn off Nagle's algorithm on a frame socket; returns ``sock``.

    Frames are small and often sent back to back (a stream's last event
    and its end frame).  With Nagle on, the second one waits for the
    peer's delayed ACK, which costs tens of milliseconds per exchange.
    Both ends of every frame connection set it.
    """
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def connect_with_retry(host: str, port: int, *, timeout_s: float = 10.0,
                       base_delay_s: float = 0.05,
                       max_delay_s: float = 1.0,
                       sleep=time.sleep,
                       clock=time.monotonic) -> socket.socket:
    """Connect to ``host:port``, retrying with exponential backoff.

    Workers and service clients often start before the coordinator or
    ``serve-api`` endpoint has bound its socket; a single connect attempt
    turns that ordering race into a hard failure (or, with a long socket
    timeout, an opaque hang).  This retries refused/unreachable connects
    with doubling delays (``base_delay_s`` up to ``max_delay_s``) until
    ``timeout_s`` has elapsed, then raises a :class:`ConfigError` naming
    the address, the budget, and the last underlying error — never an
    indefinite hang.  The returned socket is in blocking mode, with
    :func:`nodelay` set.  An all-interfaces host (``""`` or ``"0.0.0.0"``,
    as ``--connect :7045`` parses) means this host.
    """
    if timeout_s <= 0:
        raise ConfigError(f"timeout_s must be positive, got {timeout_s}")
    if host in ("", "0.0.0.0"):
        host = "127.0.0.1"
    deadline = clock() + timeout_s
    attempt = 0
    last_error: OSError | None = None
    while True:
        remaining = deadline - clock()
        if remaining <= 0:
            break
        attempt += 1
        try:
            sock = socket.create_connection((host, port),
                                            timeout=max(remaining, 0.01))
            sock.settimeout(None)
            return nodelay(sock)
        except OSError as error:
            last_error = error
        remaining = deadline - clock()
        if remaining <= 0:
            break
        delay = min(base_delay_s * (2 ** (attempt - 1)), max_delay_s,
                    remaining)
        sleep(delay)
    raise ConfigError(
        f"could not connect to {host}:{port} within {timeout_s:g}s "
        f"({attempt} attempt(s); last error: {last_error})")


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------
def send_frame(sock: socket.socket, message: dict) -> int:
    """Serialize and send one message; returns the bytes put on the wire."""
    blob = json.dumps(message, separators=(",", ":")).encode("utf-8")
    flags = 0
    if len(blob) >= COMPRESS_MIN:
        compressed = zlib.compress(blob, 6)
        if len(compressed) < len(blob):
            blob, flags = compressed, _FLAG_ZLIB
    frame = _HEADER.pack(flags, len(blob)) + blob
    sock.sendall(frame)
    return len(frame)


def recv_frame(sock: socket.socket, *,
               max_bytes: int = MAX_FRAME_BYTES) -> dict | None:
    """Receive one message; ``None`` on clean EOF at a frame boundary.

    A frame that claims more than ``max_bytes``, or inflates past it, is a
    :class:`FrameError`.
    """
    header = _recv_exact(sock, _HEADER.size, eof_ok=True)
    if header is None:
        return None
    flags, length = _HEADER.unpack(header)
    if length > max_bytes:
        raise FrameError(f"frame claims {length} bytes "
                         f"(cap {max_bytes}); corrupt length prefix?")
    blob = _recv_exact(sock, length, eof_ok=False)
    if flags & _FLAG_ZLIB:
        inflater = zlib.decompressobj()
        try:
            blob = inflater.decompress(blob, max_bytes)
        except zlib.error as error:
            raise FrameError(f"bad compressed frame: {error}") from error
        if not inflater.eof:  # input left over, or a stream cut short
            raise FrameError(f"compressed frame is truncated or inflates "
                             f"past {max_bytes} bytes")
    try:
        message = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as error:
        raise FrameError(f"frame is not valid JSON: {error}") from error
    if not isinstance(message, dict):
        raise FrameError(f"frame must be an object, got {type(message).__name__}")
    return message


def _recv_exact(sock: socket.socket, count: int,
                *, eof_ok: bool) -> bytes | None:
    """Read exactly ``count`` bytes (``None`` on immediate EOF if allowed)."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if eof_ok and remaining == count:
                return None
            raise ConnectionError(
                f"connection closed mid-frame ({count - remaining}/{count} "
                f"bytes received)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ---------------------------------------------------------------------------
# server
# ---------------------------------------------------------------------------
class FrameServer:
    """A frame endpoint: one listener, one thread per connection.

    Binds ``address`` at construction but accepts only after
    :meth:`start`, so the caller may still fork (the fleet coordinator
    spawns its loopback workers) before any thread exists.  Every
    accepted connection gets :func:`nodelay` and must open with a
    ``hello`` of this :data:`PROTOCOL_VERSION`: another version is
    answered with an error frame telling the ``peer`` to upgrade, and a
    first frame that is not a hello (or not a frame, or larger than
    :data:`MAX_HELLO_BYTES`) is closed without a reply.  A good hello
    goes to ``handler(conn, hello)`` on the connection's thread; the
    connection is closed when the handler returns, and a dropped peer
    never takes the endpoint down.
    """

    def __init__(self, address: tuple[str, int],
                 handler: Callable[[socket.socket, dict], None],
                 peer: str) -> None:
        self._listener = socket.create_server(address)
        #: ``(host, port)`` actually bound (the port may be ephemeral).
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._handler = handler
        self._peer = peer
        self._lock = threading.Lock()
        self._conns: set[socket.socket] = set()
        self._closed = False
        self._acceptor = threading.Thread(target=self._accept_loop,
                                          daemon=True, name=f"{peer}-accept")

    def start(self) -> None:
        """Start accepting; connections wait in the backlog until then."""
        self._acceptor.start()

    def close(self) -> None:
        """Stop accepting and wake every blocked reader (idempotent).

        The listener is shut down before it is closed: on Linux,
        ``close()`` alone neither wakes a thread blocked in ``accept()``
        nor stops the port accepting.  Live connections lose only their
        read side, so a handler parked in :func:`recv_frame` sees EOF
        while one still replying can send its last frame; each
        connection's own thread closes it when its handler returns.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            conns = list(self._conns)
        for sock, how in [(self._listener, socket.SHUT_RDWR),
                          *((conn, socket.SHUT_RD) for conn in conns)]:
            try:
                sock.shutdown(how)
            except OSError:
                pass
        self._listener.close()
        if self._acceptor.is_alive():
            self._acceptor.join(timeout=10.0)

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener shut down: the server is closing
            with self._lock:
                if self._closed:
                    conn.close()
                    return
                self._conns.add(conn)
            threading.Thread(target=self._serve, args=(conn,), daemon=True,
                             name=f"{self._peer}-conn").start()

    def _serve(self, conn: socket.socket) -> None:
        try:
            nodelay(conn)
            hello = recv_frame(conn, max_bytes=MAX_HELLO_BYTES)
            if hello is None or hello.get("type") != "hello":
                return
            if hello.get("protocol") != PROTOCOL_VERSION:
                send_frame(conn, {
                    "type": "error",
                    "error": f"protocol {hello.get('protocol')!r} != "
                             f"{PROTOCOL_VERSION} (upgrade the {self._peer})"})
                return
            self._handler(conn, hello)
        except (OSError, FrameError):
            pass  # a dropped or garbled peer never takes the endpoint down
        finally:
            with self._lock:
                self._conns.discard(conn)
            conn.close()


# ---------------------------------------------------------------------------
# value codec
# ---------------------------------------------------------------------------
def callable_ref(fn: Any) -> str:
    """``module:qualname`` reference of a module-level callable."""
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<locals>" in qualname:
        raise ConfigError(
            f"fleet tasks need module-level callables (got {fn!r}); "
            f"closures and lambdas cannot be named across hosts")
    return f"{module}:{qualname}"


def resolve_callable(ref: str) -> Any:
    """Import and return the callable a :func:`callable_ref` names."""
    module_name, _, qualname = ref.partition(":")
    if not module_name or not qualname:
        raise ConfigError(f"malformed callable reference {ref!r}")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise ConfigError(f"{ref!r} resolved to a non-callable {obj!r}")
    return obj


def encode_value(value: Any, *, task_path: str | None = None) -> Any:
    """Value -> JSON-safe tagged payload.

    ``task_path`` is the coordinator-side result path; string arguments
    equal to it become the task-path sentinel so the worker can substitute
    its own scratch location (result bytes travel back over the wire).
    """
    if value is None or isinstance(value, (bool, int, float)):
        return value
    if isinstance(value, str):
        if task_path is not None and value == task_path:
            return {_TAG_TASK_PATH: True}
        return value
    if isinstance(value, tuple):
        return {_TAG_TUPLE: [encode_value(v, task_path=task_path)
                             for v in value]}
    if isinstance(value, list):
        return [encode_value(v, task_path=task_path) for v in value]
    if isinstance(value, Path):
        return {_TAG_PATH: str(value)}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        fields = {f.name: encode_value(getattr(value, f.name),
                                       task_path=task_path)
                  for f in dataclasses.fields(cls) if f.init}
        return {_TAG_DATACLASS: f"{cls.__module__}:{cls.__qualname__}",
                "fields": fields}
    if isinstance(value, dict):
        encoded = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise ConfigError(
                    f"fleet task arguments need string dict keys, "
                    f"got {key!r}")
            if key in _TAGS:
                raise ConfigError(
                    f"dict key {key!r} collides with a wire-codec tag")
            encoded[key] = encode_value(item, task_path=task_path)
        return encoded
    raise ConfigError(
        f"cannot ship {type(value).__name__!r} over the fleet wire; "
        f"task arguments must be JSON scalars, lists, tuples, string-keyed "
        f"dicts, paths, or dataclasses of those")


def decode_value(payload: Any, *, task_path: str | None = None,
                 blobs: dict[str, Any] | None = None) -> Any:
    """Tagged payload -> value (inverse of :func:`encode_value`).

    ``blobs`` maps digests to encoded bodies for :data:`_TAG_BLOB`
    references; ``task_path`` resolves the task-path sentinel.
    """
    if isinstance(payload, list):
        return [decode_value(v, task_path=task_path, blobs=blobs)
                for v in payload]
    if not isinstance(payload, dict):
        return payload
    if _TAG_BLOB in payload:
        digest = payload[_TAG_BLOB]
        if blobs is None or digest not in blobs:
            raise ConfigError(
                f"lease references unknown blob {digest!r}; coordinator "
                f"and worker blob tables are out of sync")
        return decode_value(blobs[digest], task_path=task_path, blobs=blobs)
    if _TAG_TASK_PATH in payload:
        if task_path is None:
            raise ConfigError("task-path sentinel outside a task context")
        return task_path
    if _TAG_TUPLE in payload:
        return tuple(decode_value(v, task_path=task_path, blobs=blobs)
                     for v in payload[_TAG_TUPLE])
    if _TAG_PATH in payload:
        return Path(payload[_TAG_PATH])
    if _TAG_DATACLASS in payload:
        cls = resolve_callable(payload[_TAG_DATACLASS])
        if not dataclasses.is_dataclass(cls):
            raise ConfigError(
                f"{payload[_TAG_DATACLASS]!r} is not a dataclass")
        fields = {name: decode_value(v, task_path=task_path, blobs=blobs)
                  for name, v in payload["fields"].items()}
        return cls(**fields)
    return {key: decode_value(v, task_path=task_path, blobs=blobs)
            for key, v in payload.items()}


# ---------------------------------------------------------------------------
# blob interning
# ---------------------------------------------------------------------------
def canonical_blob(encoded: Any) -> str:
    """Canonical serialization of an encoded value (digest input)."""
    return json.dumps(encoded, sort_keys=True, separators=(",", ":"))


def blob_digest(canonical: str) -> str:
    """Content digest a blob is addressed by (16 hex chars)."""
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def intern_args(encoded_args: list[Any],
                table: dict[str, Any]) -> list[Any]:
    """Replace heavy encoded arguments with blob references.

    Arguments whose canonical encoding reaches :data:`BLOB_MIN` bytes are
    stored in ``table`` under their content digest and replaced by a
    ``{"__blob": digest}`` reference.  Scalars and small payloads ship
    inline — a digest would not be smaller.
    """
    interned: list[Any] = []
    for encoded in encoded_args:
        if isinstance(encoded, (dict, list)):
            canonical = canonical_blob(encoded)
            if len(canonical) >= BLOB_MIN:
                digest = blob_digest(canonical)
                table.setdefault(digest, encoded)
                interned.append({_TAG_BLOB: digest})
                continue
        interned.append(encoded)
    return interned


def referenced_blobs(payload: Any) -> set[str]:
    """Every blob digest a (nested) wire payload references."""
    found: set[str] = set()
    if isinstance(payload, dict):
        digest = payload.get(_TAG_BLOB)
        if isinstance(digest, str):
            found.add(digest)
        for item in payload.values():
            found |= referenced_blobs(item)
    elif isinstance(payload, list):
        for item in payload:
            found |= referenced_blobs(item)
    return found

"""The one handshake of both frame endpoints: fleet coordinator and service.

Both serve on :class:`repro.runtime.wire.FrameServer`, so each hostile
opening runs against each endpoint, and after every case the endpoint
must still serve a good peer: the fleet run finishes with the right
results, and a service client connects.
"""

import json
import socket
import struct
import threading

import pytest

from repro.runtime import Task, make_scheduler
from repro.runtime.distributed import echo_point, run_worker
from repro.runtime.wire import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    recv_frame,
    send_frame,
)
from repro.service import RunOptions
from repro.service.api import SERVICE_NAME, CharacterizationService
from repro.service.client import ServiceClient


def _load_echo(path):
    return json.loads(path.read_text())["echo"]


@pytest.fixture(params=["worker", "client"])
def endpoint(request, tmp_path):
    """``(address, peer, still_serves)`` of a serving endpoint whose
    connections come from ``peer``s; ``still_serves()`` asserts a good
    peer is served."""
    if request.param == "client":
        service = CharacterizationService(tmp_path / "jobs",
                                          options=RunOptions(jobs=1))
        service.start()

        def still_serves():
            with ServiceClient(service.bound_address,
                               connect_timeout_s=5.0) as client:
                assert client.service == SERVICE_NAME

        yield service.bound_address, "client", still_serves
        service.stop()
        return

    pool = make_scheduler("fleet", workers=0, serve="127.0.0.1:0")
    tasks = [Task(key=f"p{n}", path=tmp_path / f"p{n}.json", fn=echo_point,
                  args=(n, str(tmp_path / f"p{n}.json")))
             for n in range(3)]
    results = {}
    coordinator = threading.Thread(
        target=lambda: results.update(pool.run(tasks, loader=_load_echo)),
        daemon=True)
    coordinator.start()
    assert pool.serving.wait(timeout=10.0)

    def still_serves():
        assert run_worker(*pool.bound_address,
                          scratch_dir=tmp_path / "scratch") == 0
        coordinator.join(timeout=30.0)
        assert results == {f"p{n}": n * n + 1 for n in range(3)}

    yield pool.bound_address, "worker", still_serves
    if coordinator.is_alive():  # a failed case never drained the run
        run_worker(*pool.bound_address, connect_timeout_s=5.0)
        coordinator.join(timeout=30.0)


def _open_with(sock, case):
    if case == "wrong-protocol":
        send_frame(sock, {"type": "hello", "protocol": 999})
    elif case == "not-a-hello":
        send_frame(sock, {"type": "status", "job_id": "0" * 16})
    elif case == "nested-frame":  # deeper than the JSON decoder recurses
        sock.sendall(struct.pack("!BI", 0, 100_000) + b"[" * 100_000)
    else:  # a length prefix past the cap, with no payload behind it
        sock.sendall(struct.pack("!BI", 0, MAX_FRAME_BYTES + 1))


# An opening that escapes a connection thread uncaught fails the case.
@pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning")
@pytest.mark.parametrize("case", ["wrong-protocol", "not-a-hello",
                                  "nested-frame", "oversized-frame"])
def test_bad_opening_is_refused_and_the_endpoint_keeps_serving(endpoint,
                                                                case):
    address, peer, still_serves = endpoint
    with socket.create_connection(address, timeout=10.0) as sock:
        _open_with(sock, case)
        replies = []
        while (frame := recv_frame(sock)) is not None:
            replies.append(frame)
    if case == "wrong-protocol":
        assert replies == [{
            "type": "error",
            "error": f"protocol 999 != {PROTOCOL_VERSION} "
                     f"(upgrade the {peer})"}]
    else:
        assert replies == []  # closed without a reply
    still_serves()

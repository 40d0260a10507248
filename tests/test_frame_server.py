"""The one handshake of both frame endpoints: fleet coordinator and service.

Both serve on :class:`repro.runtime.wire.FrameServer`, so each hostile
opening runs against each endpoint, and after every case the endpoint
must still serve a good peer: the fleet run finishes with the right
results, and a service client connects.  The other way round, a worker
refuses a coordinator reply it does not know instead of looping on it.
"""

import json
import socket
import struct
import threading

import pytest

from repro.errors import ConfigError
from repro.runtime import RunOptions, Task, make_scheduler
from repro.runtime.distributed import echo_point, run_worker
from repro.runtime.wire import (
    MAX_FRAME_BYTES,
    MAX_HELLO_BYTES,
    PROTOCOL_VERSION,
    FrameServer,
    recv_frame,
    send_frame,
)
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

    pool = make_scheduler(
        RunOptions(scheduler="fleet", workers=0, serve="127.0.0.1:0"))
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
        sock.sendall(struct.pack("!BI", 0, 60_000) + b"[" * 60_000)
    elif case == "oversized-frame":  # past the cap, no payload behind it
        sock.sendall(struct.pack("!BI", 0, MAX_FRAME_BYTES + 1))
    elif case == "oversized-hello":  # under the frame cap, far past a hello
        sock.sendall(struct.pack("!BI", 0, 200 * 1024 * 1024))
    else:  # a well-formed hello, padded past the cap claimed or inflated
        hello = {"type": "hello", "protocol": PROTOCOL_VERSION,
                 "worker": "w-padded", "max": 1, "results": [],
                 "pad": "x" * MAX_HELLO_BYTES}
        if case == "padded-hello-compressed":
            assert send_frame(sock, hello) < MAX_HELLO_BYTES
        else:
            blob = json.dumps(hello).encode()
            sock.sendall(struct.pack("!BI", 0, len(blob)) + blob)


# An opening that escapes a connection thread uncaught fails the case.
@pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning")
@pytest.mark.parametrize("case", ["wrong-protocol", "not-a-hello",
                                  "nested-frame", "oversized-frame",
                                  "oversized-hello", "padded-hello",
                                  "padded-hello-compressed"])
def test_bad_opening_is_refused_and_the_endpoint_keeps_serving(endpoint,
                                                                case):
    address, peer, still_serves = endpoint
    replies = []
    with socket.create_connection(address, timeout=10.0) as sock:
        try:
            _open_with(sock, case)
            while (frame := recv_frame(sock)) is not None:
                replies.append(frame)
        except (ConnectionResetError, BrokenPipeError):
            pass  # closed with the rest of the opening frame unread
    if case == "wrong-protocol":
        assert replies == [{
            "type": "error",
            "error": f"protocol 999 != {PROTOCOL_VERSION} "
                     f"(upgrade the {peer})"}]
    else:
        assert replies == []  # closed without a reply
    still_serves()



@pytest.mark.parametrize("reply", ["idle", "bogus"])
def test_worker_refuses_a_reply_it_does_not_know(tmp_path, reply):
    """A coordinator sends ``lease``, ``shutdown`` or ``error``; any other
    reply stops the worker with a refusal naming it, and the worker asks
    for nothing more."""
    after = []
    done = threading.Event()

    def coordinator(conn, hello):
        assert hello["worker"] == "w-confused"
        send_frame(conn, {"type": reply})
        after.append(recv_frame(conn))
        done.set()

    server = FrameServer(("127.0.0.1", 0), coordinator, "worker")
    server.start()
    try:
        with pytest.raises(ConfigError, match=repr(reply)):
            run_worker(*server.address, worker_id="w-confused",
                       scratch_dir=tmp_path / "scratch",
                       connect_timeout_s=5.0)
        assert done.wait(timeout=10.0)
    finally:
        server.close()
    assert after == [None]  # the worker hung up instead of leasing again

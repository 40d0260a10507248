"""The service wire surface: TCP endpoint, client, and CLI job verbs.

End-to-end over a real loopback socket: submit/status/stream/results/
figure/stop frames, wire-level dedup, hostile-client rejection (unknown
verbs, malformed ids, disallowed specs, unknown sweep kernels or check
modes; the handshake cases are in ``test_frame_server.py``), queue
recovery after a service restart, and the ``job`` CLI verbs driving all
of it in-process — with fetched bytes compared against a direct batch
run of the same spec.
"""

import socket
import sys
import threading
import time

import pytest

from repro.analysis.sweeprunner import (
    SweepGrid,
    SweepRunner,
    load_row,
    render_aggregate,
)
from repro.cli import main
from repro.errors import ConfigError
from repro.runtime import RunOptions
from repro.runtime.distributed import run_worker
from repro.runtime.wire import (
    PROTOCOL_VERSION,
    recv_frame,
    send_frame,
)
from repro.service import DONE, QUEUED, JobManager, JobSpec
from repro.service.api import SERVICE_NAME, CharacterizationService
from repro.service.client import ServiceClient


def tiny_grid(**overrides) -> SweepGrid:
    options = dict(mitigations=("PARA",), nrh_values=(64,),
                   pacram_vendors=(None,),
                   workload_sets=(("spec06.mcf",),), requests=200)
    options.update(overrides)
    return SweepGrid(**options)


def batch_rows(directory, grid) -> dict[str, bytes]:
    runner = SweepRunner(directory, grid)
    runner.run(jobs=1)
    return {p.name: p.read_bytes()
            for p in sorted(directory.glob("*.json"))
            if p.name != "run_report.json"}


def wait_terminal(client: ServiceClient, job_id: str,
                  timeout_s: float = 120.0) -> dict:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        frame = client.status(job_id)
        if frame["state"] in ("done", "failed"):
            return frame
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never reached a terminal state")


@pytest.fixture
def service(tmp_path):
    svc = CharacterizationService(tmp_path / "jobs",
                                  options=RunOptions(jobs=1),
                                  poll_s=0.01)
    svc.start()
    yield svc
    svc.stop()


def address(svc: CharacterizationService) -> str:
    host, port = svc.bound_address
    return f"{host}:{port}"


# ----------------------------------------------------------------------
# happy path over the wire
# ----------------------------------------------------------------------
class TestServiceEndToEnd:
    def test_submit_stream_results_figure(self, service, tmp_path):
        grid = tiny_grid()
        expected = batch_rows(tmp_path / "batch", grid)
        batch = SweepRunner(tmp_path / "batch", grid)
        expected_figure = render_aggregate(batch.aggregate(
            [load_row(batch.row_path(p)) for p in grid.points()]))

        with ServiceClient(address(service)) as client:
            assert client.service == SERVICE_NAME
            frame = client.submit(JobSpec("sweep", grid))
            assert frame["job_id"] == JobSpec("sweep", grid).job_id
            assert frame["deduped"] is False
            assert frame["state"] == QUEUED

            events = []
            end = client.stream(frame["job_id"], on_event=events.append)
            assert end["state"] == DONE
            assert end["error"] is None
            assert [e["seq"] for e in events] == list(range(len(events)))
            assert events[0]["event"] == "start"
            assert events[-1]["event"] == "finish"

            assert client.results(frame["job_id"]) == expected
            assert client.figure(frame["job_id"], "fig17") \
                == expected_figure

    def test_wire_dedup_returns_the_same_job(self, service):
        grid = tiny_grid()
        with ServiceClient(address(service)) as client:
            first = client.submit(JobSpec("sweep", grid))
            wait_terminal(client, first["job_id"])
            again = client.submit(JobSpec("sweep", grid))
        assert again["job_id"] == first["job_id"]
        assert again["deduped"] is True
        assert again["state"] == DONE
        assert again["position"] is None  # done: nothing re-enqueued

    def test_stream_of_a_finished_job_replays_the_full_log(self, service):
        grid = tiny_grid()
        with ServiceClient(address(service)) as client:
            frame = client.submit(JobSpec("sweep", grid))
            wait_terminal(client, frame["job_id"])
            events = []
            end = client.stream(frame["job_id"], on_event=events.append)
        assert end["state"] == DONE
        assert [e["event"] for e in events][0] == "start"
        assert [e["event"] for e in events][-1] == "finish"

    def test_streams_end_with_their_jobs_not_the_poll_tick(self, tmp_path):
        """The runner wakes every waiting stream when a job ends, so even
        a 60 s progress interval holds back no ``end`` frame — with
        several streams waiting on queued jobs at once, and thread
        switches forced often to shake out a lost wake-up."""
        svc = CharacterizationService(tmp_path / "jobs",
                                      options=RunOptions(jobs=1), poll_s=60)
        specs = [JobSpec("sweep", tiny_grid(requests=200 + n))
                 for n in range(3)]
        ends = {}

        def follow(spec):
            with ServiceClient(address(svc)) as client:
                job_id = client.submit(spec)["job_id"]
                ends[job_id] = client.stream(job_id)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            svc.start()
            streamers = [threading.Thread(target=follow, args=(spec,))
                         for spec in specs]
            for streamer in streamers:
                streamer.start()
            deadline = time.monotonic() + 15.0
            for streamer in streamers:
                streamer.join(timeout=max(0.0, deadline - time.monotonic()))
            assert not any(streamer.is_alive() for streamer in streamers), \
                "a stream outlived its job"
        finally:
            sys.setswitchinterval(interval)
            svc.stop()
        assert sorted(ends) == sorted(spec.job_id for spec in specs)
        assert all(end["type"] == "end" and end["state"] == DONE
                   for end in ends.values())

    def test_fetch_writes_the_result_files(self, service, tmp_path):
        grid = tiny_grid()
        expected = batch_rows(tmp_path / "batch", grid)
        dest = tmp_path / "fetched"
        with ServiceClient(address(service)) as client:
            frame = client.submit(JobSpec("sweep", grid))
            wait_terminal(client, frame["job_id"])
            written = client.fetch(frame["job_id"], dest)
        assert {p.name: p.read_bytes() for p in written} == expected

    def test_fetch_refuses_traversal_names(self, service, tmp_path):
        with ServiceClient(address(service)) as client:
            client.results = lambda job_id: {"../evil": b"x"}
            with pytest.raises(ConfigError, match="illegal result file"):
                client.fetch("0" * 16, tmp_path / "fetched")

    def test_stop_verb_shuts_the_service_down(self, service):
        with ServiceClient(address(service)) as client:
            client.stop_service()
        service._runner.join(timeout=10.0)
        service.server._acceptor.join(timeout=10.0)
        assert not service._runner.is_alive()
        assert not service.server._acceptor.is_alive()
        with pytest.raises(ConfigError, match="could not connect"):
            ServiceClient(address(service), connect_timeout_s=0.2)

    def test_restart_recovers_queued_jobs(self, tmp_path):
        # A job submitted to the store while no service runs (or left
        # behind by a crashed one) is picked up on the next start.
        grid = tiny_grid()
        manager = JobManager(tmp_path / "jobs")
        record, _ = manager.submit(JobSpec("sweep", grid))
        assert record.state == QUEUED

        svc = CharacterizationService(tmp_path / "jobs",
                                      options=RunOptions(jobs=1),
                                      poll_s=0.01)
        svc.start()
        try:
            with ServiceClient(address(svc)) as client:
                final = wait_terminal(client, record.job_id)
            assert final["state"] == DONE
        finally:
            svc.stop()


# ----------------------------------------------------------------------
# hostile and confused clients
# ----------------------------------------------------------------------
class TestServiceRejections:
    def test_unknown_job_id(self, service):
        with ServiceClient(address(service)) as client:
            with pytest.raises(ConfigError, match="unknown job"):
                client.status("0123456789abcdef")

    def test_malformed_job_id_never_touches_the_filesystem(self, service):
        with ServiceClient(address(service)) as client:
            with pytest.raises(ConfigError, match="malformed job id"):
                client.status("../../etc/passwd")

    def test_stream_of_unknown_job_errors(self, service):
        with ServiceClient(address(service)) as client:
            with pytest.raises(ConfigError, match="unknown job"):
                client.stream("0123456789abcdef")

    def test_figure_for_queued_job_errors(self, service):
        # Submit against a saturated queue position is racy; use a spec
        # the runner has not reached yet by asking before it can finish.
        with ServiceClient(address(service)) as client:
            frame = client.submit(JobSpec("sweep", tiny_grid()))
            try:
                client.figure(frame["job_id"], "fig17")
            except ConfigError as error:
                assert "not done" in str(error)
            else:  # the tiny job may already have finished: still gated
                wait_terminal(client, frame["job_id"])
                with pytest.raises(ConfigError, match="render"):
                    client.figure(frame["job_id"], "fig6")

    def test_disallowed_spec_type_rejected_at_the_wire(self, service):
        payload = JobSpec("sweep", tiny_grid()).encoded()
        payload["config"]["__dc"] = "os:system"
        sock = socket.create_connection(service.bound_address)
        try:
            send_frame(sock, {"type": "hello",
                              "protocol": PROTOCOL_VERSION})
            assert recv_frame(sock)["type"] == "hello"
            send_frame(sock, {"type": "submit", "spec": payload})
            reply = recv_frame(sock)
        finally:
            sock.close()
        assert reply["type"] == "error"
        assert "disallowed type" in reply["error"]

    @pytest.mark.parametrize("field, value", [
        ("sim_kernel", "batched"),
        ("check_protocol", "paranoid"),
    ])
    def test_unknown_sweep_mode_rejected_at_submit(self, service, field,
                                                   value):
        payload = JobSpec("sweep", tiny_grid()).encoded()
        payload["config"]["fields"][field] = value
        sock = socket.create_connection(service.bound_address)
        try:
            send_frame(sock, {"type": "hello",
                              "protocol": PROTOCOL_VERSION})
            assert recv_frame(sock)["type"] == "hello"
            send_frame(sock, {"type": "submit", "spec": payload})
            reply = recv_frame(sock)
        finally:
            sock.close()
        assert reply["type"] == "error"
        assert "must be one of" in reply["error"]
        assert repr(value) in reply["error"]
        assert service.manager.store.list_ids() == ()

    def test_unknown_verb_errors(self, service):
        sock = socket.create_connection(service.bound_address)
        try:
            send_frame(sock, {"type": "hello",
                              "protocol": PROTOCOL_VERSION})
            assert recv_frame(sock)["type"] == "hello"
            send_frame(sock, {"type": "sabotage"})
            reply = recv_frame(sock)
        finally:
            sock.close()
        assert reply["type"] == "error"
        assert "unknown verb" in reply["error"]

    def test_client_rejects_a_non_service_endpoint(self):
        # A listener that answers the hello with a non-hello frame.
        server = socket.create_server(("127.0.0.1", 0))
        host, port = server.getsockname()[:2]

        def imposter():
            conn, _ = server.accept()
            with conn:
                recv_frame(conn)
                send_frame(conn, {"type": "ok"})

        thread = threading.Thread(target=imposter, daemon=True)
        thread.start()
        try:
            with pytest.raises(ConfigError, match="service hello"):
                ServiceClient((host, port), connect_timeout_s=2.0)
        finally:
            thread.join(timeout=5.0)
            server.close()


class TestServiceSockets:
    def test_both_ends_disable_nagle(self, service, monkeypatch):
        """Back-to-back frames (a stream's last event, then its end
        frame) must not wait on a delayed ACK at either end."""
        import repro.runtime.wire as wire

        server_side = []
        real_recv = wire.recv_frame

        def spy(conn, **kwargs):
            server_side.append(conn.getsockopt(socket.IPPROTO_TCP,
                                               socket.TCP_NODELAY))
            return real_recv(conn, **kwargs)

        # The server reads the hello through the wire module's binding;
        # the client and the service's handler hold their own.
        monkeypatch.setattr(wire, "recv_frame", spy)
        client = ServiceClient(address(service))
        try:
            assert client.sock.getsockopt(socket.IPPROTO_TCP,
                                          socket.TCP_NODELAY)
        finally:
            client.close()
        # The client's hello is answered only after the server read it.
        assert server_side and all(server_side)


# ----------------------------------------------------------------------
# fleet scheduler behind the service
# ----------------------------------------------------------------------
class TestServiceFleet:
    def test_fleet_results_match_the_local_batch_bytes(self, tmp_path):
        grid = tiny_grid()
        expected = batch_rows(tmp_path / "batch", grid)
        svc = CharacterizationService(
            tmp_path / "jobs",
            options=RunOptions(scheduler="fleet", workers=2,
                               lease_batch=1),
            poll_s=0.01)
        svc.start()
        try:
            with ServiceClient(address(svc)) as client:
                frame = client.submit(JobSpec("sweep", grid))
                end = client.stream(frame["job_id"])
                assert end["state"] == DONE
                assert client.results(frame["job_id"]) == expected
        finally:
            svc.stop()

    def test_external_worker_serves_every_job(self, tmp_path):
        """Regression: the fleet outlives each job, so one external
        worker serves the next job too instead of being sent away when
        the first one ends."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        svc = CharacterizationService(
            tmp_path / "jobs",
            options=RunOptions(scheduler="fleet", workers=0,
                               serve=("127.0.0.1", port)),
            poll_s=0.01)
        svc.start()
        codes = []
        worker = threading.Thread(
            target=lambda: codes.append(run_worker(
                "127.0.0.1", port, worker_id="ext",
                scratch_dir=tmp_path / "scratch")))
        worker.start()
        try:
            with ServiceClient(address(svc)) as client:
                client.sock.settimeout(15.0)
                for n in range(2):
                    spec = JobSpec("sweep", tiny_grid(requests=200 + n))
                    frame = client.submit(spec)
                    assert client.stream(frame["job_id"])["state"] == DONE
                    assert worker.is_alive(), "worker sent away after a job"
        finally:
            svc.stop()
            worker.join(timeout=15.0)
        assert not worker.is_alive() and codes == [0]

    def test_fleet_forks_its_workers_once_and_leaves_nothing_behind(
            self, tmp_path, monkeypatch):
        import multiprocessing
        from multiprocessing.process import BaseProcess

        started = []
        real_start = BaseProcess.start

        def counting_start(process):
            started.append(process.name)
            real_start(process)

        monkeypatch.setattr(BaseProcess, "start", counting_start)
        svc = CharacterizationService(
            tmp_path / "jobs",
            options=RunOptions(scheduler="fleet", workers=2), poll_s=0.01)
        svc.start()
        try:
            with ServiceClient(address(svc)) as client:
                for n in range(3):
                    spec = JobSpec("sweep", tiny_grid(requests=200 + n))
                    frame = client.submit(spec)
                    assert client.stream(frame["job_id"])["state"] == DONE
        finally:
            svc.stop()
        assert len(started) == 2, started
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(svc.manager.fleet.address, timeout=5.0)
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# the job CLI verbs, in-process
# ----------------------------------------------------------------------
class TestJobCli:
    def test_submit_watch_fetch_match_the_batch_cli(self, service,
                                                    tmp_path, capsys):
        connect = ["--connect", address(service)]
        spec = ["--mitigations", "PARA", "--nrh", "64",
                "--requests", "200"]
        batch_dir = tmp_path / "batch"
        assert main(["sweep", "--dir", str(batch_dir), "--jobs", "1",
                     *spec]) == 0
        capsys.readouterr()

        assert main(["job", "submit", "sweep", *connect, *spec]) == 0
        out = capsys.readouterr().out
        job_id, rest = out.split()[0], out
        assert "state=" in rest

        assert main(["job", "watch", job_id, *connect]) == 0
        assert f"{job_id} state=done" in capsys.readouterr().out

        assert main(["job", "status", job_id, *connect]) == 0
        assert "state=done" in capsys.readouterr().out

        dest = tmp_path / "fetched"
        assert main(["job", "fetch", job_id, *connect,
                     "--dest", str(dest)]) == 0
        assert "fetched" in capsys.readouterr().out
        expected = {p.name: p.read_bytes()
                    for p in sorted(batch_dir.glob("*.json"))
                    if p.name != "run_report.json"}
        assert {p.name: p.read_bytes()
                for p in sorted(dest.iterdir())} == expected

        # Figure-on-demand renders the exact aggregate the batch CLI
        # printed for the same grid.
        assert main(["job", "fetch", job_id, *connect,
                     "--figure", "fig17"]) == 0
        figure = capsys.readouterr().out.rstrip("\n")
        runner = SweepRunner(batch_dir, tiny_grid(
            mitigations=("PARA",), nrh_values=(64,),
            pacram_vendors=(None, "H", "M", "S"), requests=200))
        grid = runner.grid
        expected_figure = render_aggregate(runner.aggregate(
            [load_row(runner.row_path(p)) for p in grid.points()]))
        assert figure == expected_figure

        # Resubmission over the CLI dedups to the same id.
        assert main(["job", "submit", "sweep", *connect, *spec]) == 0
        out = capsys.readouterr().out
        assert out.split()[0] == job_id
        assert "deduped=true" in out

    def test_watch_reports_failure_with_exit_one(self, service, capsys):
        # An unknown job errors cleanly through the CLI error path.
        assert main(["job", "status", "0123456789abcdef",
                     "--connect", address(service)]) == 1
        assert "unknown job" in capsys.readouterr().err

    def test_connect_timeout_flag_bounds_the_retry(self, capsys):
        sink = socket.socket()
        sink.bind(("127.0.0.1", 0))  # bound, never listening
        host, port = sink.getsockname()[:2]
        try:
            code = main(["job", "status", "0123456789abcdef",
                         "--connect", f"{host}:{port}",
                         "--connect-timeout", "0.3"])
        finally:
            sink.close()
        assert code == 1
        assert "could not connect" in capsys.readouterr().err

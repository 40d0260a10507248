"""Tests for the fleet scheduler: wire protocol, codec, coordinator."""

import base64
import json
import os
import pickle
import socket
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ConfigError, ExecutionError
from repro.runtime import (
    SCHEDULER_NAMES,
    ProgressReporter,
    RunOptions,
    Task,
    TaskPool,
    make_scheduler,
    parse_address,
    write_atomic,
)
from repro.runtime.distributed import (
    Fleet,
    FleetScheduler,
    echo_point,
    lease_spec,
    run_worker,
)
from repro.runtime.wire import (
    BLOB_MIN,
    COMPRESS_MIN,
    PROTOCOL_VERSION,
    FrameError,
    blob_digest,
    callable_ref,
    canonical_blob,
    decode_value,
    encode_value,
    intern_args,
    recv_frame,
    referenced_blobs,
    resolve_callable,
    send_frame,
)


# ----------------------------------------------------------------------
# worker functions (module-level: workers resolve them by reference)
# ----------------------------------------------------------------------
def _load_echo(path):
    payload = json.loads(path.read_text())
    if set(payload) != {"n", "echo"}:
        raise ValueError(f"malformed echo result at {path}")
    return payload["echo"]


def _bad_config(n, path):
    raise ConfigError(f"point {n} rejected (injected)")


def _flaky_echo(marker, n, path):
    """Fails once (marker claims first-failure state), then succeeds."""
    import os
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        raise ValueError("transient hiccup (injected)")
    except FileExistsError:
        echo_point(n, path)


def _kernel_echo(n, path, broken):
    """Primary args run with ``broken=True`` and raise; the fallback args
    carry ``broken=False`` — the degradation-path stand-in."""
    if broken:
        raise RuntimeError("fast kernel exploded (injected)")
    echo_point(n, path)


def _gated_echo(marker, gate, n, path):
    """Touches ``marker``, then holds its lease until ``gate`` exists."""
    Path(marker).touch()
    while not Path(gate).exists():
        time.sleep(0.01)
    echo_point(n, path)


def _exit_worker(path):
    """Kills the worker process that runs it, as a crash would."""
    os._exit(1)


def _sibling_writer(n, path):
    """Writes its row plus a sibling ledger file next to it."""
    echo_point(n, path)
    from pathlib import Path
    sibling = Path(path).with_suffix(".violations.jsonl")
    write_atomic(sibling, json.dumps({"n": n, "violations": []}) + "\n")


# ----------------------------------------------------------------------
# frames
# ----------------------------------------------------------------------
def _socket_pair():
    left, right = socket.socketpair()
    return left, right


class TestFrames:
    def test_roundtrip_small_message(self):
        left, right = _socket_pair()
        message = {"type": "hello", "worker": "w1", "n": 7}
        sent = send_frame(left, message)
        assert recv_frame(right) == message
        # Small frames ship uncompressed: header + payload.
        assert sent == 5 + len(json.dumps(message, separators=(",", ":")))
        left.close(), right.close()

    def test_large_frames_compress(self):
        left, right = _socket_pair()
        message = {"blob": "x" * (4 * COMPRESS_MIN)}
        sent = send_frame(left, message)
        assert sent < COMPRESS_MIN  # zlib crushes the repetition
        assert recv_frame(right) == message
        left.close(), right.close()

    def test_clean_eof_returns_none(self):
        left, right = _socket_pair()
        left.close()
        assert recv_frame(right) is None
        right.close()

    def test_mid_frame_eof_raises(self):
        left, right = _socket_pair()
        left.sendall(b"\x00\x00\x00\x00\x10partial")
        left.close()
        with pytest.raises(ConnectionError, match="mid-frame"):
            recv_frame(right)
        right.close()

    def test_oversized_length_prefix_rejected(self):
        import struct
        left, right = _socket_pair()
        left.sendall(struct.pack("!BI", 0, 2**31))
        with pytest.raises(FrameError, match="cap"):
            recv_frame(right)
        left.close(), right.close()

    def test_non_object_frame_rejected(self):
        import struct
        left, right = _socket_pair()
        blob = b"[1,2,3]"
        left.sendall(struct.pack("!BI", 0, len(blob)) + blob)
        with pytest.raises(FrameError, match="object"):
            recv_frame(right)
        left.close(), right.close()

    def test_inflation_is_bounded(self):
        """A compressed frame under the length cap may not inflate past
        it (the cap is lowered so the bomb stays small)."""
        import struct
        import zlib

        left, right = _socket_pair()
        for size, accepted in ((1 << 15, True), (1 << 20, False)):
            blob = zlib.compress(json.dumps({"x": "a" * size}).encode())
            assert len(blob) < 1 << 16
            left.sendall(struct.pack("!BI", 1, len(blob)) + blob)
            if accepted:
                assert recv_frame(right, max_bytes=1 << 16) == {
                    "x": "a" * size}
            else:
                with pytest.raises(FrameError, match="inflates past"):
                    recv_frame(right, max_bytes=1 << 16)
        left.close(), right.close()

    def test_truncated_compressed_frame_rejected(self):
        import struct
        import zlib
        left, right = _socket_pair()
        blob = zlib.compress(json.dumps({"x": "a" * 4096}).encode())[:-6]
        left.sendall(struct.pack("!BI", 1, len(blob)) + blob)
        with pytest.raises(FrameError, match="truncated"):
            recv_frame(right)
        left.close(), right.close()

    def test_deep_nesting_is_a_frame_error(self):
        import struct
        left, right = _socket_pair()
        blob = b"[" * 100_000
        threading.Thread(target=left.sendall, daemon=True, args=(
            struct.pack("!BI", 0, len(blob)) + blob,)).start()
        with pytest.raises(FrameError):
            recv_frame(right)
        left.close(), right.close()


# ----------------------------------------------------------------------
# value codec
# ----------------------------------------------------------------------
class TestValueCodec:
    def test_scalars_pass_through(self):
        for value in (None, True, 3, 2.5, "plain"):
            assert decode_value(encode_value(value)) == value

    def test_tuple_and_path_roundtrip(self):
        from pathlib import Path
        value = (1, "two", (3.0, None), Path("/tmp/row.json"))
        decoded = decode_value(encode_value(value))
        assert decoded == value
        assert isinstance(decoded, tuple)
        assert isinstance(decoded[3], Path)

    def test_dataclass_roundtrip(self):
        from repro.analysis.sweeprunner import SweepPoint
        point = SweepPoint("PARA", 64, None, ("spec06.mcf",))
        decoded = decode_value(encode_value(point))
        assert decoded == point
        assert isinstance(decoded, SweepPoint)
        assert isinstance(decoded.workloads, tuple)

    def test_task_path_sentinel_substituted(self):
        encoded = encode_value(("/here/row.json", "unrelated"),
                               task_path="/here/row.json")
        decoded = decode_value(encoded, task_path="/scratch/row.json")
        assert decoded == ("/scratch/row.json", "unrelated")

    def test_tag_colliding_dict_key_rejected(self):
        with pytest.raises(ConfigError, match="collides"):
            encode_value({"__t": 1})

    def test_non_string_dict_key_rejected(self):
        with pytest.raises(ConfigError, match="string dict keys"):
            encode_value({1: "x"})

    def test_unshippable_type_rejected(self):
        with pytest.raises(ConfigError, match="cannot ship"):
            encode_value(object())

    def test_callable_ref_roundtrip(self):
        ref = callable_ref(echo_point)
        assert ref == "repro.runtime.distributed:echo_point"
        assert resolve_callable(ref) is echo_point

    def test_callable_ref_rejects_closures(self):
        with pytest.raises(ConfigError, match="module-level"):
            callable_ref(lambda: None)


class TestBlobInterning:
    def test_heavy_args_interned_small_args_inline(self):
        table = {}
        heavy = {"config": "y" * (2 * BLOB_MIN)}
        args = intern_args([encode_value(heavy), encode_value(3)], table)
        assert args[1] == 3
        (digest,) = table
        assert args[0] == {"__blob": digest}
        assert digest == blob_digest(canonical_blob(encode_value(heavy)))
        assert referenced_blobs(args) == {digest}
        assert decode_value(args[0], blobs=table) == heavy

    def test_missing_blob_body_is_an_error(self):
        with pytest.raises(ConfigError, match="unknown blob"):
            decode_value({"__blob": "feedfacefeedface"}, blobs={})

    def test_interning_dedupes_identical_payloads(self):
        table = {}
        heavy = encode_value({"config": "z" * (2 * BLOB_MIN)})
        intern_args([heavy], table)
        intern_args([heavy], table)
        assert len(table) == 1


# ----------------------------------------------------------------------
# scheduler registry
# ----------------------------------------------------------------------
def _fleet(**shape):
    """The options of a ``fleet`` run of this shape."""
    return RunOptions(scheduler="fleet", **shape)


class TestSchedulerRegistry:
    def test_names_and_validation(self):
        assert SCHEDULER_NAMES == ("local", "fleet")
        assert RunOptions(scheduler="local").scheduler == "local"
        with pytest.raises(ConfigError, match="scheduler"):
            RunOptions(scheduler="slurm")

    def test_parse_address(self):
        assert parse_address("127.0.0.1:7045") == ("127.0.0.1", 7045)
        assert parse_address(":7045") == ("0.0.0.0", 7045)
        for bad in ("nohost", "host:", "host:notaport", "host:70000"):
            with pytest.raises(ConfigError):
                parse_address(bad)

    def test_local_is_a_plain_task_pool(self):
        pool = make_scheduler(RunOptions(jobs=1))
        assert type(pool) is TaskPool

    def test_local_rejects_fleet_only_knobs(self):
        with pytest.raises(ConfigError, match="fleet"):
            RunOptions(workers=2)

    def test_fleet_needs_some_worker_source(self):
        with pytest.raises(ConfigError, match="worker"):
            _fleet(workers=0)

    def test_fleet_scheduler_is_a_task_pool(self):
        pool = make_scheduler(_fleet(workers=1, jobs=1))
        assert isinstance(pool, FleetScheduler)
        assert isinstance(pool, TaskPool)


# ----------------------------------------------------------------------
# end-to-end over loopback
# ----------------------------------------------------------------------
def _echo_tasks(directory, count=6):
    return [Task(key=f"p{n}", path=directory / f"p{n}.json", fn=echo_point,
                 args=(n, str(directory / f"p{n}.json")))
            for n in range(count)]


def _result_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.json"))
            if p.name != "run_report.json"}


class TestFleetEndToEnd:
    def test_byte_identical_to_local_and_report_v2(self, tmp_path):
        local_dir, fleet_dir = tmp_path / "local", tmp_path / "fleet"
        TaskPool(jobs=1).run(_echo_tasks(local_dir), loader=_load_echo)
        pool = make_scheduler(
            _fleet(workers=2), ledger_path=fleet_dir / "errors.jsonl",
            report_path=fleet_dir / "run_report.json")
        results = pool.run(_echo_tasks(fleet_dir), loader=_load_echo)
        assert results == {f"p{n}": n * n + 1 for n in range(6)}
        assert _result_bytes(fleet_dir) == _result_bytes(local_dir)
        report = json.loads((fleet_dir / "run_report.json").read_text())
        assert report["schema_version"] == 2
        assert report["scheduler"] == "fleet"
        assert report["pool"]["final_mode"] == "fleet"
        assert sum(stats["tasks"]
                   for stats in report["workers"].values()) == 6
        assert report["leases"] == {"revoked": 0}

    def test_resume_reuses_persisted_results(self, tmp_path):
        tasks = _echo_tasks(tmp_path)
        make_scheduler(_fleet(workers=1)).run(tasks, loader=_load_echo)
        pool = make_scheduler(_fleet(workers=1),
                              report_path=tmp_path / "run_report.json")
        pool.run(_echo_tasks(tmp_path), loader=_load_echo)
        report = json.loads((tmp_path / "run_report.json").read_text())
        assert report["counts"]["reused"] == 6
        assert report["counts"]["computed"] == 0

    def test_lease_batching_amortizes_round_trips(self, tmp_path):
        pool = make_scheduler(_fleet(workers=1, lease_batch=6))
        results = pool.run(_echo_tasks(tmp_path), loader=_load_echo)
        assert len(results) == 6

    def test_permanent_failure_classified_with_worker_attribution(
            self, tmp_path):
        tasks = _echo_tasks(tmp_path, count=3)
        bad = Task(key="bad", path=tmp_path / "bad.json", fn=_bad_config,
                   args=(9, str(tmp_path / "bad.json")))
        pool = make_scheduler(_fleet(workers=2),
                              ledger_path=tmp_path / "errors.jsonl")
        with pytest.raises(ExecutionError,
                           match=r"bad \[permanent, 1 attempt\]"):
            pool.run(tasks + [bad], loader=_load_echo)
        assert len(_result_bytes(tmp_path)) == 3  # survivors all landed
        records = [json.loads(line) for line in
                   (tmp_path / "errors.jsonl").read_text().splitlines()]
        attempts = [r for r in records if r["action"] == "attempt"
                    and r["key"] == "bad"]
        assert len(attempts) == 1  # permanent: no futile retries
        assert attempts[0]["class"] == "permanent"
        assert attempts[0]["worker"].startswith("w")
        abandoned = [r for r in records if r["action"] == "abandoned"]
        assert [(r["key"], r["worker"]) for r in abandoned] == [
            ("bad", attempts[0]["worker"])]

    def test_coordinator_enospc_is_an_infrastructure_pause(
            self, tmp_path, monkeypatch, coordinator_disk_full_once):
        """A full disk while the coordinator publishes shipped bytes is
        the environment's fault, classified like a worker's: the attempt
        is refunded, the pause ledgered, the result directory probed, and
        nothing is quarantined."""
        from repro.runtime import engine
        fleet = Fleet(workers=1)  # forked before the disk fills
        try:
            coordinator_disk_full_once("p0.json")
            probed = []
            probe = engine._probe_ok
            monkeypatch.setattr(engine, "_probe_ok",
                                lambda t: probed.append(t.key) or probe(t))
            pool = make_scheduler(_fleet(), fleet=fleet, max_attempts=1,
                                  infra_pause_s=0.01,
                                  ledger_path=tmp_path / "errors.jsonl")
            results = pool.run(_echo_tasks(tmp_path, count=2),
                               loader=_load_echo)
        finally:
            fleet.close()
        assert results == {"p0": 1, "p1": 2}
        report = json.loads((tmp_path / "run_report.json").read_text())
        assert report["counts"]["retries"] == 0
        assert report["counts"]["infra_pauses"] == 1
        assert report["counts"]["quarantined"] == 0
        assert not list(tmp_path.glob("*.corrupt*"))
        assert probed == ["p0"]
        records = [json.loads(line) for line in
                   (tmp_path / "errors.jsonl").read_text().splitlines()]
        assert [(r["key"], r["action"], r["class"], r["worker"])
                for r in records] == [
            ("p0", "infra-pause", "infrastructure", "w1")]

    def test_transient_failure_retries_to_success(self, tmp_path):
        marker = str(tmp_path / "flaky.marker")
        flaky = Task(key="fl", path=tmp_path / "fl.json", fn=_flaky_echo,
                     args=(marker, 4, str(tmp_path / "fl.json")))
        pool = make_scheduler(_fleet(workers=1), backoff_s=0.01,
                              ledger_path=tmp_path / "errors.jsonl")
        results = pool.run([flaky], loader=_load_echo)
        assert results["fl"] == 17
        assert pool.last_report.retried == ["fl"]

    def test_worker_side_fallback_degradation(self, tmp_path):
        path = tmp_path / "deg.json"
        task = Task(key="deg", path=path, fn=_kernel_echo,
                    args=(5, str(path), True),
                    fallback_args=(5, str(path), False))
        pool = make_scheduler(_fleet(workers=1),
                              ledger_path=tmp_path / "errors.jsonl",
                              report_path=tmp_path / "run_report.json")
        results = pool.run([task], loader=_load_echo)
        assert results["deg"] == 26
        report = json.loads((tmp_path / "run_report.json").read_text())
        assert report["degraded_keys"] == ["deg"]
        assert report["workers"]["w1"]["degraded"] == 1
        assert report["counts"]["retries"] == 0  # degradation is free

    def test_sibling_files_ship_back_with_the_result(self, tmp_path):
        path = tmp_path / "row.json"
        task = Task(key="row", path=path, fn=_sibling_writer,
                    args=(2, str(path)))
        results = make_scheduler(_fleet(workers=1)).run(
            [task], loader=_load_echo)
        assert results["row"] == 5
        sibling = json.loads(
            (tmp_path / "row.violations.jsonl").read_text())
        assert sibling == {"n": 2, "violations": []}

    def test_external_worker_over_serve_address(self, tmp_path):
        pool = make_scheduler(_fleet(workers=0, serve="127.0.0.1:0"),
                              report_path=tmp_path / "run_report.json")
        tasks = _echo_tasks(tmp_path)
        results = {}
        errors = []

        def drive():
            try:
                results.update(pool.run(tasks, loader=_load_echo))
            except Exception as error:  # noqa: BLE001 — surfaced below
                errors.append(error)

        coordinator = threading.Thread(target=drive)
        coordinator.start()
        try:
            assert pool.serving.wait(timeout=10.0)
            host, port = pool.bound_address
            assert run_worker(host, port, worker_id="ext-1",
                              scratch_dir=tmp_path / "scratch") == 0
        finally:
            coordinator.join(timeout=30.0)
        assert not errors and not coordinator.is_alive()
        assert results == {f"p{n}": n * n + 1 for n in range(6)}
        report = json.loads((tmp_path / "run_report.json").read_text())
        assert set(report["workers"]) == {"ext-1"}

    def test_worker_writes_a_sweep_row_without_fsync(self, tmp_path,
                                                     monkeypatch):
        """A worker's scratch copy is shipped and deleted, so it is never
        flushed: only the coordinator's commit fsyncs a result."""
        from repro.analysis.sweeprunner import SweepGrid, SweepRunner
        from repro.runtime.distributed import _execute_spec

        synced = []
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd))
        grid = SweepGrid(mitigations=("PARA",), nrh_values=(64,),
                         pacram_vendors=(None,), requests=300)
        runner = SweepRunner(tmp_path / "sweep", grid)
        blobs: dict = {}
        spec = lease_spec(runner._task(grid.points()[0]), 1, blobs)
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        entry = _execute_spec(spec, blobs, scratch)
        assert entry["status"] == "ok", entry
        assert spec["path"] in entry["files"]
        assert synced == []

    def test_digest_payloads_smaller_than_pickled_task(self, tmp_path):
        """The perf claim behind blob interning: once a worker holds the
        config blob, each further lease spec is smaller than the naive
        wire baseline of pickling the whole Task."""
        from repro.characterization.campaign import (
            CampaignConfig,
            CharacterizationCampaign,
        )
        campaign = CharacterizationCampaign(tmp_path,
                                            CampaignConfig(per_region=4))
        task = campaign._task("S6")
        spec = lease_spec(task, 1, {})
        pickled = len(pickle.dumps(task))
        warm = len(canonical_blob(spec))  # blob already at the worker
        assert warm < pickled
        assert referenced_blobs(spec["args"])  # the config was interned


class TestConnectRetry:
    """Bounded, backing-off connects for workers and job clients."""

    def test_gives_up_with_clear_error(self):
        from repro.runtime.wire import connect_with_retry
        # Bind-without-listen: connects are refused deterministically.
        closed = socket.socket()
        closed.bind(("127.0.0.1", 0))
        port = closed.getsockname()[1]
        try:
            with pytest.raises(ConfigError, match="could not connect"):
                connect_with_retry("127.0.0.1", port, timeout_s=0.3)
        finally:
            closed.close()

    def test_rejects_nonpositive_timeout(self):
        from repro.runtime.wire import connect_with_retry
        with pytest.raises(ConfigError, match="timeout"):
            connect_with_retry("127.0.0.1", 1, timeout_s=0)

    def test_survives_a_late_listener(self):
        """The startup race: a worker launched moments before its
        coordinator must retry into the listen window, not die."""
        from repro.runtime.wire import connect_with_retry
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        port = server.getsockname()[1]

        def listen_late():
            import time as _time
            _time.sleep(0.3)
            server.listen(1)

        opener = threading.Thread(target=listen_late)
        opener.start()
        try:
            sock = connect_with_retry("127.0.0.1", port, timeout_s=10.0)
            sock.close()
        finally:
            opener.join()
            server.close()

    def test_returns_a_nodelay_socket(self):
        from repro.runtime.wire import connect_with_retry
        server = socket.create_server(("127.0.0.1", 0))
        try:
            # An all-interfaces host ("--connect :PORT") means this host.
            for host in ("127.0.0.1", "0.0.0.0", ""):
                sock = connect_with_retry(host, server.getsockname()[1],
                                          timeout_s=5.0)
                with sock:
                    assert sock.getsockopt(socket.IPPROTO_TCP,
                                           socket.TCP_NODELAY)
                    assert sock.getpeername() == server.getsockname()
        finally:
            server.close()

    def test_coordinator_disables_nagle_on_worker_connections(
            self, tmp_path, monkeypatch):
        import repro.runtime.distributed as distributed

        server_side = []
        real_recv = distributed.recv_frame

        def spy(conn):
            server_side.append(conn.getsockopt(socket.IPPROTO_TCP,
                                               socket.TCP_NODELAY))
            return real_recv(conn)

        monkeypatch.setattr(distributed, "recv_frame", spy)
        results = make_scheduler(_fleet(workers=1)).run(
            _echo_tasks(tmp_path, count=2), loader=_load_echo)
        assert results == {"p0": 1, "p1": 2}
        assert server_side and all(server_side)

    def test_worker_fails_fast_on_dead_coordinator(self):
        closed = socket.socket()
        closed.bind(("127.0.0.1", 0))
        port = closed.getsockname()[1]
        try:
            with pytest.raises(ConfigError, match="could not connect"):
                run_worker("127.0.0.1", port, connect_timeout_s=0.3)
        finally:
            closed.close()


_INTERRUPT_SCRIPT = """\
import os
import sys
import time
from pathlib import Path

from repro.runtime import RunOptions, Task, make_scheduler


def slow_task(n, pid_dir, path):
    Path(pid_dir, f"pid-{os.getpid()}").write_text(str(os.getpid()))
    time.sleep(60)


def load(path):
    return 1


if __name__ == "__main__":
    out = Path(sys.argv[1])
    pid_dir = out / "pids"
    pid_dir.mkdir(parents=True, exist_ok=True)
    tasks = [Task(key=f"p{n}", path=out / f"p{n}.json", fn=slow_task,
                  args=(n, str(pid_dir), str(out / f"p{n}.json")))
             for n in range(4)]
    options = RunOptions(scheduler="fleet", workers=2, lease_batch=1)
    pool = make_scheduler(options, report_path=out / "run_report.json")
    pool.run(tasks, loader=load)
"""


class TestFleetShutdown:
    def test_finished_run_stops_listening(self, tmp_path):
        """Regression: the coordinator's listener must be shut down, not
        just closed, or its accept thread keeps the port accepting."""
        pool = make_scheduler(_fleet(workers=1))
        pool.run(_echo_tasks(tmp_path, count=2), loader=_load_echo)
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(pool.bound_address, timeout=5.0)

    def test_no_lease_once_closing(self, tmp_path):
        """Closing leaves a worker connection's write side open, and a
        frame buffered before it is still read: it must earn a shutdown,
        not a lease whose result can never come back."""
        from repro.runtime.distributed import Fleet, _FleetRun
        from repro.runtime.engine import PoolReport
        tasks = _echo_tasks(tmp_path, count=1)
        fleet = Fleet(workers=0, serve=("127.0.0.1", 0))
        run = _FleetRun(fleet, make_scheduler(_fleet(), fleet=fleet), tasks,
                        _load_echo, {}, PoolReport())  # tasks[0] is ready
        fleet.close()
        assert run._grant("w1", 4) == {"type": "shutdown"}

    def test_worker_with_nothing_to_lease_is_parked(self, tmp_path):
        """A lease request that finds nothing ready waits on the
        coordinator and is answered ``shutdown`` once the run ends; it is
        never told to sleep out an ``idle`` reply."""
        gate = tmp_path / "gate"
        markers = [tmp_path / f"started-{n}" for n in range(2)]
        tasks = [Task(key=f"g{n}", path=tmp_path / f"g{n}.json",
                      fn=_gated_echo,
                      args=(str(markers[n]), str(gate), n,
                            str(tmp_path / f"g{n}.json")))
                 for n in range(2)]
        pool = make_scheduler(_fleet(workers=0, serve="127.0.0.1:0",
                                     lease_batch=4))
        results, errors = {}, []

        def drive():
            try:
                results.update(pool.run(tasks, loader=_load_echo))
            except Exception as error:  # noqa: BLE001 — surfaced below
                errors.append(error)

        coordinator = threading.Thread(target=drive)
        coordinator.start()
        worker = peer = None
        try:
            assert pool.serving.wait(timeout=10.0)
            host, port = pool.bound_address
            # The real worker leases both tasks in one batch of four.
            worker = threading.Thread(
                target=run_worker, args=(host, port),
                kwargs={"worker_id": "busy",
                        "scratch_dir": tmp_path / "scratch"})
            worker.start()
            deadline = time.monotonic() + 10.0
            while not markers[0].exists():
                assert time.monotonic() < deadline, "task never started"
                time.sleep(0.01)
            peer = socket.create_connection((host, port), timeout=10.0)
            send_frame(peer, {"type": "hello", "worker": "parked",
                              "protocol": PROTOCOL_VERSION, "max": 4,
                              "results": []})
            peer.settimeout(0.5)
            with pytest.raises(socket.timeout):
                recv_frame(peer)  # parked: no reply while tasks are out
            peer.settimeout(10.0)
            gate.touch()
            frames = []
            while (frame := recv_frame(peer)) is not None:
                frames.append(frame)
            assert frames == [{"type": "shutdown"}]
        finally:
            gate.touch()
            if peer is not None:
                peer.close()
            if worker is not None:
                worker.join(timeout=30.0)
            coordinator.join(timeout=30.0)
        assert not coordinator.is_alive() and not worker.is_alive()
        assert not errors
        assert results == {"g0": 1, "g1": 2}

    def test_interrupt_leaves_no_surviving_workers(self, tmp_path):
        """Regression: Ctrl-C mid-fleet-run must SIGTERM-and-join the
        spawned loopback workers, not orphan them mid-task."""
        import signal
        import subprocess
        import sys
        import time

        script = tmp_path / "fleet_run.py"
        script.write_text(_INTERRUPT_SCRIPT)
        out = tmp_path / "out"
        pid_dir = out / "pids"
        env = dict(os.environ)
        root = Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, str(script), str(out)], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            # Both workers are live and parked inside a leased task once
            # their pid files appear (lease_batch=1 spreads the tasks).
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if len(list(pid_dir.glob("pid-*"))) >= 2:
                    break
                assert proc.poll() is None, "coordinator died prematurely"
                time.sleep(0.05)
            pids = [int(p.name.split("-")[1])
                    for p in pid_dir.glob("pid-*")]
            assert len(pids) >= 2
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=30.0)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                alive = []
                for pid in pids:
                    try:
                        os.kill(pid, 0)
                        alive.append(pid)
                    except ProcessLookupError:
                        pass
                if not alive:
                    break
                time.sleep(0.05)
            assert not alive, f"workers survived the interrupt: {alive}"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)


# ----------------------------------------------------------------------
# one open fleet, several runs
# ----------------------------------------------------------------------
class _Joins(ProgressReporter):
    def __init__(self):
        self.workers = []

    def worker_joined(self, worker, workers):
        self.workers.append(worker)


def _outcome(spec, echo):
    """A worker's ``ok`` entry for ``spec`` whose row carries ``echo``."""
    row = json.dumps({"n": int(spec["key"][1:]), "echo": echo},
                     sort_keys=True) + "\n"
    return {"key": spec["key"], "gen": spec["gen"], "status": "ok",
            "degraded": False,
            "files": {spec["path"]: base64.b64encode(row.encode()).decode()}}


class TestOpenFleet:
    def test_runs_borrow_an_open_fleet_and_leave_it_open(self, tmp_path):
        fleet = Fleet(workers=1)
        try:
            tasks_done, joins = [], _Joins()
            for count in (2, 3):
                pool = make_scheduler(_fleet(), fleet=fleet, progress=joins)
                results = pool.run(_echo_tasks(tmp_path / f"r{count}", count),
                                   loader=_load_echo)
                assert results == {f"p{n}": n * n + 1 for n in range(count)}
                tasks_done.append(pool.last_report.workers["w1"]["tasks"])
                socket.create_connection(fleet.address, timeout=5.0).close()
            assert tasks_done == [2, 3]  # counters stay per run
            assert joins.workers == ["w1", "w1"]  # each run names it
        finally:
            fleet.close()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(fleet.address, timeout=5.0)

    def test_runs_reusing_keys_take_turns_under_thread_churn(self, tmp_path):
        """``force`` runs of the same keys, one after another on a fleet
        of more workers than cores, with thread switches forced often:
        every run gets exactly its own results, and no result crosses
        into the next run as stale."""
        fleet = Fleet(workers=3, lease_batch=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        deadline = time.monotonic() + 60.0
        try:
            for _ in range(4):
                pool = make_scheduler(_fleet(), fleet=fleet)
                results = pool.run(_echo_tasks(tmp_path), loader=_load_echo,
                                   force=True)
                assert results == {f"p{n}": n * n + 1 for n in range(6)}
                stats = pool.last_report.workers.values()
                assert sum(worker["tasks"] for worker in stats) == 6
                assert sum(worker["stale_results"] for worker in stats) == 0
                assert time.monotonic() < deadline
        finally:
            sys.setswitchinterval(interval)
            fleet.close()

    def test_run_whose_workers_die_fails_and_the_next_replaces_them(
            self, tmp_path):
        fleet = Fleet(workers=1)
        try:
            path = tmp_path / "a" / "crash.json"
            crash = Task(key="crash", path=path, fn=_exit_worker,
                         args=(str(path),))
            with pytest.raises(ExecutionError,
                               match=r"crash \[infrastructure, \d+ attempts?\]"):
                make_scheduler(_fleet(), fleet=fleet).run(
                    [crash], loader=_load_echo)
            results = make_scheduler(_fleet(), fleet=fleet).run(
                _echo_tasks(tmp_path / "b", 2), loader=_load_echo)
            assert results == {"p0": 1, "p1": 2}
        finally:
            fleet.close()

    @staticmethod
    def _rogue_then_honest(tmp_path, spoil):
        """Two points on an open fleet: a rogue worker ships the first
        with ``spoil`` applied to its files and must be sent away with no
        reply; then an honest worker, shipping its own side files too,
        finishes the run.  Returns the rogue's lease, what the store held
        once the rogue was gone, the results and the ledger."""
        fleet = Fleet(workers=0, serve=("127.0.0.1", 0))
        rogue = honest = None
        results = []
        try:
            rogue = socket.create_connection(fleet.address, timeout=10.0)
            send_frame(rogue, {"type": "hello", "worker": "rogue",
                               "protocol": PROTOCOL_VERSION, "max": 1,
                               "results": []})
            pool = make_scheduler(_fleet(), fleet=fleet, backoff_s=0.01,
                                  ledger_path=tmp_path / "errors.jsonl")
            runner = threading.Thread(target=lambda: results.append(
                pool.run(_echo_tasks(tmp_path, 2), loader=_load_echo)))
            runner.start()
            [first] = recv_frame(rogue)["tasks"]
            shipment = _outcome(first, int(first["key"][1:]) ** 2 + 1)
            spoil(shipment["files"])
            send_frame(rogue, {"type": "lease", "max": 1,
                               "results": [shipment]})
            assert recv_frame(rogue) is None  # sent away, no reply
            stored = sorted(str(p.relative_to(tmp_path))
                            for p in tmp_path.rglob("*")
                            if p.name != "errors.jsonl")
            honest = socket.create_connection(fleet.address, timeout=10.0)
            send_frame(honest, {"type": "hello", "worker": "honest",
                                "protocol": PROTOCOL_VERSION, "max": 1,
                                "results": []})
            for _ in range(2):
                [spec] = recv_frame(honest)["tasks"]
                outcome = _outcome(spec, int(spec["key"][1:]) ** 2 + 1)
                stem = spec["path"].rsplit(".", 1)[0]
                outcome["files"][f"{stem}.violations.jsonl"] = \
                    base64.b64encode(b"{}").decode()
                send_frame(honest, {"type": "lease", "max": 1,
                                    "results": [outcome]})
            runner.join(timeout=10.0)
            assert not runner.is_alive()
        finally:
            fleet.close()
            for peer in (rogue, honest):
                if peer is not None:
                    peer.close()
        for key in ("p0", "p1"):
            assert (tmp_path / f"{key}.violations.jsonl").read_text() == "{}"
        ledger = [json.loads(line) for line in
                  (tmp_path / "errors.jsonl").read_text().splitlines()]
        return first, stored, results, ledger

    def test_worker_may_ship_only_its_tasks_own_files(self, tmp_path):
        """A shipment naming another point's row, the run report or a
        cache entry is refused whole, before any file is written.  The
        fault is the worker's, not the point's: its connection closes,
        the point is requeued uncharged, and an honest worker finishes
        the run."""
        def smuggle(files):
            for name in ("p1.json", "run_report.json",
                         "baseline_cache/baseline_x.json"):
                files[name] = base64.b64encode(b"{}").decode()

        first, stored, results, ledger = self._rogue_then_honest(
            tmp_path, smuggle)
        assert stored == []
        assert results == [{"p0": 1, "p1": 2}]
        assert [r for r in ledger if r["action"] == "attempt"] == []
        [lost] = ledger
        assert (lost["key"], lost["action"], lost["class"], lost["worker"]) \
            == (first["key"], "worker-lost", "infrastructure", "rogue")
        assert "may ship only its own files" in lost["error"]

    def test_undecodable_shipment_is_the_workers_fault(self, tmp_path):
        """A side file that is not base64 refuses the whole shipment,
        the good result included, exactly like a foreign name."""
        def garble(files):
            files[next(iter(files)).replace(".json", ".violations.jsonl")] \
                = "!!not base64!!"

        first, stored, results, ledger = self._rogue_then_honest(
            tmp_path, garble)
        assert stored == []
        assert results == [{"p0": 1, "p1": 2}]
        [lost] = ledger
        assert (lost["key"], lost["action"], lost["worker"]) \
            == (first["key"], "worker-lost", "rogue")
        assert "undecodable" in lost["error"]

    def test_result_from_an_earlier_run_is_stale(self, tmp_path):
        """A ``force`` re-run reuses task keys: a late result carrying
        the first run's lease generation must not match the second run's
        lease of the same key."""
        fleet = Fleet(workers=0, serve=("127.0.0.1", 0))
        peer = None
        runs = []

        def drive(count, **options):
            pool = make_scheduler(_fleet(), fleet=fleet)
            runner = threading.Thread(target=lambda: runs.append(pool.run(
                _echo_tasks(tmp_path, count), loader=_load_echo, **options)))
            runner.start()
            return pool, runner

        try:
            peer = socket.create_connection(fleet.address, timeout=10.0)
            send_frame(peer, {"type": "hello", "worker": "slow",
                              "protocol": PROTOCOL_VERSION, "max": 1,
                              "results": []})
            _, first = drive(1)
            [early] = recv_frame(peer)["tasks"]
            send_frame(peer, {"type": "lease", "max": 1,
                              "results": [_outcome(early, 1)]})
            first.join(timeout=10.0)
            assert not first.is_alive()

            pool, second = drive(2, force=True)
            [again] = recv_frame(peer)["tasks"]
            assert again["key"] == early["key"] == "p0"
            assert again["gen"] != early["gen"]
            send_frame(peer, {"type": "lease", "max": 1,
                              "results": [_outcome(early, 999)]})
            [other] = recv_frame(peer)["tasks"]  # the late one was ingested
            assert json.loads((tmp_path / "p0.json").read_text())["echo"] == 1
            send_frame(peer, {"type": "lease", "max": 1,
                              "results": [_outcome(again, 1),
                                          _outcome(other, 2)]})
            second.join(timeout=10.0)
            assert not second.is_alive()
        finally:
            fleet.close()
            if peer is not None:
                peer.close()
        assert runs == [{"p0": 1}, {"p0": 1, "p1": 2}]
        assert pool.last_report.workers["slow"]["stale_results"] == 1
        assert pool.last_report.computed == ["p0", "p1"]

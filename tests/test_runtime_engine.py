"""Tests for the fault-tolerant parallel execution engine."""

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, ExecutionError
from repro.runtime import (
    CORRUPT_SUFFIX,
    ProgressReporter,
    Task,
    TaskPool,
    describe_run_report,
    discard_stale_tmp,
    make_scheduler,
    quarantine,
    write_atomic,
)
from repro.runtime import engine


# ----------------------------------------------------------------------
# Worker functions must be module-level so they pickle across processes.
# ----------------------------------------------------------------------
def _write_square(n: int, path: str) -> None:
    write_atomic(path, json.dumps({"n": n, "square": n * n}))


def _load_square(path: Path) -> int:
    return json.loads(Path(path).read_text())["square"]


def _flaky_square(counter_path: str, fail_times: int, n: int,
                  path: str) -> None:
    """Fails the first ``fail_times`` invocations, then succeeds."""
    counter = Path(counter_path)
    calls = int(counter.read_text()) if counter.exists() else 0
    counter.write_text(str(calls + 1))
    if calls < fail_times:
        raise RuntimeError(f"transient failure #{calls}")
    _write_square(n, path)


def _always_fail(path: str) -> None:
    raise RuntimeError("permanent failure")


def _truncate_once_then_square(marker: str, n: int, path: str) -> None:
    """Tears its result file on the first call, as a crash mid-write would."""
    if not Path(marker).exists():
        Path(marker).write_text("torn")
        Path(path).write_text('{"n": ')
        return
    _write_square(n, path)


def _square_task(tmp_path: Path, n: int) -> Task:
    path = tmp_path / f"sq{n}.json"
    return Task(key=f"sq{n}", path=path, fn=_write_square,
                args=(n, str(path)))


def _ledger(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def _ledger_worker(pool: TaskPool) -> str:
    """The worker a one-worker run's records name: ``local`` or the
    fleet worker's id."""
    return next(iter(pool.last_report.workers), "local")


@pytest.fixture(params=["local", "fleet"])
def make_pool(request):
    """Builds pools on one scheduler backend.  The fleet backend lends
    one open fleet to every pool a test builds (hypothesis examples
    included), so the test forks its worker once."""
    if request.param == "local":
        yield lambda **options: TaskPool(jobs=1, **options)
        return
    from repro.runtime.distributed import Fleet
    fleet = Fleet(workers=1)
    try:
        yield lambda **options: make_scheduler("fleet", fleet=fleet,
                                               **options)
    finally:
        fleet.close()


class TestPersist:
    def test_write_atomic_roundtrip(self, tmp_path):
        path = tmp_path / "deep" / "result.json"
        write_atomic(path, "payload")
        assert path.read_text() == "payload"
        assert list(path.parent.glob("*.tmp")) == []

    def test_write_atomic_overwrites(self, tmp_path):
        path = tmp_path / "r.json"
        write_atomic(path, "old")
        write_atomic(path, "new")
        assert path.read_text() == "new"

    def test_quarantine_unique_names(self, tmp_path):
        path = tmp_path / "r.json"
        moved = []
        for generation in range(3):
            path.write_text(f"garbage {generation}")
            moved.append(quarantine(path))
        assert not path.exists()
        assert len({m.name for m in moved}) == 3
        assert all(CORRUPT_SUFFIX in m.name for m in moved)
        assert moved[0].read_text() == "garbage 0"

    def test_discard_stale_tmp(self, tmp_path):
        (tmp_path / "a.json.123.tmp").write_text("x")
        (tmp_path / "b.json").write_text("keep")
        assert discard_stale_tmp(tmp_path) == 1
        assert (tmp_path / "b.json").exists()
        assert discard_stale_tmp(tmp_path / "missing") == 0


class TestTaskPool:
    def test_runs_and_returns_in_task_order(self, tmp_path):
        tasks = [_square_task(tmp_path, n) for n in (3, 1, 2)]
        results = TaskPool(jobs=1).run(tasks, loader=_load_square)
        assert list(results) == ["sq3", "sq1", "sq2"]
        assert results["sq3"] == 9

    def test_resume_reuses_valid_results(self, tmp_path):
        task = _square_task(tmp_path, 4)
        pool = TaskPool(jobs=1)
        pool.run([task], loader=_load_square)
        stamp = task.path.stat().st_mtime_ns
        again = pool.run([task], loader=_load_square)
        assert again["sq4"] == 16
        assert task.path.stat().st_mtime_ns == stamp  # not recomputed
        assert pool.last_report.reused == ["sq4"]

    def test_force_recomputes(self, tmp_path):
        task = _square_task(tmp_path, 4)
        pool = TaskPool(jobs=1)
        pool.run([task], loader=_load_square)
        pool.run([task], loader=_load_square, force=True)
        assert pool.last_report.computed == ["sq4"]

    def test_corrupt_result_quarantined_and_rerun(self, tmp_path):
        task = _square_task(tmp_path, 5)
        task.path.write_text('{"n": 5, "squ')  # truncated mid-write
        pool = TaskPool(jobs=1, ledger_path=tmp_path / "errors.jsonl")
        results = pool.run([task], loader=_load_square)
        assert results["sq5"] == 25
        assert json.loads(task.path.read_text())["square"] == 25
        corrupt = list(tmp_path.glob(f"*{CORRUPT_SUFFIX}*"))
        assert len(corrupt) == 1
        assert pool.last_report.quarantined == ["sq5"]
        ledger = [json.loads(line) for line in
                  (tmp_path / "errors.jsonl").read_text().splitlines()]
        assert ledger[0]["action"] == "quarantine"

    def test_transient_failure_retried_with_backoff(self, tmp_path):
        path = tmp_path / "r.json"
        task = Task(key="flaky", path=path, fn=_flaky_square,
                    args=(str(tmp_path / "calls"), 2, 6, str(path)))
        sleeps = []
        pool = TaskPool(jobs=1, max_attempts=3, backoff_s=0.5,
                        backoff_jitter=0, clock=lambda: 0.0,
                        ledger_path=tmp_path / "errors.jsonl",
                        sleep=sleeps.append)
        results = pool.run([task], loader=_load_square)
        assert results["flaky"] == 36
        assert sleeps == [0.5, 1.0]  # exponential backoff, jitter disabled
        ledger = [json.loads(line) for line in
                  (tmp_path / "errors.jsonl").read_text().splitlines()]
        assert [r["attempt"] for r in ledger] == [1, 2]
        assert all(r["action"] == "attempt" for r in ledger)

    def test_permanent_failure_does_not_kill_other_points(self, tmp_path):
        bad_path = tmp_path / "bad.json"
        tasks = [_square_task(tmp_path, 7),
                 Task(key="bad", path=bad_path, fn=_always_fail,
                      args=(str(bad_path),)),
                 _square_task(tmp_path, 8)]
        pool = TaskPool(jobs=1, max_attempts=2, backoff_s=0, sleep=lambda s: None,
                        ledger_path=tmp_path / "errors.jsonl")
        with pytest.raises(ExecutionError, match="1/3 points failed"):
            pool.run(tasks, loader=_load_square)
        # The good points were still computed and persisted...
        assert _load_square(tmp_path / "sq7.json") == 49
        assert _load_square(tmp_path / "sq8.json") == 64
        # ...and the ledger has the full failure history.
        ledger = [json.loads(line) for line in
                  (tmp_path / "errors.jsonl").read_text().splitlines()]
        assert [r["action"] for r in ledger] == \
            ["attempt", "attempt", "abandoned"]
        # A follow-up run reuses the good rows and only re-attempts "bad".
        with pytest.raises(ExecutionError):
            pool.run(tasks, loader=_load_square)
        assert pool.last_report.reused == ["sq7", "sq8"]

    def test_parallel_jobs_use_processes(self, tmp_path):
        tasks = [_square_task(tmp_path, n) for n in range(6)]
        results = TaskPool(jobs=2).run(tasks, loader=_load_square)
        assert [results[f"sq{n}"] for n in range(6)] == \
            [n * n for n in range(6)]

    def test_progress_failure_does_not_quarantine_good_results(self, tmp_path):
        # A progress reporter blowing up (e.g. BrokenPipeError when stdout
        # is piped into `head`) must not be misattributed as a result-load
        # failure: the computed row stays on disk, un-quarantined.
        class ExplodingProgress(ProgressReporter):
            def task_done(self, key):
                raise BrokenPipeError("stdout closed")

        task = _square_task(tmp_path, 9)
        with pytest.raises(BrokenPipeError):
            TaskPool(jobs=1, progress=ExplodingProgress()).run(
                [task], loader=_load_square)
        assert task.path.exists()
        assert list(tmp_path.glob(f"*{CORRUPT_SUFFIX}*")) == []
        results = TaskPool(jobs=1).run([task], loader=_load_square)
        assert results["sq9"] == 81

    def test_print_progress_survives_closed_stream(self, tmp_path):
        import io

        class ClosedStream(io.StringIO):
            def write(self, text):
                raise BrokenPipeError("closed")

        from repro.runtime import PrintProgress
        progress = PrintProgress(stream=ClosedStream())
        task = _square_task(tmp_path, 10)
        results = TaskPool(jobs=1, progress=progress).run(
            [task], loader=_load_square)
        assert results["sq10"] == 100  # run completed despite dead stdout

    def test_duplicate_keys_rejected(self, tmp_path):
        task = _square_task(tmp_path, 1)
        with pytest.raises(ConfigError, match="unique"):
            TaskPool(jobs=1).run([task, task], loader=_load_square)

    def test_invalid_pool_config_rejected(self):
        with pytest.raises(ConfigError):
            TaskPool(jobs=0)
        with pytest.raises(ConfigError):
            TaskPool(max_attempts=0)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(values=st.lists(st.integers(min_value=0, max_value=999),
                           min_size=1, max_size=8, unique=True))
    def test_parallel_output_equals_serial_output(self, tmp_path, values):
        """Property: jobs>1 produces byte-identical results to jobs=1."""
        serial_dir = tmp_path / f"serial-{len(list(tmp_path.iterdir()))}"
        parallel_dir = serial_dir.with_name(serial_dir.name + "-par")
        outputs = {}
        for jobs, out_dir in ((1, serial_dir), (2, parallel_dir)):
            out_dir.mkdir()
            tasks = [_square_task(out_dir, n) for n in values]
            results = TaskPool(jobs=jobs).run(tasks, loader=_load_square)
            outputs[jobs] = (results,
                             {t.path.name: t.path.read_bytes() for t in tasks})
        assert outputs[1] == outputs[2]


class TestLedgerCapAndTiming:
    def test_records_carry_attempt_and_monotonic_elapsed(self, tmp_path):
        path = tmp_path / "r.json"
        task = Task(key="flaky", path=path, fn=_flaky_square,
                    args=(str(tmp_path / "calls"), 2, 6, str(path)))
        pool = TaskPool(jobs=1, max_attempts=3, backoff_s=0,
                        ledger_path=tmp_path / "errors.jsonl",
                        sleep=lambda s: None)
        pool.run([task], loader=_load_square)
        ledger = [json.loads(line) for line in
                  (tmp_path / "errors.jsonl").read_text().splitlines()]
        assert [r["attempt"] for r in ledger] == [1, 2]
        elapsed = [r["elapsed_s"] for r in ledger]
        assert all(e >= 0 for e in elapsed)
        assert elapsed == sorted(elapsed)  # monotonic within the run

    def test_ledger_rotates_oldest_first(self, tmp_path):
        ledger_path = tmp_path / "errors.jsonl"
        bad_path = tmp_path / "bad.json"
        task = Task(key="bad", path=bad_path, fn=_always_fail,
                    args=(str(bad_path),))
        pool = TaskPool(jobs=1, max_attempts=8, backoff_s=0,
                        sleep=lambda s: None, ledger_path=ledger_path,
                        ledger_max_bytes=400)
        with pytest.raises(ExecutionError):
            pool.run([task], loader=_load_square)
        assert ledger_path.stat().st_size <= 400
        ledger = [json.loads(line) for line in
                  ledger_path.read_text().splitlines()]
        # The newest records survive; the oldest attempts were evicted.
        assert ledger
        assert ledger[-1]["action"] == "abandoned"
        assert ledger[0]["attempt"] > 1
        assert len(ledger) < 9  # 8 attempts + abandoned were written

    def test_oversized_single_record_kept(self, tmp_path):
        ledger_path = tmp_path / "errors.jsonl"
        pool = TaskPool(jobs=1, ledger_path=ledger_path, ledger_max_bytes=10)
        pool._record("key", 1, "x" * 100, action="attempt")
        ledger = [json.loads(line) for line in
                  ledger_path.read_text().splitlines()]
        assert len(ledger) == 1  # never trimmed to an empty ledger

    def test_invalid_cap_rejected(self):
        with pytest.raises(ConfigError):
            TaskPool(ledger_max_bytes=0)


# ----------------------------------------------------------------------
# Hardened-runtime workers (module-level: they cross the pool boundary).
# ----------------------------------------------------------------------
def _sigkill_once_then_square(marker: str, n: int, path: str) -> None:
    import os
    import signal
    if not Path(marker).exists():
        Path(marker).write_text("died")
        os.kill(os.getpid(), signal.SIGKILL)
    _write_square(n, path)


def _sigkill_always(n: int, path: str) -> None:
    import os
    import signal
    os.kill(os.getpid(), signal.SIGKILL)


def _hang_once_then_square(marker: str, n: int, path: str) -> None:
    import time
    if not Path(marker).exists():
        Path(marker).write_text("hung")
        time.sleep(60.0)
    _write_square(n, path)


def _config_error_worker(path: str) -> None:
    raise ConfigError("deterministic bad config")


def _enospc_then_flaky_square(marker: str, n: int, path: str) -> None:
    """Hits a full disk on its first call and a transient error on its
    second, then succeeds."""
    import errno
    calls = len(Path(marker).read_text()) if Path(marker).exists() else 0
    Path(marker).write_text("x" * (calls + 1))
    if calls == 0:
        raise OSError(errno.ENOSPC, "No space left on device", path)
    if calls == 1:
        raise RuntimeError("transient hiccup")
    _write_square(n, path)


def _kernel_sensitive_square(mode: str, n: int, path: str) -> None:
    """Fails on the "fast" args, succeeds on the "oracle" fallback args."""
    if mode == "fast":
        raise RuntimeError("injected fast-kernel fault")
    _write_square(n, path)


class TestBrokenPoolRecovery:
    def test_sigkilled_worker_does_not_fail_survivors(self, tmp_path):
        """A worker SIGKILLed mid-task (OOM-killer style) breaks the whole
        ProcessPoolExecutor; the engine must rebuild it and complete every
        point, charging no innocent task an attempt."""
        tasks = [_square_task(tmp_path, n) for n in range(4)]
        marker = str(tmp_path / "killed.marker")
        from dataclasses import replace
        tasks[1] = replace(tasks[1], fn=_sigkill_once_then_square,
                           args=(marker,) + tasks[1].args)
        pool = TaskPool(jobs=2, backoff_s=0.01,
                        ledger_path=tmp_path / "errors.jsonl")
        results = pool.run(tasks, loader=_load_square)
        assert [results[f"sq{n}"] for n in range(4)] == [0, 1, 4, 9]
        assert pool.last_report.pool_rebuilds >= 1
        assert pool.last_report.failed == {}

    def test_poison_task_fails_alone_with_infrastructure_class(self, tmp_path):
        """A task that kills its worker on *every* attempt must end up
        isolated and abandoned — without taking any other point with it."""
        tasks = [_square_task(tmp_path, n) for n in range(3)]
        bad_path = tmp_path / "poison.json"
        tasks.append(Task(key="poison", path=bad_path, fn=_sigkill_always,
                          args=(0, str(bad_path))))
        pool = TaskPool(jobs=2, max_attempts=2, max_pool_rebuilds=2,
                        backoff_s=0.01,
                        ledger_path=tmp_path / "errors.jsonl")
        with pytest.raises(ExecutionError,
                           match=r"poison \[infrastructure, \d+ attempts?\]"):
            pool.run(tasks, loader=_load_square)
        report = pool.last_report
        assert set(report.failed) == {"poison"}
        assert report.failure_classes["poison"] == "infrastructure"
        assert report.final_mode == "isolated"
        for n in range(3):
            assert _load_square(tmp_path / f"sq{n}.json") == n * n


class TestWatchdog:
    def test_hung_worker_killed_at_deadline_and_retried(self, tmp_path):
        import time
        tasks = [_square_task(tmp_path, n) for n in range(3)]
        marker = str(tmp_path / "hung.marker")
        from dataclasses import replace
        tasks[0] = replace(tasks[0], fn=_hang_once_then_square,
                           args=(marker,) + tasks[0].args)
        pool = TaskPool(jobs=2, timeout_s=0.5, backoff_s=0.01,
                        ledger_path=tmp_path / "errors.jsonl")
        started = time.monotonic()
        results = pool.run(tasks, loader=_load_square)
        assert time.monotonic() - started < 30.0  # never waited out the hang
        assert [results[f"sq{n}"] for n in range(3)] == [0, 1, 4]
        report = pool.last_report
        assert report.watchdog_kills >= 1
        assert "sq0" in report.timeouts
        ledger = [json.loads(line) for line in
                  (tmp_path / "errors.jsonl").read_text().splitlines()]
        timeout_records = [r for r in ledger if r["action"] == "timeout"]
        assert timeout_records
        assert all(r["class"] == "timeout" for r in timeout_records)

    def test_per_task_timeout_overrides_pool_timeout(self, tmp_path):
        from dataclasses import replace
        marker = str(tmp_path / "hung.marker")
        task = _square_task(tmp_path, 5)
        task = replace(task, fn=_hang_once_then_square,
                       args=(marker,) + task.args, timeout_s=0.5)
        # Pool-wide deadline is generous; the task's own is what fires.
        pool = TaskPool(jobs=2, timeout_s=300.0, backoff_s=0.01)
        results = pool.run([task, _square_task(tmp_path, 6)],
                           loader=_load_square)
        assert results["sq5"] == 25
        assert pool.last_report.timeouts == ["sq5"]


class TestFailureClassification:
    def test_config_error_fails_immediately_without_retries(self, tmp_path,
                                                            make_pool):
        bad_path = tmp_path / "bad.json"
        tasks = [Task(key="bad", path=bad_path, fn=_config_error_worker,
                      args=(str(bad_path),)),
                 _square_task(tmp_path, 3)]
        pool = make_pool(max_attempts=5, backoff_s=0.01,
                         sleep=lambda s: None,
                         ledger_path=tmp_path / "errors.jsonl")
        with pytest.raises(ExecutionError,
                           match=r"bad \[permanent, 1 attempt\]"):
            pool.run(tasks, loader=_load_square)
        report = pool.last_report
        assert report.failure_classes["bad"] == "permanent"
        assert report.retried == []  # no futile retries of a ConfigError
        ledger = _ledger(tmp_path / "errors.jsonl")
        attempts = [r for r in ledger if r["action"] == "attempt"]
        assert len(attempts) == 1
        assert attempts[0]["class"] == "permanent"
        # The abandonment names the worker the attempt ran on.
        assert [(r["action"], r["worker"]) for r in ledger] == [
            ("attempt", _ledger_worker(pool)),
            ("abandoned", _ledger_worker(pool))]

    def test_failure_message_names_each_points_charged_attempts(
            self, tmp_path, make_pool):
        """The message counts what each abandoned point was charged, as
        its ``abandoned`` record does, not the pool's ``max_attempts``."""
        bad_path, flaky_path = tmp_path / "bad.json", tmp_path / "flaky.json"
        tasks = [Task(key="bad", path=bad_path, fn=_config_error_worker,
                      args=(str(bad_path),)),
                 Task(key="flaky", path=flaky_path, fn=_always_fail,
                      args=(str(flaky_path),))]
        pool = make_pool(max_attempts=2, backoff_s=0.01,
                         sleep=lambda s: None,
                         ledger_path=tmp_path / "errors.jsonl")
        with pytest.raises(ExecutionError) as raised:
            pool.run(tasks, loader=_load_square)
        assert str(raised.value).startswith(
            "2/2 points failed permanently: bad [permanent, 1 attempt], "
            "flaky [transient, 2 attempts] (ledger: ")
        abandoned = {r["key"]: r["attempt"]
                     for r in _ledger(tmp_path / "errors.jsonl")
                     if r["action"] == "abandoned"}
        assert abandoned == {"bad": 1, "flaky": 2}

    def test_enospc_pauses_probes_and_recovers_without_charging(
            self, tmp_path, make_pool, monkeypatch):
        marker = str(tmp_path / "full.marker")
        path = tmp_path / "r.json"
        task = Task(key="point", path=path, fn=_enospc_then_flaky_square,
                    args=(marker, 6, str(path)))
        probed = []
        probe = engine._probe_ok
        monkeypatch.setattr(engine, "_probe_ok",
                            lambda t: probed.append(t.key) or probe(t))
        # max_attempts=2: the transient failure after the full disk is
        # attempt 1 only because the ENOSPC attempt was refunded; charged,
        # it would be attempt 2 and the point would be abandoned.
        pool = make_pool(max_attempts=2, backoff_s=0.01, infra_pause_s=0.01,
                         ledger_path=tmp_path / "errors.jsonl")
        results = pool.run([task], loader=_load_square)
        assert results["point"] == 36
        assert pool.last_report.infra_pauses == 1
        assert probed == ["point"]  # the result directory, before retrying
        worker = _ledger_worker(pool)
        ledger = _ledger(tmp_path / "errors.jsonl")
        assert [(r["action"], r["attempt"], r["class"], r["worker"])
                for r in ledger] == [
            ("infra-pause", 1, "infrastructure", worker),
            ("attempt", 1, "transient", worker)]

    def test_quarantined_count_matches_moved_files(
            self, tmp_path, make_pool, coordinator_disk_full_once):
        """``counts.quarantined`` counts exactly the files quarantine()
        moved: one for a torn result, none for a full disk at publish
        (fleet coordinators only; a local pool never publishes), which
        is an infrastructure pause, not a charged attempt."""
        torn = tmp_path / "torn.json"
        tasks = [Task(key="torn", path=torn, fn=_truncate_once_then_square,
                      args=(str(tmp_path / "torn.marker"), 2, str(torn))),
                 _square_task(tmp_path, 3)]
        coordinator_disk_full_once("sq3.json")
        pool = make_pool(backoff_s=0, infra_pause_s=0.01,
                         sleep=lambda s: None,
                         ledger_path=tmp_path / "errors.jsonl")
        assert pool.run(tasks, loader=_load_square) == {"torn": 4, "sq3": 9}
        counts = json.loads((tmp_path / "run_report.json").read_text()
                            )["counts"]
        moved = list(tmp_path.glob(f"*{CORRUPT_SUFFIX}*"))
        assert counts["quarantined"] == len(moved) == 1
        assert counts["retries"] == 1  # only the torn result was charged
        ledger = _ledger(tmp_path / "errors.jsonl")
        assert [r["key"] for r in ledger if r["action"] == "attempt"] == \
            ["torn"]


class TestKernelDegradation:
    def test_fallback_args_used_after_primary_failure(self, tmp_path):
        path = tmp_path / "r.json"
        task = Task(key="point", path=path, fn=_kernel_sensitive_square,
                    args=("fast", 7, str(path)),
                    fallback_args=("oracle", 7, str(path)))
        # max_attempts=1: the degradation re-run is free, so the point
        # still succeeds even though its single attempt failed.
        pool = TaskPool(jobs=1, max_attempts=1,
                        ledger_path=tmp_path / "errors.jsonl")
        results = pool.run([task], loader=_load_square)
        assert results["point"] == 49
        assert pool.last_report.degraded == ["point"]
        ledger = [json.loads(line) for line in
                  (tmp_path / "errors.jsonl").read_text().splitlines()]
        assert [r["action"] for r in ledger] == ["attempt", "degraded"]

    def test_degradation_happens_at_most_once(self, tmp_path):
        path = tmp_path / "r.json"
        task = Task(key="point", path=path, fn=_kernel_sensitive_square,
                    args=("fast", 7, str(path)),
                    fallback_args=("fast", 7, str(path)))  # fallback also bad
        pool = TaskPool(jobs=1, max_attempts=2, backoff_s=0,
                        sleep=lambda s: None,
                        ledger_path=tmp_path / "errors.jsonl")
        with pytest.raises(ExecutionError):
            pool.run([task], loader=_load_square)
        ledger = [json.loads(line) for line in
                  (tmp_path / "errors.jsonl").read_text().splitlines()]
        assert [r["action"] for r in ledger].count("degraded") == 1


class TestBackoffSchedule:
    def test_backoff_bounded_and_jitter_deterministic(self):
        pool = TaskPool(jobs=1, backoff_s=0.5, backoff_max_s=4.0,
                        backoff_jitter=0.25, seed=7)
        twin = TaskPool(jobs=1, backoff_s=0.5, backoff_max_s=4.0,
                        backoff_jitter=0.25, seed=7)
        other = TaskPool(jobs=1, backoff_s=0.5, backoff_max_s=4.0,
                         backoff_jitter=0.25, seed=8)
        delays = [pool.backoff_for("k", attempt) for attempt in range(1, 12)]
        # Bounded: never beyond the cap plus its jitter fraction.
        assert all(d <= 4.0 * 1.25 for d in delays)
        assert all(d >= 0.5 for d in delays)
        # Deterministic per (seed, key, attempt); different seeds differ.
        assert delays == [twin.backoff_for("k", a) for a in range(1, 12)]
        assert delays != [other.backoff_for("k", a) for a in range(1, 12)]
        # Exponential base growth before the cap.
        plain = TaskPool(jobs=1, backoff_s=0.5, backoff_max_s=64.0,
                         backoff_jitter=0)
        assert [plain.backoff_for("k", a) for a in (1, 2, 3)] == \
            [0.5, 1.0, 2.0]

    def test_retry_wait_does_not_block_completed_work(self, tmp_path):
        """Retries are scheduled, not slept through: other queued tasks
        complete before the engine waits out a backoff."""
        events = []

        class Recorder(ProgressReporter):
            def task_done(self, key):
                events.append(("done", key))

            def task_retry(self, key, attempt, error, *, classification):
                events.append(("retry", key))

        flaky_path = tmp_path / "flaky.json"
        tasks = [Task(key="flaky", path=flaky_path, fn=_flaky_square,
                      args=(str(tmp_path / "calls"), 1, 6, str(flaky_path))),
                 _square_task(tmp_path, 3)]
        pool = TaskPool(jobs=1, backoff_s=5.0, backoff_jitter=0,
                        clock=lambda: 0.0,
                        sleep=lambda s: events.append(("sleep", s)),
                        progress=Recorder())
        results = pool.run(tasks, loader=_load_square)
        assert results["flaky"] == 36 and results["sq3"] == 9
        # The healthy task finished before any backoff sleep happened.
        assert events.index(("done", "sq3")) < events.index(("sleep", 5.0))


class TestRunReport:
    def test_run_report_written_next_to_ledger(self, tmp_path):
        from repro.runtime import REPORT_NAME
        tasks = [_square_task(tmp_path, n) for n in (1, 2)]
        pool = TaskPool(jobs=1, ledger_path=tmp_path / "errors.jsonl")
        pool.run(tasks, loader=_load_square)
        payload = json.loads((tmp_path / REPORT_NAME).read_text())
        assert payload["schema_version"] == 2
        assert payload["tasks"] == 2
        assert payload["counts"]["computed"] == 2
        assert payload["counts"]["failed"] == 0
        assert payload["pool"]["final_mode"] == "inline"
        assert payload["elapsed_s"] >= 0
        # v2 additions; the local scheduler has no named workers.
        assert payload["scheduler"] == "local"
        assert payload["workers"] == {}
        assert payload["leases"] == {"revoked": 0}

    def test_schema_v2_preserves_every_v1_field(self, tmp_path):
        """Version gate: a v1 reader consuming only v1 fields keeps
        working on a v2 report — every v1 key is present with its v1
        shape, and the v2 additions are separate new keys."""
        from repro.runtime import REPORT_NAME
        tasks = [_square_task(tmp_path, n) for n in (1, 2)]
        pool = TaskPool(jobs=1, ledger_path=tmp_path / "errors.jsonl")
        pool.run(tasks, loader=_load_square)
        payload = json.loads((tmp_path / REPORT_NAME).read_text())
        v1_shapes = {"schema_version": int, "jobs": int, "tasks": int,
                     "elapsed_s": (int, float), "counts": dict,
                     "pool": dict, "failure_classes": dict, "failed": dict,
                     "degraded_keys": list, "timeout_keys": list}
        for key, shape in v1_shapes.items():
            assert isinstance(payload[key], shape), key
        for count in ("reused", "computed", "quarantined", "retries",
                      "timeouts", "degraded", "infra_pauses", "failed"):
            assert isinstance(payload["counts"][count], int)
        for key in ("rebuilds", "watchdog_kills", "final_mode"):
            assert key in payload["pool"]

    def test_describe_run_report_accepts_v1_payload(self):
        """A v1 report (no scheduler/workers/leases keys) still renders."""
        v1 = {"schema_version": 1,
              "counts": {"computed": 3, "reused": 1, "failed": 0},
              "pool": {"rebuilds": 0, "watchdog_kills": 0,
                       "final_mode": "pool"},
              "failure_classes": {}}
        line = describe_run_report(v1)
        assert "computed 3" in line and "reused 1" in line
        assert "workers" not in line and "leases" not in line

    def test_describe_run_report_renders_v2_fleet_fields(self):
        v2 = {"schema_version": 2, "scheduler": "fleet",
              "counts": {"computed": 4, "reused": 0, "failed": 0},
              "pool": {"rebuilds": 0, "watchdog_kills": 0,
                       "final_mode": "fleet"},
              "workers": {"w1": {"tasks": 2}, "w2": {"tasks": 2}},
              "leases": {"revoked": 3},
              "failure_classes": {}}
        line = describe_run_report(v2)
        assert "workers 2" in line and "leases revoked 3" in line

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(shapes=st.lists(st.sampled_from(["good", "flaky", "torn", "bad"]),
                           min_size=1, max_size=6))
    def test_run_report_counts_consistent_with_ledger(self, tmp_path,
                                                      make_pool, shapes):
        """Property: whatever mix of healthy/flaky/torn/permanently-failing
        tasks runs, on either backend, run_report.json agrees with the
        error ledger, the task list and the quarantined files."""
        from repro.runtime import REPORT_NAME
        run_dir = tmp_path / f"case-{len(list(tmp_path.iterdir()))}"
        run_dir.mkdir()
        tasks = []
        for index, shape in enumerate(shapes):
            path = run_dir / f"t{index}.json"
            if shape == "good":
                tasks.append(Task(key=f"t{index}", path=path,
                                  fn=_write_square,
                                  args=(index, str(path))))
            elif shape == "flaky":
                tasks.append(Task(key=f"t{index}", path=path,
                                  fn=_flaky_square,
                                  args=(str(run_dir / f"calls{index}"), 1,
                                        index, str(path))))
            elif shape == "torn":
                tasks.append(Task(key=f"t{index}", path=path,
                                  fn=_truncate_once_then_square,
                                  args=(str(run_dir / f"torn{index}"),
                                        index, str(path))))
            else:
                tasks.append(Task(key=f"t{index}", path=path,
                                  fn=_always_fail, args=(str(path),)))
        pool = make_pool(max_attempts=2, backoff_s=0, sleep=lambda s: None,
                         ledger_path=run_dir / "errors.jsonl")
        try:
            pool.run(tasks, loader=_load_square)
        except ExecutionError:
            pass
        payload = json.loads((run_dir / REPORT_NAME).read_text())
        counts = payload["counts"]
        assert payload["tasks"] == len(tasks)
        assert counts["computed"] + counts["reused"] + counts["failed"] \
            == len(tasks)
        assert counts["quarantined"] == \
            len(list(run_dir.glob(f"*{CORRUPT_SUFFIX}*")))
        ledger_path = run_dir / "errors.jsonl"
        ledger = ([json.loads(line) for line in
                   ledger_path.read_text().splitlines()]
                  if ledger_path.exists() else [])
        abandoned = {r["key"] for r in ledger if r["action"] == "abandoned"}
        assert set(payload["failed"]) == abandoned
        assert counts["failed"] == len(abandoned)
        for key, detail in payload["failed"].items():
            assert detail["class"] in ("transient", "permanent", "timeout",
                                       "infrastructure")
        class_totals = sum(payload["failure_classes"].values())
        assert class_totals == counts["failed"]


class TestDurableWrites:
    def test_durable_write_fsyncs_file_and_directory(self, tmp_path,
                                                     monkeypatch):
        import os
        synced = []
        real_fsync = os.fsync

        def spy(fd):
            synced.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        path = tmp_path / "r.json"
        write_atomic(path, "payload", durable=True)
        assert path.read_text() == "payload"
        assert len(synced) == 2  # the temp file, then the parent directory

    def test_default_write_skips_fsync(self, tmp_path, monkeypatch):
        import os
        synced = []
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd))
        write_atomic(tmp_path / "r.json", "payload")
        assert synced == []

"""Deterministic *runtime* chaos scenarios for the execution engine.

:mod:`repro.validation.faults` injects faults into the simulated
*hardware* (dropped refreshes, corrupted calibration); this module does
the same to the *machinery that runs the experiments*.  Each scenario
breaks the runtime in one concrete way — a worker SIGKILLed mid-task, a
worker that hangs past its deadline, a result torn mid-write, a full
disk, a bit-flipped cache entry, a fast kernel raising on one grid point
— and asserts the hardened :class:`~repro.runtime.TaskPool` ends in a
*classified* outcome:

* the run completes, and every completed result is **byte-identical** to
  a fault-free run (the fault was ``absorbed``); or
* the run fails with an :class:`~repro.errors.ExecutionError` naming
  exactly the genuinely poisoned points, everything else byte-identical
  (the fault was ``detected`` and contained).

All randomness (which grid point gets poisoned) derives from the chaos
seed via :func:`repro.rng.derive_seed`, so a chaos run is
bit-reproducible; fault *state* ("already failed once") lives in marker
files on disk, because the failing code runs in worker processes that
share nothing with the parent but the filesystem.

The scenarios reuse the fault-matrix vocabulary
(:class:`~repro.validation.faults.FaultScenario`,
``DETECTED``/``ABSORBED``/``MISSED``) and the same report type, so
``repro-experiments chaos`` reads like ``validate``: every scenario must
land on its expected status or the matrix fails.
"""

from __future__ import annotations

import errno
import json
import os
import signal
import time
from dataclasses import replace
from pathlib import Path

from repro.errors import ConfigError, ExecutionError
from repro.exec import fallback_kernel
from repro.rng import derive_seed
from repro.runtime import (
    CORRUPT_SUFFIX,
    LEDGER_NAME,
    REPORT_NAME,
    RunOptions,
    Task,
    TaskPool,
    make_scheduler,
    write_atomic,
)
from repro.runtime.cache import DigestCache
from repro.validation.faults import (
    ABSORBED,
    MISSED,
    FaultResult,
    FaultScenario,
)
from repro.validation.matrix import MatrixReport

__all__ = ["ALL_CHAOS", "run_chaos_matrix"]


# ----------------------------------------------------------------------
# worker functions (module-level: they cross the process-pool boundary)
# ----------------------------------------------------------------------
def _compute_point(n: int, path: str) -> None:
    """The healthy worker every scenario's grid runs."""
    write_atomic(path, json.dumps({"n": n, "value": n * n + 1},
                                  sort_keys=True) + "\n")


def _load_point(path: str | Path) -> int:
    payload = json.loads(Path(path).read_text())
    if set(payload) != {"n", "value"}:
        raise ValueError(f"malformed point at {path}")
    return payload["value"]


def _first_time(marker: str) -> bool:
    """Atomically claim first-failure state via a marker file.

    ``O_EXCL`` keeps the claim race-free across worker processes: exactly
    one attempt observes ``True`` no matter how execution interleaves.
    """
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        return True
    except FileExistsError:
        return False


def _sigkill_once(marker: str, n: int, path: str) -> None:
    """First attempt dies like the OOM killer struck; retries succeed."""
    if _first_time(marker):
        os.kill(os.getpid(), signal.SIGKILL)
    _compute_point(n, path)


def _sigkill_always(n: int, path: str) -> None:
    """A poison task: every attempt takes its worker process down."""
    os.kill(os.getpid(), signal.SIGKILL)


def _hang_once(marker: str, n: int, path: str) -> None:
    """First attempt wedges far past any deadline; retries succeed."""
    if _first_time(marker):
        time.sleep(60.0)
    _compute_point(n, path)


def _truncate_once(marker: str, n: int, path: str) -> None:
    """First attempt tears its write (a crashed non-atomic writer)."""
    if _first_time(marker):
        Path(path).write_text('{"n": %d, "val' % n)  # torn mid-write
        return
    _compute_point(n, path)


def _enospc_once(marker: str, n: int, path: str) -> None:
    """First attempt hits a full disk; the condition then clears."""
    if _first_time(marker):
        raise OSError(errno.ENOSPC, "No space left on device", path)
    _compute_point(n, path)


def _config_error(n: int, path: str) -> None:
    """A deterministic library error: retrying cannot help."""
    raise ConfigError(f"point {n}: invalid configuration (injected)")


def _write_then_die(marker: str, n: int, path: str) -> None:
    """First attempt computes its result, then dies before reporting it.

    Under the fleet scheduler the result lands in the worker's private
    scratch dir and dies with the worker — the coordinator must requeue
    the lease, and the recomputed result must be byte-identical.
    """
    _compute_point(n, path)
    if _first_time(marker):
        os.kill(os.getpid(), signal.SIGKILL)


def _slow_once(marker: str, n: int, path: str) -> None:
    """First attempt overruns any reasonable lease deadline; retries are
    fast.  The sleep is far above the scenario's 1s deadline but bounded,
    so even a broken revocation path cannot hang the suite."""
    if _first_time(marker):
        time.sleep(8.0)
    _compute_point(n, path)


def _faulty_characterize(module_id: str, config, path: str,
                         kernel: str) -> None:
    """Characterization worker whose fast kernel is broken.

    Raises for any kernel that has a safer fallback (i.e. any non-oracle
    kernel) and delegates to the real worker for the oracle itself — the
    injected equivalent of a numpy edge case in the array tier.
    """
    from repro.characterization.campaign import _characterize_to

    if fallback_kernel("device", kernel) is not None:
        raise RuntimeError(f"injected {kernel}-kernel fault for {module_id}")
    _characterize_to(module_id, config, path, kernel)


# ----------------------------------------------------------------------
# scenario scaffolding
# ----------------------------------------------------------------------
_NPOINTS = 4


def _grid_tasks(directory: Path) -> list[Task]:
    return [Task(key=f"p{n}", path=directory / f"p{n}.json",
                 fn=_compute_point, args=(n, str(directory / f"p{n}.json")))
            for n in range(_NPOINTS)]


def _pool(directory: Path, **overrides) -> TaskPool:
    options = dict(jobs=1, max_attempts=3, backoff_s=0.01,
                   ledger_path=directory / LEDGER_NAME)
    options.update(overrides)
    return TaskPool(**options)


def _fleet_pool(directory: Path, *,
                timeout_s: float | None = None) -> TaskPool:
    """A loopback fleet scheduler with the same chaos-friendly knobs."""
    options = RunOptions(scheduler="fleet", workers=2,
                         task_timeout_s=timeout_s)
    return make_scheduler(options, max_attempts=3, backoff_s=0.01,
                          ledger_path=directory / LEDGER_NAME,
                          report_path=directory / REPORT_NAME)


def _result_bytes(directory: Path) -> dict[str, bytes]:
    """Result rows only — runtime telemetry is not part of byte-identity."""
    return {p.name: p.read_bytes()
            for p in sorted(directory.glob("*.json"))
            if p.name != REPORT_NAME}


def _ledger_actions(directory: Path) -> list[dict]:
    path = directory / LEDGER_NAME
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines()]


class _ChaosScenario(FaultScenario):
    """A runtime chaos scenario over a small reference grid."""

    def poison_index(self, seed: int) -> int:
        """Which grid point the fault lands on (seed-derived)."""
        return derive_seed(seed, self.name) % _NPOINTS

    def reference(self, workdir: Path) -> dict[str, bytes]:
        """Fault-free run of the same grid, for byte-comparison."""
        ref_dir = workdir / "reference"
        pool = _pool(ref_dir)
        pool.run(_grid_tasks(ref_dir), loader=_load_point)
        return _result_bytes(ref_dir)


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------
class WorkerSigkillRecovered(_ChaosScenario):
    name = "worker-sigkill-recovered"
    expected = ABSORBED
    description = ("one worker is SIGKILLed mid-task (OOM-killer style); "
                   "the pool is rebuilt and every point still completes")

    def run(self, workdir: Path, seed: int) -> FaultResult:
        poison = self.poison_index(seed)
        run_dir = workdir / "faulted"
        tasks = _grid_tasks(run_dir)
        marker = str(run_dir / "killed.marker")
        run_dir.mkdir(parents=True, exist_ok=True)
        tasks[poison] = replace(
            tasks[poison], fn=_sigkill_once,
            args=(marker,) + tasks[poison].args)
        pool = _pool(run_dir, jobs=2)
        results = pool.run(tasks, loader=_load_point)
        report = pool.last_report
        identical = _result_bytes(run_dir) == self.reference(workdir)
        evidence = (f"{len(results)}/{_NPOINTS} completed, "
                    f"{report.pool_rebuilds} pool rebuild(s), "
                    f"byte-identical={identical}")
        ok = (len(results) == _NPOINTS and report.pool_rebuilds >= 1
              and identical)
        return self._result(ABSORBED if ok else MISSED, evidence)


class WorkerSigkillPoison(_ChaosScenario):
    name = "worker-sigkill-poison"
    description = ("one task SIGKILLs its worker on every attempt; the "
                   "engine isolates it, fails only that point, and every "
                   "other point survives")

    def run(self, workdir: Path, seed: int) -> FaultResult:
        poison = self.poison_index(seed)
        run_dir = workdir / "faulted"
        tasks = _grid_tasks(run_dir)
        poison_key = tasks[poison].key
        tasks[poison] = replace(tasks[poison], fn=_sigkill_always,
                                args=tasks[poison].args)
        pool = _pool(run_dir, jobs=2, max_attempts=2, max_pool_rebuilds=2)
        try:
            pool.run(tasks, loader=_load_point)
        except ExecutionError as error:
            report = pool.last_report
            survivors = _result_bytes(run_dir)
            expected_survivors = {name: blob for name, blob
                                  in self.reference(workdir).items()
                                  if name != f"{poison_key}.json"}
            named_only_poison = (set(report.failed) == {poison_key})
            classified = (report.failure_classes.get(poison_key)
                          == "infrastructure")
            identical = survivors == expected_survivors
            evidence = (f"failed={sorted(report.failed)} "
                        f"class={report.failure_classes.get(poison_key)} "
                        f"mode={report.final_mode} "
                        f"survivors-identical={identical}: {error}")
            return self._checked(
                named_only_poison and classified and identical, evidence)
        return self._result(MISSED,
                            "poison task did not fail the run at all")


class HungWorkerDeadline(_ChaosScenario):
    name = "hung-worker-deadline"
    expected = ABSORBED
    description = ("one worker wedges for 60s; the 1s watchdog kills it "
                   "and the retried point completes without stalling the "
                   "grid")

    def run(self, workdir: Path, seed: int) -> FaultResult:
        poison = self.poison_index(seed)
        run_dir = workdir / "faulted"
        tasks = _grid_tasks(run_dir)
        marker = str(run_dir / "hung.marker")
        run_dir.mkdir(parents=True, exist_ok=True)
        tasks[poison] = replace(
            tasks[poison], fn=_hang_once,
            args=(marker,) + tasks[poison].args)
        pool = _pool(run_dir, jobs=2, timeout_s=1.0)
        started = time.monotonic()
        results = pool.run(tasks, loader=_load_point)
        elapsed = time.monotonic() - started
        report = pool.last_report
        timed_out = [record for record in _ledger_actions(run_dir)
                     if record["action"] == "timeout"]
        identical = _result_bytes(run_dir) == self.reference(workdir)
        ok = (len(results) == _NPOINTS and report.watchdog_kills >= 1
              and timed_out and elapsed < 30.0 and identical)
        evidence = (f"completed in {elapsed:.1f}s (hang was 60s), "
                    f"{report.watchdog_kills} watchdog kill(s), "
                    f"{len(timed_out)} timeout record(s), "
                    f"byte-identical={identical}")
        return self._result(ABSORBED if ok else MISSED, evidence)


class TruncatedResultWrite(_ChaosScenario):
    name = "truncated-result-write"
    description = ("a worker tears its result file mid-write; the loader "
                   "rejects it, the engine quarantines and recomputes")

    def run(self, workdir: Path, seed: int) -> FaultResult:
        poison = self.poison_index(seed)
        run_dir = workdir / "faulted"
        tasks = _grid_tasks(run_dir)
        marker = str(run_dir / "torn.marker")
        run_dir.mkdir(parents=True, exist_ok=True)
        tasks[poison] = replace(
            tasks[poison], fn=_truncate_once,
            args=(marker,) + tasks[poison].args)
        pool = _pool(run_dir)
        results = pool.run(tasks, loader=_load_point)
        quarantined = list(run_dir.glob(f"*{CORRUPT_SUFFIX}*"))
        identical = _result_bytes(run_dir) == self.reference(workdir)
        evidence = (f"{len(results)}/{_NPOINTS} completed, "
                    f"{len(quarantined)} quarantined file(s), "
                    f"byte-identical={identical}")
        return self._checked(
            len(results) == _NPOINTS and len(quarantined) == 1 and identical,
            evidence)


class EnospcDuringWrite(_ChaosScenario):
    name = "enospc-during-write"
    description = ("a worker hits a full disk (ENOSPC); the engine "
                   "classifies it as infrastructure, pauses, probes, and "
                   "finishes without charging the point an attempt")

    def run(self, workdir: Path, seed: int) -> FaultResult:
        poison = self.poison_index(seed)
        run_dir = workdir / "faulted"
        tasks = _grid_tasks(run_dir)
        marker = str(run_dir / "enospc.marker")
        run_dir.mkdir(parents=True, exist_ok=True)
        tasks[poison] = replace(
            tasks[poison], fn=_enospc_once,
            args=(marker,) + tasks[poison].args)
        pool = _pool(run_dir, infra_pause_s=0.05)
        results = pool.run(tasks, loader=_load_point)
        report = pool.last_report
        pauses = [record for record in _ledger_actions(run_dir)
                  if record["action"] == "infra-pause"
                  and record.get("class") == "infrastructure"]
        identical = _result_bytes(run_dir) == self.reference(workdir)
        evidence = (f"{len(results)}/{_NPOINTS} completed, "
                    f"{report.infra_pauses} infra pause(s), "
                    f"{len(pauses)} classified ledger record(s), "
                    f"byte-identical={identical}")
        return self._checked(
            len(results) == _NPOINTS and report.infra_pauses >= 1
            and pauses and identical, evidence)


class PermanentConfigFault(_ChaosScenario):
    name = "permanent-config-fault"
    description = ("one point raises a deterministic ConfigError; it fails "
                   "in exactly one attempt (no futile retries) and every "
                   "other point survives")

    def run(self, workdir: Path, seed: int) -> FaultResult:
        poison = self.poison_index(seed)
        run_dir = workdir / "faulted"
        tasks = _grid_tasks(run_dir)
        poison_key = tasks[poison].key
        tasks[poison] = replace(tasks[poison], fn=_config_error,
                                args=tasks[poison].args)
        pool = _pool(run_dir, max_attempts=3)
        try:
            pool.run(tasks, loader=_load_point)
        except ExecutionError:
            report = pool.last_report
            attempts = [record for record in _ledger_actions(run_dir)
                        if record["action"] == "attempt"
                        and record["key"] == poison_key]
            classified = (report.failure_classes.get(poison_key)
                          == "permanent")
            survivors = _result_bytes(run_dir)
            expected_survivors = {name: blob for name, blob
                                  in self.reference(workdir).items()
                                  if name != f"{poison_key}.json"}
            identical = survivors == expected_survivors
            evidence = (f"{len(attempts)} attempt record(s) (want exactly "
                        f"1), class={report.failure_classes.get(poison_key)},"
                        f" survivors-identical={identical}")
            return self._checked(
                len(attempts) == 1 and classified and identical, evidence)
        return self._result(MISSED, "permanent fault did not fail the run")


class CacheEntryBitflip(_ChaosScenario):
    name = "cache-entry-bitflip"
    description = ("a persisted cache entry's payload is silently mutated "
                   "on disk; the checksum rejects it and the cache "
                   "recomputes instead of serving the corrupt value")

    def run(self, workdir: Path, seed: int) -> FaultResult:
        cache_dir = workdir / "cache"
        writer = DigestCache(maxsize=4, disk_dir=cache_dir)
        writer.ensure("digest-a")
        writer.put({"point": 1}, {"value": 41})
        writer.put({"point": 2}, {"value": 97})
        # Flip the stored value of entry 1 without touching digest, key,
        # or checksum — valid JSON, valid schema, wrong science.
        path = writer._path({"point": 1})
        payload = json.loads(path.read_text())
        payload["result"]["value"] = 14
        path.write_text(json.dumps(payload, sort_keys=True))
        reader = DigestCache(maxsize=4, disk_dir=cache_dir)
        reader.ensure("digest-a")
        flipped = reader.get({"point": 1})
        intact = reader.get({"point": 2})
        evidence = (f"mutated entry -> {flipped!r} (want miss), intact "
                    f"entry -> {intact!r}, corrupt_entries="
                    f"{reader.corrupt_entries}")
        return self._checked(
            flipped is None and reader.corrupt_entries == 1
            and intact == {"value": 97}, evidence)


class DegradedKernelCampaign(_ChaosScenario):
    name = "degraded-kernel-campaign"
    expected = ABSORBED
    description = ("the array device kernel raises on one module; the "
                   "campaign completes on the scalar-oracle fallback with "
                   "byte-identical measurements")

    def run(self, workdir: Path, seed: int) -> FaultResult:
        from repro.characterization.campaign import (
            CampaignConfig,
            CharacterizationCampaign,
            _load_checked,
        )

        config = CampaignConfig(module_ids=("S6",), tras_factors=(1.0, 0.36),
                                per_region=2, kernel="array")
        faulted = CharacterizationCampaign(workdir / "faulted", config)
        task = replace(faulted._task("S6"), fn=_faulty_characterize)
        pool = faulted.execution.scheduler(RunOptions())
        results = pool.run([task], loader=_load_checked)
        report = pool.last_report
        # Reference: the same campaign on the oracle kernel throughout
        # (obtained via the degradation hook, the one source of truth).
        oracle = fallback_kernel("device", "array")
        ref_config = replace(config, kernel=oracle)
        reference = CharacterizationCampaign(workdir / "reference",
                                             ref_config)
        reference.run(jobs=1)
        identical = (faulted.result_path("S6").read_bytes()
                     == reference.result_path("S6").read_bytes())
        run_report = json.loads(faulted.report_path().read_text())
        degraded_recorded = run_report["degraded_keys"] == ["S6"]
        ok = ("S6" in results and report.degraded == ["S6"]
              and degraded_recorded and identical)
        evidence = (f"degraded={report.degraded}, run_report degraded_keys="
                    f"{run_report['degraded_keys']}, "
                    f"byte-identical-to-oracle-run={identical}")
        return self._result(ABSORBED if ok else MISSED, evidence)


class FleetWorkerSigkill(_ChaosScenario):
    name = "fleet-worker-sigkill"
    expected = ABSORBED
    description = ("a fleet worker is SIGKILLed mid-task; the coordinator "
                   "requeues its leases uncharged (infrastructure) and the "
                   "surviving worker completes the grid byte-identically")

    def run(self, workdir: Path, seed: int) -> FaultResult:
        poison = self.poison_index(seed)
        run_dir = workdir / "faulted"
        tasks = _grid_tasks(run_dir)
        marker = str(run_dir / "killed.marker")
        run_dir.mkdir(parents=True, exist_ok=True)
        tasks[poison] = replace(
            tasks[poison], fn=_sigkill_once,
            args=(marker,) + tasks[poison].args)
        pool = _fleet_pool(run_dir)
        results = pool.run(tasks, loader=_load_point)
        lost = [record for record in _ledger_actions(run_dir)
                if record["action"] == "worker-lost"
                and record.get("class") == "infrastructure"]
        disconnects = sum(stats["disconnects"]
                          for stats in pool.last_report.workers.values())
        identical = _result_bytes(run_dir) == self.reference(workdir)
        ok = (len(results) == _NPOINTS and lost and disconnects >= 1
              and identical)
        evidence = (f"{len(results)}/{_NPOINTS} completed, "
                    f"{len(lost)} worker-lost record(s), "
                    f"{disconnects} disconnect(s) in the run report, "
                    f"byte-identical={identical}")
        return self._result(ABSORBED if ok else MISSED, evidence)


class FleetWorkerVanishedResult(_ChaosScenario):
    name = "fleet-worker-vanished-result"
    expected = ABSORBED
    description = ("a fleet worker computes a result but dies before "
                   "reporting it; the result dies with the worker's "
                   "scratch dir and the recomputation is byte-identical")

    def run(self, workdir: Path, seed: int) -> FaultResult:
        poison = self.poison_index(seed)
        run_dir = workdir / "faulted"
        tasks = _grid_tasks(run_dir)
        poison_key = tasks[poison].key
        marker = str(run_dir / "vanished.marker")
        run_dir.mkdir(parents=True, exist_ok=True)
        tasks[poison] = replace(
            tasks[poison], fn=_write_then_die,
            args=(marker,) + tasks[poison].args)
        pool = _fleet_pool(run_dir)
        results = pool.run(tasks, loader=_load_point)
        lost = [record for record in _ledger_actions(run_dir)
                if record["action"] == "worker-lost"]
        identical = _result_bytes(run_dir) == self.reference(workdir)
        ok = (len(results) == _NPOINTS and lost and identical
              and poison_key in results)
        evidence = (f"{len(results)}/{_NPOINTS} completed, "
                    f"{len(lost)} worker-lost record(s), "
                    f"byte-identical={identical}")
        return self._result(ABSORBED if ok else MISSED, evidence)


class FleetSlowWorkerLease(_ChaosScenario):
    name = "fleet-slow-worker-lease"
    expected = ABSORBED
    description = ("a fleet worker overruns its 1s lease deadline by 8s; "
                   "the coordinator revokes the lease, drops the late "
                   "result as stale, and the reassigned point completes "
                   "byte-identically without stalling the grid")

    def run(self, workdir: Path, seed: int) -> FaultResult:
        poison = self.poison_index(seed)
        run_dir = workdir / "faulted"
        tasks = _grid_tasks(run_dir)
        marker = str(run_dir / "slow.marker")
        run_dir.mkdir(parents=True, exist_ok=True)
        tasks[poison] = replace(
            tasks[poison], fn=_slow_once,
            args=(marker,) + tasks[poison].args)
        pool = _fleet_pool(run_dir, timeout_s=1.0)
        started = time.monotonic()
        results = pool.run(tasks, loader=_load_point)
        elapsed = time.monotonic() - started
        report = pool.last_report
        run_report = json.loads((run_dir / REPORT_NAME).read_text())
        timed_out = [record for record in _ledger_actions(run_dir)
                     if record["action"] == "timeout"]
        identical = _result_bytes(run_dir) == self.reference(workdir)
        ok = (len(results) == _NPOINTS and report.lease_revocations >= 1
              and run_report["leases"]["revoked"] >= 1 and timed_out
              and elapsed < 30.0 and identical)
        evidence = (f"completed in {elapsed:.1f}s (overrun was 8s), "
                    f"{report.lease_revocations} lease revocation(s), "
                    f"{len(timed_out)} timeout record(s), "
                    f"byte-identical={identical}")
        return self._result(ABSORBED if ok else MISSED, evidence)


class ServiceJobCrashResume(_ChaosScenario):
    name = "service-job-crash-resume"
    expected = ABSORBED
    description = ("a service runner crashes mid-job, leaving the record "
                   "orphaned in `running` with half its rows on disk; the "
                   "next run resumes it, recomputes only what is missing, "
                   "and finishes byte-identical to an uninterrupted job")

    def run(self, workdir: Path, seed: int) -> FaultResult:
        from repro.analysis.sweeprunner import SweepGrid, SweepRunner
        from repro.service import DONE, RUNNING, JobManager, JobSpec

        grid = SweepGrid(mitigations=("PARA",), nrh_values=(64,),
                         pacram_vendors=(None, "H"),
                         workload_sets=(("spec06.mcf",),), requests=200)
        points = grid.points()
        reference = SweepRunner(workdir / "reference", grid)
        reference.run(jobs=1)
        expected = {
            path.name: path.read_bytes()
            for path in sorted((workdir / "reference").glob("*.json"))
            if path.name != REPORT_NAME}

        manager = JobManager(workdir / "jobs")
        record, _ = manager.submit(JobSpec("sweep", grid))
        # The crash: one point's row made it to disk, then the runner
        # died — the record stays claimed in ``running`` forever.
        survivor = points[self.poison_index(seed) % len(points)]
        partial = SweepRunner(manager.store.results_dir(record.job_id),
                              grid)
        partial.run_point(survivor)
        manager.store.transition(record.job_id, RUNNING)
        stamp = partial.row_path(survivor).stat().st_mtime_ns

        final = manager.run(record.job_id)
        reused = partial.row_path(survivor).stat().st_mtime_ns == stamp
        identical = manager.result_files(record.job_id) == expected
        ok = final.state == DONE and reused and identical
        evidence = (f"resumed to state={final.state}, "
                    f"survivor-row-reused={reused}, "
                    f"byte-identical={identical}")
        return self._result(ABSORBED if ok else MISSED, evidence)


#: Every chaos scenario, in a stable order.
ALL_CHAOS: tuple[FaultScenario, ...] = (
    WorkerSigkillRecovered(),
    WorkerSigkillPoison(),
    HungWorkerDeadline(),
    TruncatedResultWrite(),
    EnospcDuringWrite(),
    PermanentConfigFault(),
    CacheEntryBitflip(),
    DegradedKernelCampaign(),
    FleetWorkerSigkill(),
    FleetWorkerVanishedResult(),
    FleetSlowWorkerLease(),
    ServiceJobCrashResume(),
)


def run_chaos_matrix(workdir: str | Path, *, seed: int = 2025,
                     only: str | None = None) -> MatrixReport:
    """Run every chaos scenario; never raises for a failing scenario.

    ``only`` keeps just the scenarios whose name contains the substring
    (e.g. ``"fleet"`` for the distributed-recovery trio in CI).
    """
    workdir = Path(workdir)
    scenarios = [s for s in ALL_CHAOS if only is None or only in s.name]
    if not scenarios:
        raise ConfigError(f"no chaos scenario matches {only!r}")
    results = []
    for scenario in scenarios:
        scenario_dir = workdir / scenario.name
        scenario_dir.mkdir(parents=True, exist_ok=True)
        try:
            results.append(scenario.run(scenario_dir, seed))
        except Exception as error:  # a broken probe proves no coverage
            results.append(FaultResult(
                scenario.name, scenario.expected, MISSED,
                f"scenario crashed: {type(error).__name__}: {error}"))
    return MatrixReport(seed=seed, results=tuple(results))

"""Service-layer overhead bench (ISSUE 10 tentpole).

The characterization service wraps the batch orchestrators in a job
store, an event log, and a TCP frame protocol; this bench bounds what
that wrapper is allowed to cost:

* **verb round-trips** — ``submit`` of an already-done spec (the dedup
  path: digest + store lookup, zero work), ``status`` polls, and a full
  ``stream`` replay of a finished job's event log must each stay under
  their per-call ceilings;
* **per-job overhead** — running one tiny sweep through
  submit -> stream -> results, minus a direct batch run of the same
  grid, bounds everything the service adds around the computation
  (queue hand-off, state transitions, event-log writes, the stream's
  wake-up at the job's end, result shipping).  The service runs at its
  default stream interval, and both sides run warm: the grid runs once
  before either is timed, so neither pays the process's one-time
  imports and memoized set-up;
* **byte-identity** — the serviced rows are asserted identical to the
  batch rows while we are at it (the same contract CI's service-smoke
  job checks over the real CLI);
* **a warm fleet** — a service on a 2-worker fleet forks its workers
  once, at start: after one warm-up job, three distinct one-point sweeps
  must start no process (``fleet_worker_starts``), and the median job
  minus the same sweeps' warm batch median (``fleet_job_overhead_s``)
  stays under the per-job ceiling.

The persisted ``BENCH_service_overhead.json`` carries the ``ceilings``
that ``scripts/check_bench_floors.py`` re-checks in CI against the
artifact that actually shipped.
"""

import json
import statistics
import time
from contextlib import contextmanager
from multiprocessing.process import BaseProcess
from pathlib import Path
from tempfile import TemporaryDirectory

from bench_util import RESULTS_DIR, run_once, save_result

from repro.analysis.sweeprunner import SweepGrid, SweepRunner
from repro.runtime import REPORT_NAME, RunOptions
from repro.service import JobSpec
from repro.service.api import CharacterizationService
from repro.service.client import ServiceClient

#: Ceilings on the service wrapper's cost.  The verb ceilings are loose
#: for one loopback round-trip (micro-benchmarks on shared CI are
#: noisy); the per-job ceiling bounds the whole submit->stream->results
#: envelope around one tiny sweep.
SUBMIT_CEILING_MS = 50.0
STATUS_CEILING_MS = 50.0
STREAM_CEILING_MS = 250.0
JOB_OVERHEAD_CEILING_S = 2.0
#: A fleet-backed service forks its workers at start, never per job.
FLEET_WORKER_STARTS_CEILING = 0

_VERB_REPS = 20


def _grid() -> SweepGrid:
    return SweepGrid(mitigations=("PARA",), nrh_values=(64,),
                     pacram_vendors=(None, "H"),
                     workload_sets=(("spec06.mcf",),), requests=200)


def _one_point(requests: int) -> SweepGrid:
    return SweepGrid(mitigations=("PARA",), nrh_values=(64,),
                     pacram_vendors=(None,),
                     workload_sets=(("spec06.mcf",),), requests=requests)


def _rows(results_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes()
            for p in sorted(results_dir.glob("*.json"))
            if p.name != REPORT_NAME}


def _median_ms(fn, reps: int = _VERB_REPS) -> float:
    samples = []
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples)


@contextmanager
def _process_starts():
    """Collect the name of every process started inside the block."""
    names: list[str] = []
    real_start = BaseProcess.start

    def start(process):
        names.append(process.name)
        real_start(process)

    BaseProcess.start = start
    try:
        yield names
    finally:
        BaseProcess.start = real_start


def _fleet_phase(tmp: Path) -> dict:
    """Three new jobs on a warm fleet-backed service vs the batch path."""
    warmup, *grids = [_one_point(requests)
                      for requests in (150, 200, 250, 300)]
    # Both sides are warmed by the same throwaway job first.
    SweepRunner(tmp / "fleet_warmup", warmup).run(jobs=1)
    batch_s = []
    for index, grid in enumerate(grids):
        started = time.perf_counter()
        SweepRunner(tmp / f"fleet_batch{index}", grid).run(jobs=1)
        batch_s.append(time.perf_counter() - started)
    service = CharacterizationService(
        tmp / "fleet_jobs", options=RunOptions(scheduler="fleet", workers=2))
    service.start()
    try:
        with ServiceClient(service.bound_address) as client:
            frame = client.submit(JobSpec("sweep", warmup))
            assert client.stream(frame["job_id"])["state"] == "done"
            job_s = []
            with _process_starts() as starts:
                for index, grid in enumerate(grids):
                    started = time.perf_counter()
                    frame = client.submit(JobSpec("sweep", grid))
                    end = client.stream(frame["job_id"])
                    rows = client.results(frame["job_id"])
                    job_s.append(time.perf_counter() - started)
                    assert end["state"] == "done", end
                    assert rows == _rows(tmp / f"fleet_batch{index}"), \
                        "fleet-serviced rows differ from the batch run"
    finally:
        service.stop()
    return {"fleet_batch_s": statistics.median(batch_s),
            "fleet_job_s": statistics.median(job_s),
            "fleet_job_overhead_s": (statistics.median(job_s)
                                     - statistics.median(batch_s)),
            "fleet_worker_starts": len(starts)}


def _run_bench() -> dict:
    grid = _grid()
    payload: dict = {"points": len(grid.points())}
    with TemporaryDirectory() as tmp:
        tmp = Path(tmp)

        # The reference: the same grid straight through the batch path,
        # timed after a throwaway run has paid the one-time set-up.
        SweepRunner(tmp / "warmup", grid).run(jobs=1)
        started = time.perf_counter()
        SweepRunner(tmp / "batch", grid).run(jobs=1)
        payload["batch_s"] = time.perf_counter() - started
        batch_rows = _rows(tmp / "batch")

        service = CharacterizationService(tmp / "jobs",
                                          options=RunOptions(jobs=1))
        service.start()
        try:
            host, port = service.bound_address
            with ServiceClient((host, port)) as client:
                # End-to-end: submit -> stream to done -> fetch results.
                spec = JobSpec("sweep", grid)
                started = time.perf_counter()
                frame = client.submit(spec)
                end = client.stream(frame["job_id"])
                served_rows = client.results(frame["job_id"])
                payload["service_s"] = time.perf_counter() - started
                assert end["state"] == "done", end
                assert served_rows == batch_rows, \
                    "serviced rows differ from the batch run"
                payload["job_overhead_s"] = \
                    payload["service_s"] - payload["batch_s"]

                # Verb round-trips against the finished job.
                job_id = frame["job_id"]
                payload["submit_ms"] = _median_ms(
                    lambda: client.submit(spec))  # dedup: zero work
                payload["status_ms"] = _median_ms(
                    lambda: client.status(job_id))
                payload["stream_ms"] = _median_ms(
                    lambda: client.stream(job_id))
                payload["events"] = len(
                    service.manager.store.events_path(job_id)
                    .read_text().splitlines())
        finally:
            service.stop()
        payload.update(_fleet_phase(tmp))
    return payload


def bench_service_overhead(benchmark):
    payload = run_once(benchmark, _run_bench)
    payload["ceilings"] = {"submit_ms": SUBMIT_CEILING_MS,
                           "status_ms": STATUS_CEILING_MS,
                           "stream_ms": STREAM_CEILING_MS,
                           "job_overhead_s": JOB_OVERHEAD_CEILING_S,
                           "fleet_worker_starts": FLEET_WORKER_STARTS_CEILING,
                           "fleet_job_overhead_s": JOB_OVERHEAD_CEILING_S}
    # The in-process asserts mirror scripts/check_bench_floors.py, which
    # re-checks the persisted payload in CI.
    for metric, ceiling in payload["ceilings"].items():
        assert payload[metric] <= ceiling, \
            f"{metric}: {payload[metric]:.2f} above ceiling {ceiling}"

    lines = [f"grid: {payload['points']} points",
             f"batch run: {payload['batch_s']:.2f}s",
             f"service submit->stream->results: "
             f"{payload['service_s']:.2f}s "
             f"(overhead {payload['job_overhead_s']:.2f}s, ceiling "
             f"{JOB_OVERHEAD_CEILING_S:.0f}s)",
             f"submit (dedup) round-trip: {payload['submit_ms']:.2f} ms "
             f"median (ceiling {SUBMIT_CEILING_MS:.0f} ms)",
             f"status round-trip: {payload['status_ms']:.2f} ms median "
             f"(ceiling {STATUS_CEILING_MS:.0f} ms)",
             f"stream replay ({payload['events']} events): "
             f"{payload['stream_ms']:.2f} ms median (ceiling "
             f"{STREAM_CEILING_MS:.0f} ms)",
             "rows byte-identical to the batch run",
             f"fleet-backed service, warm (2 workers): median new "
             f"one-point job {payload['fleet_job_s']:.3f}s vs batch "
             f"{payload['fleet_batch_s']:.3f}s (overhead "
             f"{payload['fleet_job_overhead_s']:.3f}s, ceiling "
             f"{JOB_OVERHEAD_CEILING_S:.0f}s)",
             f"processes started during the 3 fleet jobs: "
             f"{payload['fleet_worker_starts']} (ceiling "
             f"{FLEET_WORKER_STARTS_CEILING})",
             "fleet rows byte-identical to the batch run"]
    save_result("service_overhead", "\n".join(lines))

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_service_overhead.json").write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n")

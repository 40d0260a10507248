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
  job checks over the real CLI).

The persisted ``BENCH_service_overhead.json`` carries the ``ceilings``
that ``scripts/check_bench_floors.py`` re-checks in CI against the
artifact that actually shipped.
"""

import json
import statistics
import time
from pathlib import Path
from tempfile import TemporaryDirectory

from bench_util import RESULTS_DIR, run_once, save_result

from repro.analysis.sweeprunner import SweepGrid, SweepRunner
from repro.runtime import REPORT_NAME
from repro.service import JobSpec, RunOptions
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

_VERB_REPS = 20


def _grid() -> SweepGrid:
    return SweepGrid(mitigations=("PARA",), nrh_values=(64,),
                     pacram_vendors=(None, "H"),
                     workload_sets=(("spec06.mcf",),), requests=200)


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
    return payload


def bench_service_overhead(benchmark):
    payload = run_once(benchmark, _run_bench)
    payload["ceilings"] = {"submit_ms": SUBMIT_CEILING_MS,
                           "status_ms": STATUS_CEILING_MS,
                           "stream_ms": STREAM_CEILING_MS,
                           "job_overhead_s": JOB_OVERHEAD_CEILING_S}
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
             "rows byte-identical to the batch run"]
    save_result("service_overhead", "\n".join(lines))

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_service_overhead.json").write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n")

"""Fleet-scheduler scaling and overhead bench (ISSUE 9 tentpole).

Runs the reference evaluation grid through both scheduler backends and
measures what the distributed layer is allowed to cost:

* **byte-identity** — the 16-point grid's rows from a loopback fleet
  (N workers over TCP) are bit-identical to the local serial run;
* **coordinator overhead** — a stream of trivial tasks bounds the
  per-task cost of leasing, framing, shipping results back, and atomic
  publishing; the median must stay under ``OVERHEAD_CEILING_MS``;
* **payload amortization** — a warm worker's lease spec (config interned
  as a content-addressed blob it already holds) must be smaller than the
  naive wire baseline: the whole ``Task`` pickled, which is what a
  pickle-shipping scheduler would put on the socket per lease.

Wall-clock *speedup* is deliberately not asserted: on a single-core
container parallel workers only pay overhead, and the numbers would be
noise.  The persisted ``BENCH_parallel_scaling.json`` carries ``floors``
(payload ratio) and ``ceilings`` (overhead) that
``scripts/check_bench_floors.py`` re-checks in CI against the artifact
that actually shipped.
"""

import json
import os
import pickle
import statistics
import time
from pathlib import Path
from tempfile import TemporaryDirectory

from bench_util import RESULTS_DIR, run_once, save_result

from repro.analysis.sweeprunner import SweepGrid, SweepRunner
from repro.characterization.campaign import (
    CampaignConfig,
    CharacterizationCampaign,
)
from repro.runtime import REPORT_NAME, RunOptions, Task, make_scheduler
from repro.runtime.distributed import echo_point, lease_spec
from repro.runtime.wire import canonical_blob, referenced_blobs

#: Loopback fleet sizes exercised for byte-identity.
_FLEETS = (1, 2, 4)

#: Ceiling on the coordinator's per-task cost (lease + wire + publish).
OVERHEAD_CEILING_MS = 25.0

#: Trivial tasks per overhead repetition, and repetitions medianed over.
_OVERHEAD_TASKS = 32
_OVERHEAD_REPS = 3


def _scaling_grid() -> SweepGrid:
    """The 16-point reference grid (4 mitigations x 2 N_RH x 2 configs)."""
    return SweepGrid(mitigations=("PARA", "RFM", "Graphene", "Hydra"),
                     nrh_values=(1024, 64), pacram_vendors=(None, "H"),
                     workload_sets=(("spec06.mcf",),), requests=400)


def _rows(results_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes()
            for p in sorted(results_dir.glob("*.json"))
            if p.name != REPORT_NAME}  # run metadata, not a row


def _load_echo(path: Path) -> int:
    return json.loads(path.read_text())["echo"]


def _bench_identity(tmp: Path) -> dict:
    """Grid rows through local vs fleet(N): byte-identical, timed."""
    grid = _scaling_grid()
    local_dir = tmp / "local"
    started = time.perf_counter()
    SweepRunner(local_dir, grid).run(jobs=1)
    local_s = time.perf_counter() - started
    local_rows = _rows(local_dir)
    fleet_s = {}
    for workers in _FLEETS:
        fleet_dir = tmp / f"fleet{workers}"
        started = time.perf_counter()
        SweepRunner(fleet_dir, grid).run(scheduler="fleet", workers=workers)
        fleet_s[workers] = time.perf_counter() - started
        assert _rows(fleet_dir) == local_rows, \
            f"fleet({workers}) rows differ from the local run"
    return {"points": len(grid.points()), "local_s": local_s,
            "fleet_s": fleet_s}


def _bench_overhead(tmp: Path) -> dict:
    """Median per-task coordinator cost over a stream of trivial tasks."""
    per_task_ms = []
    for rep in range(_OVERHEAD_REPS):
        run_dir = tmp / f"overhead{rep}"
        tasks = [Task(key=f"t{n}", path=run_dir / f"t{n}.json",
                      fn=echo_point, args=(n, str(run_dir / f"t{n}.json")))
                 for n in range(_OVERHEAD_TASKS)]
        pool = make_scheduler(RunOptions(
            scheduler="fleet", workers=1, lease_batch=_OVERHEAD_TASKS // 4))
        started = time.perf_counter()
        pool.run(tasks, loader=_load_echo)
        elapsed = time.perf_counter() - started
        per_task_ms.append(elapsed / _OVERHEAD_TASKS * 1000.0)
    return {"overhead_ms_per_task": statistics.median(per_task_ms),
            "overhead_ms_reps": per_task_ms}


def _bench_payload(tmp: Path) -> dict:
    """Warm-lease spec size vs the pickled-Task wire baseline."""
    sizes = {}
    campaign = CharacterizationCampaign(
        tmp / "payload", CampaignConfig(per_region=4))
    sweep = SweepRunner(tmp / "payload", _scaling_grid())
    for label, task in (("campaign", campaign._task("S6")),
                        ("sweep", sweep._task(_scaling_grid().points()[0]))):
        blob_table: dict = {}
        spec = lease_spec(task, 1, blob_table)
        assert referenced_blobs(spec["args"]), \
            f"{label} config was not blob-interned"
        warm = len(canonical_blob(spec).encode())
        cold = warm + sum(len(canonical_blob(b).encode())
                          for b in blob_table.values())
        # A pickle-based scheduler ships the whole Task per lease; the
        # spec carries the same information (fn, args, fallback, key,
        # path), so that is the like-for-like baseline.
        pickled = len(pickle.dumps(task))
        sizes[label] = {"warm_bytes": warm, "cold_bytes": cold,
                        "pickled_bytes": pickled,
                        "ratio": pickled / warm}
    return {"payloads": sizes,
            "payload_ratio": min(entry["ratio"] for entry in sizes.values())}


def _run_bench() -> dict:
    with TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        payload = {}
        payload.update(_bench_identity(tmp))
        payload.update(_bench_overhead(tmp))
        payload.update(_bench_payload(tmp))
    return payload


def bench_parallel_scaling(benchmark):
    payload = run_once(benchmark, _run_bench)
    payload["floors"] = {"payload_ratio": 1.0}
    payload["ceilings"] = {"overhead_ms_per_task": OVERHEAD_CEILING_MS}
    # The in-process asserts mirror scripts/check_bench_floors.py, which
    # re-checks the persisted payload in CI.
    assert payload["payload_ratio"] >= payload["floors"]["payload_ratio"]
    assert payload["overhead_ms_per_task"] <= OVERHEAD_CEILING_MS

    cores = os.cpu_count() or 1
    lines = [f"grid: {payload['points']} points, cores: {cores}",
             f"local jobs=1: {payload['local_s']:.2f}s"]
    if cores == 1:
        lines.append("single-core machine: fleet timings carry no speedup "
                     "claim (workers only pay overhead here)")
    for workers, elapsed in payload["fleet_s"].items():
        lines.append(f"fleet workers={workers}: {elapsed:.2f}s "
                     f"(rows byte-identical to local)")
    lines.append(f"coordinator overhead: "
                 f"{payload['overhead_ms_per_task']:.2f} ms/task median "
                 f"(ceiling {OVERHEAD_CEILING_MS:.0f} ms)")
    for label, entry in payload["payloads"].items():
        lines.append(f"{label} lease: warm {entry['warm_bytes']} B, cold "
                     f"{entry['cold_bytes']} B, pickled "
                     f"{entry['pickled_bytes']} B "
                     f"({entry['ratio']:.1f}x smaller warm)")
    save_result("parallel_scaling", "\n".join(lines))

    RESULTS_DIR.mkdir(exist_ok=True)
    persisted = dict(payload)
    persisted["fleet_s"] = {str(k): v for k, v in payload["fleet_s"].items()}
    (RESULTS_DIR / "BENCH_parallel_scaling.json").write_text(
        json.dumps(persisted, indent=1, sort_keys=True) + "\n")

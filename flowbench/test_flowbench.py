"""The benchmark's own tests: every workload at smoke scale, both modes.

Run from the root of a checkout::

    python3 -m pytest -q flowbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

#: Per-layer counters that must be non-zero where their layer runs.
LAYERS_THAT_RUN = {
    "campaign": ("dram.calls", "characterization.measurements",
                 "runtime.persist.writes", "runtime.engine.tasks",
                 "analysis.self_s"),
    "evaluation": ("workloads.traces", "sim.runs", "sim.host_us_per_request",
                   "mitigations.activations", "analysis.baseline_hit_ratio"),
    "service": ("runtime.distributed.leases", "runtime.distributed.spawn_ms",
                "runtime.distributed.worker_busy_s", "runtime.wire.frames",
                "service.submit_ms", "service.stream_ms", "sim.runs",
                "characterization.measurements"),
    "checked": ("validation.commands", "characterization.probe_hit_ratio",
                "bender.calls", "dram.calls", "runtime.persist.reads"),
}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_smoke_run_reports_every_end_to_end_metric(workload):
    result = result_of(bench("--workload", workload, "--scale", "smoke",
                             "--seconds", "1", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_smoke_run_reports_every_per_layer_metric(workload):
    result = result_of(bench("--workload", workload, "--scale", "smoke",
                             "--seconds", "1", "--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} \
        == tracing.PER_LAYER_UNITS
    for name in LAYERS_THAT_RUN[workload]:
        assert metrics[name]["value"] > 0, name


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == tracing.PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "flowbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "flowbench/run.py", "--workload", "campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 101))
    value, percentile, samples = run.tail(values)
    assert (value, percentile, samples) == (90, 90.0, 100)
    assert sum(1 for v in values if v > value) == 10
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_fastest_cpu_picks_an_allowed_cpu_and_restores_affinity():
    allowed = os.sched_getaffinity(0)
    cpu = run.fastest_cpu()
    assert os.sched_getaffinity(0) == allowed
    assert (cpu is None) == (len(allowed) < 2)
    assert cpu is None or cpu in allowed


def test_reference_pins_every_workload_at_both_scales():
    pinned = json.loads((HERE / "reference.json").read_text())
    assert sorted(pinned) == sorted(run.WORKLOADS)
    for workload in run.WORKLOADS:
        assert sorted(pinned[workload]) == ["full", "smoke"]

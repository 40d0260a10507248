"""Span recorder and entry-point wrappers for the benchmark's traced run.

Nothing under ``src/`` is instrumented.  :func:`install` wraps each
layer's public entry points from the outside: a module-level function is
replaced in every loaded ``repro`` module that holds it (so a caller that
did ``from x import f`` sees the wrapper), a method is replaced on its
class.  Every wrapped call pushes a frame on a per-thread stack; on exit
its duration minus the time its child frames cover is the layer's self
time.

Most entry points record a span (id, layer, name, start, end, parent id,
job id).  Entry points called per activation, per DRAM command or per
probe are *leaves*: they still push a frame, so nesting and self time are
exact, but instead of one span per call they add ``[calls, seconds]`` to a
roll-up on the enclosing span.  Spans stay in memory; :meth:`Recorder.dump`
writes them out when the process ends its part of the run.

Clocks are ``time.perf_counter``, which is CLOCK_MONOTONIC on Linux and so
comparable across the processes of one run (service client, serve-api,
fleet workers).
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

clock = time.perf_counter

#: Modules imported before patching, so every ``from x import f`` copy of a
#: wrapped function is already loaded and can be found by identity.
MODULES = (
    "repro.dram.module", "repro.dram.kernels", "repro.bender.compile",
    "repro.bender.host", "repro.characterization.algorithm1",
    "repro.characterization.vectorized", "repro.characterization.arraykernel",
    "repro.characterization.probecache", "repro.characterization.sweeps",
    "repro.characterization.results", "repro.characterization.campaign",
    "repro.workloads.suites", "repro.sim.system", "repro.sim.kernels",
    "repro.sim.arraykernel", "repro.mitigations", "repro.mitigations.batched",
    "repro.analysis.runner", "repro.analysis.baselines",
    "repro.analysis.sweeprunner", "repro.analysis.tables",
    "repro.analysis.figures", "repro.validation.checker",
    "repro.validation.physics", "repro.runtime.persist",
    "repro.runtime.engine", "repro.runtime.distributed",
    "repro.runtime.wire", "repro.service.jobs", "repro.service.manager",
    "repro.service.api", "repro.service.client", "repro.cli",
)

MITIGATION_HOOKS = ("on_activation", "on_activation_epoch", "epoch_credit",
                    "on_refresh_window")
DRAM_ROW_OPS = ("write_row", "activate", "partial_restore", "hammer",
                "elapse", "read_row_bitflips", "evaluate_read")


class _Thread:
    """One thread's open frames and open tags."""

    def __init__(self, main: bool) -> None:
        self.stack: list[list] = []
        self.open: dict[str, int] = {}
        self.main = main


class Recorder:
    """Spans, per-layer self time and counters of one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        """Forget everything (a forked fleet worker starts clean)."""
        self._ids = itertools.count(1)
        self.main = threading.get_ident()
        state = self.thread()
        state.stack.clear()  # in place: a caller may hold this list
        state.open.clear()
        state.main = True
        self.spans: list[tuple] = []
        self.roots: dict[str, list] = {}
        self.self_s: dict[str, float] = {}
        self.main_self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self.fleet_runs: list[dict] = []
        self.submitted: dict[str, float] = {}

    # ------------------------------------------------------------------
    def thread(self) -> _Thread:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _Thread(
                threading.get_ident() == self.main)
            return state

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def call(self, entry: "Entry", fn: Callable, args: tuple,
             kwargs: dict) -> Any:
        state = self.thread()
        stack = state.stack
        parent = stack[-1] if stack else None
        job = entry.job(args) if entry.job is not None else None
        if job is None and parent is not None:
            job = parent[5]
        tag = entry.tag
        outer = False
        if tag is not None:
            depth = state.open.get(tag, 0)
            outer = depth == 0
            state.open[tag] = depth + 1
        # frame: id, layer, name, start, child seconds, job, roll-up
        frame = [0 if entry.leaf else next(self._ids), entry.layer,
                 entry.name, 0.0, 0.0, job, None]
        if entry.before is not None:
            entry.before(self, frame, args)
        stack.append(frame)
        frame[3] = start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            duration = end - start
            own = duration - frame[4]
            layer = entry.layer
            self_s = self.self_s
            self_s[layer] = self_s.get(layer, 0.0) + own
            if state.main:
                main = self.main_self_s
                main[layer] = main.get(layer, 0.0) + own
            counts = self.counts
            counts[entry.calls_key] = counts.get(entry.calls_key, 0) + 1
            if tag is not None:
                state.open[tag] -= 1
                if outer:
                    counts[entry.tag_key] = \
                        counts.get(entry.tag_key, 0) + duration
            if parent is not None:
                parent[4] += duration
            if entry.leaf:
                if parent is None:
                    rollup = self.roots
                else:
                    rollup = parent[6]
                    if rollup is None:
                        rollup = parent[6] = {}
                cell = rollup.get(entry.name)
                if cell is None:
                    cell = rollup[entry.name] = [0, 0.0]
                cell[0] += 1
                cell[1] += duration
            else:
                self.spans.append((frame[0], layer, entry.name, start, end,
                                   parent[0] if parent else None, job,
                                   frame[6]))
        if entry.after is not None:
            entry.after(self, frame, args, kwargs, result, end, outer)
        return result

    # ------------------------------------------------------------------
    def dump(self, directory: str | Path, label: str, *,
             primary: bool = False) -> None:
        """Write this process's summary and spans under ``directory``;
        only the ``primary`` (pass) process's main thread counts towards
        ``other.self_s``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        summary = {"self_s": self.self_s, "counts": self.counts,
                   "main_self_s": self.main_self_s if primary else {},
                   "samples": self.samples, "fleet_runs": self.fleet_runs}
        (directory / f"{label}.summary.json").write_text(
            json.dumps(summary, sort_keys=True))
        fields = ("id", "layer", "name", "start", "end", "parent", "job",
                  "rollup")
        with (directory / f"{label}.spans.jsonl").open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")
            if self.roots:
                handle.write(json.dumps({"rollup": self.roots}) + "\n")


RECORDER = Recorder()


def merge(summaries) -> dict:
    """Add up summaries (of a pass's processes, or of several passes)."""
    merged: dict = {"self_s": {}, "main_self_s": {}, "counts": {},
                    "samples": {}, "fleet_runs": []}
    for part in summaries:
        for key in ("self_s", "main_self_s", "counts"):
            for name, value in part[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        for name, values in part["samples"].items():
            merged["samples"].setdefault(name, []).extend(values)
        merged["fleet_runs"].extend(part["fleet_runs"])
    return merged


class Entry:
    """One wrapped entry point and what to record around it."""

    def __init__(self, layer: str, name: str, *, leaf: bool = False,
                 tag: str | None = None,
                 job: Callable[[tuple], str | None] | None = None,
                 before: Callable | None = None,
                 after: Callable | None = None) -> None:
        self.layer = layer
        self.name = name
        self.leaf = leaf
        self.tag = tag
        self.job = job
        self.before = before
        self.after = after
        self.calls_key = f"{layer}.calls"
        self.tag_key = f"{tag}.s"

    def wrap(self, fn: Callable) -> Callable:
        entry = self
        call = RECORDER.call

        def traced(*args, **kwargs):
            return call(entry, fn, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", entry.name)
        traced.__qualname__ = getattr(fn, "__qualname__", entry.name)
        traced.__module__ = getattr(fn, "__module__", None)
        return traced


# ----------------------------------------------------------------------
# counters attached to entry points
# ----------------------------------------------------------------------
def _count_measurements(rec, frame, args, kwargs, result, end, outer):
    n = 1 if not isinstance(result, list) else len(result)
    rec.add("characterization.measurements", n)


def _probe_lookup(rec, frame, args, kwargs, result, end, outer):
    rec.add("characterization.probe_lookups")
    if result is not None:
        rec.add("characterization.probe_hits")


def _baseline_get(rec, frame, args, kwargs, result, end, outer):
    rec.add("analysis.baseline_gets")
    if result is not None:
        rec.add("analysis.baseline_hits")


def _sim_run(rec, frame, args, kwargs, result, end, outer):
    system = args[0]
    rec.add("sim.runs")
    rec.add("sim.requests", sum(len(core.trace) for core in system.cores))
    rec.add("sim.run_s", end - frame[3])


def _activation(rec, frame, args, kwargs, result, end, outer):
    if outer:
        rec.add("mitigations.activations")


def _activation_epoch(rec, frame, args, kwargs, result, end, outer):
    if not outer:
        return
    count = kwargs.get("count", args[4] if len(args) > 4 else None)
    if count is None:
        count = len(args[1])
    rec.add("mitigations.activations", count)
    rec.add("mitigations.epoch_activations", count)


def _checker_final(rec, frame, args, kwargs, result, end, outer):
    rec.add("validation.violations", len(args[0].violations))


def _write(rec, frame, args, kwargs, result, end, outer):
    rec.add("runtime.persist.writes")
    text = args[1] if len(args) > 1 else kwargs.get("text", "")
    rec.add("runtime.persist.write_bytes", len(text.encode("utf-8")))


def _read(rec, frame, args, kwargs, result, end, outer):
    if outer:
        rec.add("runtime.persist.reads")


def _pool_run(rec, frame, args, kwargs, result, end, outer):
    report = args[0].last_report
    if report is not None:
        rec.add("runtime.engine.tasks", len(report.computed))
        rec.add("runtime.engine.retries", len(report.retried))


def _fleet_start(rec, frame, args):
    rec.fleet_runs.append({"start": clock(), "joined": None,
                           "last_result": None, "end": None, "leases": 0,
                           "results": 0})


def _fleet_end(rec, frame, args, kwargs, result, end, outer):
    if rec.fleet_runs:
        rec.fleet_runs[-1]["end"] = end


def _fleet_event(field: str):
    def hook(rec, frame, args, kwargs, result, end, outer):
        if not rec.fleet_runs:
            return
        run = rec.fleet_runs[-1]
        if field == "joined":
            run["joined"] = run["joined"] or end
        elif field == "leases":
            run["leases"] += 1
        elif kwargs.get("worker") is not None:  # a fleet task result
            run["results"] += 1
            run["last_result"] = end
    return hook


def _worker_start(rec, frame, args):
    # A fork-spawned fleet worker inherits its parent's recorder: start
    # from nothing, keeping only the frame this call is about to push.
    rec.reset()


def _worker_end(rec, frame, args, kwargs, result, end, outer):
    # Busy: neither waiting for a frame nor sleeping out an idle reply.
    busy = (end - frame[3] - rec.counts.get("runtime.wire.recv.s", 0.0)
            - rec.counts.get("runtime.distributed.idle_s", 0.0))
    rec.add("runtime.distributed.worker_busy_s", busy)
    directory = os.environ.get("FLOWBENCH_TRACE_DIR")
    if directory:
        rec.dump(directory, f"worker-{os.getpid()}")


def _recv(rec, frame, args, kwargs, result, end, outer):
    if isinstance(result, dict) and result.get("type") == "idle":
        rec.add("runtime.distributed.idle_polls")
        rec.add("runtime.distributed.idle_s", float(result.get("poll_s", 0)))


def _send(rec, frame, args, kwargs, result, end, outer):
    rec.add("runtime.wire.frames")
    rec.add("runtime.wire.bytes", result)


def _store_submit(rec, frame, args, kwargs, result, end, outer):
    record, created = result
    if created:
        rec.submitted[record.job_id] = end


def _manager_run(rec, frame, args):
    submitted = rec.submitted.pop(args[1], None)
    if submitted is not None:
        rec.sample("service.queue_wait_ms", (clock() - submitted) * 1e3)


def _verb(name: str):
    def hook(rec, frame, args, kwargs, result, end, outer):
        rec.sample(f"service.{name}_ms", (end - frame[3]) * 1e3)
    return hook


def _arg1(args: tuple) -> str | None:
    value = args[1] if len(args) > 1 else None
    return value if isinstance(value, str) else None


def _spec_job(args: tuple) -> str | None:
    return args[1].job_id if len(args) > 1 else None


def entry_points() -> list[tuple[str, Entry]]:
    """``(target, entry)`` for every wrapped entry point.

    ``target`` is ``module:qualname``; a qualname with a dot names a
    method (set on that class, even where it is inherited).
    """
    E = Entry
    out: list[tuple[str, Entry]] = [
        ("repro.dram.module:DRAMModule.bank_traits",
         E("dram", "DRAMModule.bank_traits")),
    ]
    for method in ("effective_nrh", "hammer_flips", "retention_flips",
                   "retention_fails"):
        out.append((f"repro.dram.kernels:BankTraits.{method}",
                    E("dram", f"BankTraits.{method}", leaf=True)))
    for method in DRAM_ROW_OPS:
        out.append((f"repro.dram.module:DRAMModule.{method}",
                    E("dram", f"DRAMModule.{method}", leaf=True)))
    out += [
        ("repro.bender.compile:fold_probe_states",
         E("bender", "fold_probe_states", leaf=True)),
        ("repro.bender.compile:run_compiled",
         E("bender", "run_compiled", leaf=True)),
        ("repro.bender.host:DRAMBenderHost.run",
         E("bender", "DRAMBenderHost.run", leaf=True)),
        ("repro.characterization.sweeps:characterize_module",
         E("characterization", "characterize_module")),
        ("repro.characterization.vectorized:measure_rows",
         E("characterization", "measure_rows", after=_count_measurements)),
        ("repro.characterization.arraykernel:measure_rows_array",
         E("characterization", "measure_rows_array",
           after=_count_measurements)),
        ("repro.characterization.algorithm1:measure_row",
         E("characterization", "measure_row", after=_count_measurements)),
        ("repro.characterization.probecache:ProbeCache.get",
         E("characterization", "ProbeCache.get", leaf=True,
           after=_probe_lookup)),
        ("repro.characterization.campaign:CharacterizationCampaign.run",
         E("characterization", "CharacterizationCampaign.run")),
        ("repro.workloads.suites:workload_by_name",
         E("workloads", "workload_by_name",
           after=lambda rec, *_: rec.add("workloads.traces"))),
        ("repro.sim.system:MemorySystem.__init__",
         E("sim", "MemorySystem.__init__")),
        ("repro.sim.system:MemorySystem.run",
         E("sim", "MemorySystem.run", after=_sim_run)),
        ("repro.analysis.runner:run_simulation",
         E("analysis", "run_simulation")),
        ("repro.analysis.baselines:BaselineCache.get",
         E("analysis", "BaselineCache.get", tag="analysis.baseline",
           after=_baseline_get)),
        ("repro.analysis.baselines:BaselineCache.put",
         E("analysis", "BaselineCache.put", tag="analysis.baseline")),
        ("repro.analysis.sweeprunner:SweepRunner.run",
         E("analysis", "SweepRunner.run")),
        ("repro.analysis.sweeprunner:SweepRunner.aggregate",
         E("analysis", "SweepRunner.aggregate")),
        ("repro.analysis.sweeprunner:render_aggregate",
         E("analysis", "render_aggregate")),
        ("repro.analysis.tables:render_table3",
         E("analysis", "render_table3")),
        ("repro.analysis.tables:render_table4",
         E("analysis", "render_table4")),
        ("repro.analysis.figures:fig6_nrh_boxes_from",
         E("analysis", "fig6_nrh_boxes_from")),
        ("repro.analysis.figures:fig16_latency_sweep",
         E("analysis", "fig16_latency_sweep")),
        ("repro.analysis.figures:fig19_periodic",
         E("analysis", "fig19_periodic")),
        ("repro.validation.checker:ProtocolChecker.on_command",
         E("validation", "ProtocolChecker.on_command", leaf=True,
           after=lambda rec, *_: rec.add("validation.commands"))),
        ("repro.validation.checker:ProtocolChecker.finalize",
         E("validation", "ProtocolChecker.finalize", after=_checker_final)),
        ("repro.validation.physics:check_physics",
         E("validation", "check_physics")),
        ("repro.validation.physics:model_digest",
         E("validation", "model_digest", leaf=True)),
        ("repro.runtime.persist:write_atomic",
         E("runtime.persist", "write_atomic", tag="runtime.persist.write",
           after=_write)),
        ("repro.characterization.results:ModuleCharacterization.save",
         E("runtime.persist", "ModuleCharacterization.save",
           tag="runtime.persist.write")),
        ("repro.characterization.results:ModuleCharacterization.load",
         E("runtime.persist", "ModuleCharacterization.load",
           tag="runtime.persist.read", after=_read)),
        ("repro.analysis.sweeprunner:load_row",
         E("runtime.persist", "load_row", tag="runtime.persist.read",
           after=_read)),
        ("repro.runtime.engine:TaskPool.run",
         E("runtime.engine", "TaskPool.run", tag="runtime.engine.run",
           after=_pool_run)),
        ("repro.runtime.distributed:FleetScheduler._execute",
         E("runtime.distributed", "FleetScheduler.run",
           tag="runtime.distributed.run", before=_fleet_start,
           after=_fleet_end)),
        ("repro.runtime.distributed:run_worker",
         E("runtime.distributed", "run_worker", before=_worker_start,
           after=_worker_end)),
        ("repro.runtime.wire:send_frame",
         E("runtime.wire", "send_frame", leaf=True, tag="runtime.wire.send",
           after=_send)),
        ("repro.runtime.wire:recv_frame",
         E("runtime.wire", "recv_frame", leaf=True,
           tag="runtime.wire.recv", after=_recv)),
        ("repro.service.jobs:JobStore.submit",
         E("service", "JobStore.submit", job=_spec_job,
           after=_store_submit)),
        ("repro.service.jobs:JobStore.transition",
         E("service", "JobStore.transition", job=_arg1)),
        ("repro.service.jobs:JobStore.load",
         E("service", "JobStore.load", job=_arg1, leaf=True)),
        ("repro.service.manager:JobManager.run",
         E("service", "JobManager.run", job=_arg1, before=_manager_run)),
        ("repro.service.manager:JobManager.result_files",
         E("service", "JobManager.result_files", job=_arg1)),
        ("repro.service.manager:JobManager.figure",
         E("service", "JobManager.figure", job=_arg1)),
    ]
    for hook, field in (("worker_joined", "joined"),
                        ("lease_update", "leases"),
                        ("task_done", "result")):
        for cls in ("repro.runtime.progress:ProgressReporter",
                    "repro.service.manager:EventLogProgress"):
            out.append((f"{cls}.{hook}",
                        E("runtime.distributed", hook, leaf=True,
                          after=_fleet_event(field))))
    for verb in ("submit", "stream", "results", "figure"):
        job = _spec_job if verb == "submit" else _arg1
        out.append((f"repro.service.client:ServiceClient.{verb}",
                    E("service", f"ServiceClient.{verb}", job=job,
                      after=_verb(verb))))
    return out


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: Layers whose self time is a reported metric.
SELF_TIMED = ("dram", "bender", "characterization", "workloads", "sim",
              "mitigations", "analysis", "validation", "runtime.engine",
              "service")

#: Per-layer metric -> unit, in report order.
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in SELF_TIMED[:2]},
    "dram.calls": "count", "bender.calls": "count",
    "characterization.self_s": "s",
    "characterization.measurements": "count",
    "characterization.probe_hit_ratio": "ratio",
    "workloads.self_s": "s", "workloads.traces": "count",
    "sim.self_s": "s", "sim.runs": "count", "sim.host_us_per_request": "us",
    "mitigations.self_s": "s", "mitigations.activations": "count",
    "mitigations.epoch_share": "ratio",
    "analysis.self_s": "s", "analysis.baseline_s": "s",
    "analysis.baseline_hit_ratio": "ratio",
    "validation.self_s": "s", "validation.commands": "count",
    "validation.violations": "count",
    "runtime.persist.write_s": "s", "runtime.persist.writes": "count",
    "runtime.persist.write_bytes": "bytes",
    "runtime.persist.read_s": "s", "runtime.persist.reads": "count",
    "runtime.engine.self_s": "s", "runtime.engine.tasks": "count",
    "runtime.engine.retries": "count",
    "runtime.distributed.spawn_ms": "ms",
    "runtime.distributed.leases": "count",
    "runtime.distributed.tasks_per_lease": "ratio",
    "runtime.distributed.teardown_ms": "ms",
    "runtime.distributed.worker_busy_s": "s",
    "runtime.wire.frames": "count", "runtime.wire.bytes": "bytes",
    "runtime.wire.send_s": "s", "runtime.wire.recv_wait_s": "s",
    "service.self_s": "s", "service.queue_wait_ms": "ms",
    "service.submit_ms": "ms", "service.stream_ms": "ms",
    "service.results_ms": "ms", "service.figure_ms": "ms",
    "other.self_s": "s", "trace_overhead_frac": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median(values: list[float]) -> float:
    import statistics

    return statistics.median(values) if values else 0.0


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def per_layer(merged: dict, passes: int, traced_s: float,
              overhead: float) -> dict[str, float]:
    """Per-layer metrics of the traced passes (per-pass means, medians of
    per-call latencies); ``merged`` adds up every pass's summaries.

    ``traced_s`` is the traced passes' whole time (flow and repeats), of
    which ``other.self_s`` is what no layer's self time covers on the
    pass's main thread; ``overhead`` is the traced wall over the untraced
    one, minus one."""
    counts, samples = merged["counts"], merged["samples"]

    def per_pass(name: str) -> float:
        return counts.get(name, 0) / passes

    out = {f"{layer}.self_s": merged["self_s"].get(layer, 0.0) / passes
           for layer in SELF_TIMED}
    out.update({
        "dram.calls": per_pass("dram.calls"),
        "bender.calls": per_pass("bender.calls"),
        "characterization.measurements":
            per_pass("characterization.measurements"),
        "characterization.probe_hit_ratio": _ratio(
            counts.get("characterization.probe_hits", 0),
            counts.get("characterization.probe_lookups", 0)),
        "workloads.traces": per_pass("workloads.traces"),
        "sim.runs": per_pass("sim.runs"),
        "sim.host_us_per_request": 1e6 * _ratio(
            counts.get("sim.run_s", 0), counts.get("sim.requests", 0)),
        "mitigations.activations": per_pass("mitigations.activations"),
        "mitigations.epoch_share": _ratio(
            counts.get("mitigations.epoch_activations", 0),
            counts.get("mitigations.activations", 0)),
        "analysis.baseline_s": per_pass("analysis.baseline.s"),
        "analysis.baseline_hit_ratio": _ratio(
            counts.get("analysis.baseline_hits", 0),
            counts.get("analysis.baseline_gets", 0)),
        "validation.commands": per_pass("validation.commands"),
        "validation.violations": per_pass("validation.violations"),
        "runtime.persist.write_s": per_pass("runtime.persist.write.s"),
        "runtime.persist.writes": per_pass("runtime.persist.writes"),
        "runtime.persist.write_bytes":
            per_pass("runtime.persist.write_bytes"),
        "runtime.persist.read_s": per_pass("runtime.persist.read.s"),
        "runtime.persist.reads": per_pass("runtime.persist.reads"),
        "runtime.engine.tasks": per_pass("runtime.engine.tasks"),
        "runtime.engine.retries": per_pass("runtime.engine.retries"),
        "runtime.wire.frames": per_pass("runtime.wire.frames"),
        "runtime.wire.bytes": per_pass("runtime.wire.bytes"),
        "runtime.wire.send_s": per_pass("runtime.wire.send.s"),
        "runtime.wire.recv_wait_s": per_pass("runtime.wire.recv.s"),
        "runtime.distributed.worker_busy_s":
            per_pass("runtime.distributed.worker_busy_s"),
    })
    runs = [run for run in merged["fleet_runs"] if run["end"] is not None]
    leases = sum(run["leases"] for run in runs)
    out.update({
        "runtime.distributed.spawn_ms": 1e3 * _mean(
            [run["joined"] - run["start"] for run in runs if run["joined"]]),
        "runtime.distributed.leases": leases / passes,
        "runtime.distributed.tasks_per_lease": _ratio(
            sum(run["results"] for run in runs), leases),
        "runtime.distributed.teardown_ms": 1e3 * _mean(
            [run["end"] - run["last_result"] for run in runs
             if run["last_result"]]),
    })
    for name in ("queue_wait", "submit", "stream", "results", "figure"):
        out[f"service.{name}_ms"] = _median(
            samples.get(f"service.{name}_ms", []))
    out["other.self_s"] = (traced_s - sum(
        merged["main_self_s"].values())) / passes
    out["trace_overhead_frac"] = overhead
    return {name: out[name] for name in PER_LAYER_UNITS}


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------
def _replace_function(module_name: str, attr: str, entry: Entry) -> None:
    original = getattr(importlib.import_module(module_name), attr)
    wrapped = entry.wrap(original)
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def _replace_method(cls: type, attr: str, entry: Entry) -> None:
    raw = None
    for klass in cls.__mro__:
        if attr in vars(klass):
            raw = vars(klass)[attr]
            break
    if raw is None:
        raise AttributeError(f"{cls.__qualname__} has no {attr}")
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(entry.wrap(raw.__func__)))
    else:
        setattr(cls, attr, entry.wrap(raw))


def _mitigation_classes() -> list[type]:
    from repro.mitigations.base import MitigationMechanism

    found, todo = [], [MitigationMechanism]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def install() -> Recorder:
    """Wrap every entry point (idempotent per process)."""
    if getattr(install, "done", False):
        return RECORDER
    for name in MODULES:
        importlib.import_module(name)
    import repro.cli.campaigns  # noqa: F401 — loads the CLI's by-name copies
    import repro.cli.validation  # noqa: F401
    for target, entry in entry_points():
        module_name, _, qualname = target.partition(":")
        if "." in qualname:
            class_name, attr = qualname.split(".")
            cls = getattr(importlib.import_module(module_name), class_name)
            _replace_method(cls, attr, entry)
        else:
            _replace_function(module_name, qualname, entry)
    for cls in _mitigation_classes():
        for hook in MITIGATION_HOOKS:
            if hook not in vars(cls):
                continue
            after = {"on_activation": _activation,
                     "on_activation_epoch": _activation_epoch}.get(hook)
            _replace_method(cls, hook, Entry(
                "mitigations", f"{cls.__name__}.{hook}", leaf=True,
                tag="mitigations.dispatch" if after else None, after=after))
    install.done = True
    RECORDER.reset()
    return RECORDER

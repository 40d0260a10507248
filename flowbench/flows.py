"""The four workloads of the pipeline benchmark.

Each workload turns the benchmark seed into concrete inputs (the program
only ever sees those inputs) and runs one *pass*: the paper's artifact
flow through the library's public entry points, then an output check,
then a *repeat* of the finished work (a batch re-run into the same
results directory, or a service resubmission), which reads everything
back through the program's own validators.

``full`` is the measured scale; ``smoke`` drives the same code paths in
seconds and is what the benchmark's own tests run.  ``full`` keeps each
workload's shape at a size where one pass takes one to three seconds, so a
run repeats every timed unit ten to fifteen times (see ``run.py``), and a
seed changes the inputs without changing how much work a pass is.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import subprocess
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

clock = time.perf_counter

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

#: The seed whose outputs ``reference.json`` pins, and the inputs the
#: command-line defaults use (campaign seed 2025, spec06.mcf + ycsb.a).
DEFAULT_SEED = 0

#: A pass repeats its finished work until this much time is spent (at
#: least once, at most :data:`MAX_REPEATS` times).
REPEAT_BUDGET_MS = 100.0
MAX_REPEATS = 10

MITIGATIONS = ("PARA", "RFM", "PRAC", "Hydra", "Graphene")
#: Single-core workloads the evaluation pairs: one pointer-chasing,
#: high-MPKI program and one key-value server, as spec06.mcf + ycsb.a are.
#: Each pool holds programs of like memory behaviour and simulation cost
#: (within ~15% per request; ycsb.b, at ~70%, is left out), so a seed
#: changes the inputs without changing how much work a pass is.
POINTER_CHASERS = ("spec06.mcf", "spec17.mcf")
KEY_VALUE = ("ycsb.a", "ycsb.c", "ycsb.d", "ycsb.e", "ycsb.f")
#: 4-core mixes whose summed MPKI is within this share of the Fig. 19
#: default mix's are interchangeable inputs for it.
MIX_MPKI_BAND = 0.10
#: Each vendor's PaCRAM reference module.
REFERENCE_MODULES = ("H5", "M2", "S6")


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


def file_digests(paths) -> dict[str, str]:
    return {Path(p).name: digest(Path(p).read_bytes()) for p in paths}


def environment() -> dict:
    """What a result depends on besides the code: stored beside it, so
    figures from another numpy or a flipped default are never compared
    blind."""
    import numpy

    from repro.exec import STAGE_KERNELS, ExecutionPolicy

    default = ExecutionPolicy()  # what --kernel-policy auto resolves to
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "kernels": {stage: default.kernel_for(stage)
                        for stage in STAGE_KERNELS}}


class Laps:
    """Contiguous named segments of one pass: they add up to its wall time,
    and the same seed gives the same names in every pass of a run."""

    def __init__(self) -> None:
        self.items: list[tuple[str, float]] = []
        self.mark = clock()

    def start(self) -> None:
        self.items = []
        self.mark = clock()

    def lap(self, name: str) -> float:
        """Close the segment running since the last lap; returns seconds."""
        now = clock()
        self.items.append((name, now - self.mark))
        self.mark = now
        return self.items[-1][1]


class TaskClock:
    """Per-task latency of a batch run.

    At ``jobs=1`` the local scheduler runs tasks inline during submission
    and reports their completions afterwards in one burst, so progress
    hooks cannot time a task.  :meth:`watch` instead hands the job's
    executor tasks whose function is wrapped in a stopwatch (a few hundred
    calls per pass, no effect on what the task computes); each task is its
    own segment of the pass.
    """

    def __init__(self, laps: Laps) -> None:
        self.laps = laps
        self.timed: list[tuple[str, float]] = []

    def watch(self, execution) -> None:
        run = type(execution).run

        def timed_run(tasks, loader, **options):
            tasks = [replace(task, fn=partial(self._time, task.key, task.fn))
                     for task in tasks]
            return run(execution, tasks, loader, **options)

        execution.run = timed_run

    def _time(self, key, fn, *args):
        self.laps.lap(f"before:{key}")
        try:
            return fn(*args)
        finally:
            self.timed.append((key, self.laps.lap(f"task:{key}") * 1e3))


def similar_mixes() -> list[tuple[str, ...]]:
    """The 4-core mixes of about the default mix's memory intensity."""
    from repro.workloads.suites import multicore_mixes, workload_spec

    def mpki(mix):
        return sum(workload_spec(name).mpki for name in mix)

    mixes = multicore_mixes(60)
    anchor = mpki(mixes[0])
    return [mix for mix in mixes
            if abs(mpki(mix) - anchor) <= MIX_MPKI_BAND * anchor]


def per_vendor(rng: random.Random, seed: int,
               count: int) -> tuple[str, ...]:
    """A cross-vendor module subset: ``count`` SK Hynix, Micron and Samsung
    parts each.  At the default seed each vendor's PaCRAM reference module
    is among them."""
    from repro.dram.catalog import modules_by_manufacturer

    chosen: list[str] = []
    for vendor, reference in zip("HMS", REFERENCE_MODULES):
        ids = [spec.module_id for spec in modules_by_manufacturer(vendor)]
        if seed == DEFAULT_SEED:
            others = [m for m in ids if m != reference]
            chosen += [reference] + rng.sample(others, count - 1)
        else:
            chosen += rng.sample(ids, count)
    return tuple(chosen)


class Flow:
    """One workload: seeded inputs, set-up, and a timed pass."""

    name = ""

    def __init__(self, seed: int, scale: str, workdir: Path, *,
                 scheduler: str = "fleet") -> None:
        self.seed = seed
        self.scale = scale
        self.full = scale == "full"
        self.workdir = Path(workdir)
        self.scheduler = scheduler
        self.rng = random.Random(f"{self.name}:{seed}")
        self.laps = Laps()
        self.tasks = TaskClock(self.laps)
        self.reference: dict[str, str] | None = None
        if seed == DEFAULT_SEED and REFERENCE.exists():
            pinned = json.loads(REFERENCE.read_text())
            self.reference = pinned.get(self.name, {}).get(scale)

    # -- subclass hooks -------------------------------------------------
    def setup(self) -> None:
        """Imports and config building (counted in ``setup_s``)."""

    def execute(self) -> dict:
        """Run the flow, closing a :attr:`laps` segment after each phase;
        returns ``outputs``/``work``/``tasks``/``failed`` and, unless
        :attr:`tasks` times them, ``ops`` (``[(key, ms)]``)."""
        raise NotImplementedError

    def repeat(self) -> dict:
        """Repeat the finished work; returns ``outputs``/``tasks``/
        ``failed`` and, if it times its own repeats, ``repeats``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` started."""

    # -- the pass -------------------------------------------------------
    def check(self, outputs: dict[str, str]) -> tuple[int, int]:
        """``(checked, mismatched)`` against the pinned digests."""
        if self.reference is None:
            return 0, 0
        names = set(outputs) | set(self.reference)
        bad = sum(1 for name in names
                  if outputs.get(name) != self.reference.get(name))
        return len(names), bad

    def timed(self) -> dict:
        self.laps.start()
        run = self.execute()
        checked, mismatched = self.check(run["outputs"])
        self.laps.lap("check")
        segments = list(self.laps.items)
        attempted = run["tasks"] + checked
        failed = run["failed"] + mismatched
        computed = len(self.tasks.timed)
        repeats: list[tuple[str, float]] = []
        spent = 0.0
        # Short repeats run several times so a pass yields several samples.
        while not repeats or (spent < REPEAT_BUDGET_MS / 1e3
                              and len(repeats) < MAX_REPEATS):
            start = clock()
            again = self.repeat()
            repeats.append(("repeat", (clock() - start) * 1e3))
            spent += repeats[-1][1] / 1e3
            attempted += again["tasks"] + len(again["outputs"])
            failed += again["failed"] + sum(
                1 for name, value in again["outputs"].items()
                if run["outputs"].get(name) != value)
            if "repeats" in again:  # the repeats are timed inside the flow
                repeats = again["repeats"]
                break
        # A repeat reuses every persisted result; recomputing one is a miss.
        failed += len(self.tasks.timed) - computed
        return {"wall_s": sum(seconds for _, seconds in segments),
                "segments": segments, "repeat_s": spent, "work": run["work"],
                "ops": run.get("ops", self.tasks.timed[:computed]),
                "repeats": repeats, "outputs": run["outputs"],
                "attempted": attempted, "failed": failed}


# ----------------------------------------------------------------------
class CampaignFlow(Flow):
    """Algorithm 1 over the catalog at the CLI defaults but ``--rows 8``
    (the default 64 makes a pass too long to repeat often in a run), then
    Table 3, Table 4 and the Fig. 6 boxes from the reloaded results."""

    name = "campaign"

    def setup(self) -> None:
        from repro.characterization.campaign import (
            CampaignConfig,
            CharacterizationCampaign,
        )
        from repro.dram.catalog import all_module_ids

        if self.full:
            modules, rows = all_module_ids(), 8
        else:
            modules = per_vendor(self.rng, self.seed, 1)
            rows = 2
        self.config = CampaignConfig(module_ids=modules, per_region=rows,
                                     seed=2025 + self.seed)
        self.campaign = CharacterizationCampaign(self.workdir / "campaign",
                                                 self.config)
        self.tasks.watch(self.campaign.execution)

    def _render(self) -> tuple[dict[str, str], int]:
        from repro.analysis.figures import fig6_nrh_boxes_from
        from repro.analysis.tables import render_table3, render_table4

        laps = self.laps
        loaded = self.campaign.load()
        laps.lap("load")
        outputs = file_digests(self.campaign.result_path(m)
                               for m in self.config.module_ids)
        laps.lap("digest")
        outputs["table3"] = digest(render_table3(loaded))
        laps.lap("table3")
        outputs["table4"] = digest(render_table4())
        laps.lap("table4")
        outputs["fig6"] = digest(repr(fig6_nrh_boxes_from(
            loaded, tras_factors=self.config.tras_factors)))
        laps.lap("fig6")
        return outputs, sum(len(r.measurements) for r in loaded.values())

    def execute(self) -> dict:
        self.campaign.run(jobs=1)
        self.laps.lap("campaign")
        outputs, measurements = self._render()
        return {"outputs": outputs, "work": measurements,
                "tasks": len(self.config.module_ids), "failed": 0}

    def repeat(self) -> dict:
        self.campaign.run(jobs=1)
        outputs, _ = self._render()
        return {"outputs": outputs, "tasks": len(self.config.module_ids),
                "failed": 0}


# ----------------------------------------------------------------------
class EvaluationFlow(Flow):
    """The Fig. 17/18 grid, Fig. 16 on its baseline-cache tier, Fig. 19 on
    a 4-core mix, and the rendered Fig. 17."""

    name = "evaluation"

    def setup(self) -> None:
        from repro.analysis.baselines import BaselineCache
        from repro.analysis.runner import EVALUATED_NRH_VALUES
        from repro.analysis.sweeprunner import SweepGrid, SweepRunner
        from repro.workloads.suites import multicore_mixes

        if self.seed == DEFAULT_SEED:
            pair, mix = ("spec06.mcf", "ycsb.a"), multicore_mixes(1)[0]
        else:
            pair = (self.rng.choice(POINTER_CHASERS),
                    self.rng.choice(KEY_VALUE))
            mix = self.rng.choice(similar_mixes())
        if self.full:
            self.requests = 400
            grid = SweepGrid(mitigations=MITIGATIONS,
                             nrh_values=EVALUATED_NRH_VALUES,
                             workload_sets=tuple((w,) for w in pair),
                             requests=self.requests)
            self.fig16 = {"mitigations": MITIGATIONS}
            self.fig19 = {"mix": mix, "requests": 400,
                          "densities_gbit": (8, 32, 128, 512)}
        else:
            self.requests = 200
            grid = SweepGrid(mitigations=("PARA", "Graphene"),
                             nrh_values=(1024, 32),
                             pacram_vendors=(None, "H"),
                             workload_sets=((pair[0],),),
                             requests=self.requests)
            self.fig16 = {"mitigations": ("PARA",), "vendors": ("H",),
                          "nrh_values": (1024,), "tras_factors": (0.64,)}
            self.fig19 = {"mix": mix, "requests": 200, "densities_gbit": (8,),
                          "latency_factors": (1.00, 0.36)}
        self.fig16["workloads"] = grid.workload_sets[0]
        self.fig16["requests"] = self.requests
        self.runner = SweepRunner(self.workdir / "evaluation", grid)
        self.tasks.watch(self.runner.execution)
        self.cache = BaselineCache(disk_dir=self.runner.cache_dir())

    def _simulated_requests(self, rows, fig16, fig19) -> int:
        """Requests x cores over every simulation asked for (cache-served
        ones included)."""
        per_point = len(self.fig16["workloads"]) * self.requests
        fig16_runs = 0
        for mitigation in self.fig16["mitigations"]:
            for nrh in self.fig16.get("nrh_values", (1024, 64)):
                fig16_runs += 1 + sum(
                    len(series) for (m, _v, n), series in fig16.items()
                    if m == mitigation and n == nrh)
        fig19_runs = len(fig19) * (1 + len(next(iter(fig19.values()))))
        return (len(rows) * self.requests + fig16_runs * per_point
                + fig19_runs * len(self.fig19["mix"]) * self.fig19["requests"])

    def execute(self) -> dict:
        from repro.analysis.figures import fig16_latency_sweep, fig19_periodic
        from repro.analysis.sweeprunner import render_aggregate

        laps = self.laps
        rows = self.runner.run(jobs=1)
        laps.lap("sweep")
        # One call per mitigation and per density: the same figures, in
        # segments short enough for a run to catch each at its best.
        fig16: dict = {}
        for mitigation in self.fig16["mitigations"]:
            fig16.update(fig16_latency_sweep(
                cache=self.cache, **dict(self.fig16, mitigations=(mitigation,))))
            laps.lap(f"fig16:{mitigation}")
        fig19: dict = {}
        for density in self.fig19["densities_gbit"]:
            fig19.update(fig19_periodic(
                **dict(self.fig19, densities_gbit=(density,))))
            laps.lap(f"fig19:{density}")
        fig17 = render_aggregate(self.runner.aggregate(rows))
        laps.lap("fig17")
        outputs = file_digests(self.runner.row_path(p)
                               for p in self.runner.grid.points())
        outputs.update(fig16=digest(repr(fig16)), fig19=digest(repr(fig19)),
                       fig17=digest(fig17))
        laps.lap("digest")
        return {"outputs": outputs,
                "work": self._simulated_requests(rows, fig16, fig19),
                "tasks": len(rows), "failed": 0}

    def repeat(self) -> dict:
        from repro.analysis.sweeprunner import render_aggregate

        rows = self.runner.run(jobs=1)
        outputs = file_digests(self.runner.row_path(p)
                               for p in self.runner.grid.points())
        outputs["fig17"] = digest(render_aggregate(self.runner.aggregate(rows)))
        return {"outputs": outputs, "tasks": len(rows), "failed": 0}


# ----------------------------------------------------------------------
class ServiceFlow(Flow):
    """A closed-loop client of ``serve-api``: README-sized jobs, about a
    quarter of them resubmissions, each submit -> stream -> results ->
    figure over one connection."""

    name = "service"

    def _sequence(self) -> list[tuple]:
        from repro.analysis.runner import EVALUATED_NRH_VALUES
        from repro.analysis.sweeprunner import SweepGrid
        from repro.characterization.campaign import CampaignConfig
        from repro.dram.catalog import all_module_ids
        from repro.service.jobs import JobSpec

        rng = self.rng
        if self.full:
            kinds = ["sweep"] * 6 + ["campaign"] * 4
            repeats = 3
        else:
            kinds, repeats = ["sweep", "campaign"], 1
        rng.shuffle(kinds)
        jobs, seen = [], set()
        while len(jobs) < len(kinds):
            kind = kinds[len(jobs)]
            if kind == "sweep":
                size = 2 if self.full else 1
                grid = SweepGrid(
                    mitigations=tuple(rng.sample(MITIGATIONS, size)),
                    nrh_values=tuple(sorted(
                        rng.sample(EVALUATED_NRH_VALUES, size),
                        reverse=True)),
                    requests=400 if self.full else 100)
                job = (JobSpec("sweep", grid), "fig17")
            else:
                config = CampaignConfig(
                    module_ids=tuple(rng.sample(all_module_ids(),
                                                2 if self.full else 1)),
                    per_region=4 if self.full else 1)
                job = (JobSpec("campaign", config), "fig6")
            if job[0].job_id not in seen:  # a new job must not dedup
                seen.add(job[0].job_id)
                jobs.append(job)
        sequence = [job + (False,) for job in jobs]
        for _ in range(repeats):
            at = rng.randrange(1, len(sequence) + 1)
            spec, figure, _ = rng.choice(sequence[:at])
            sequence.insert(at, (spec, figure, True))
        return sequence

    def setup(self) -> None:
        from repro.service.client import ServiceClient

        self.sequence = self._sequence()
        command = [sys.executable, str(HERE / "serve.py"), "serve-api",
                   "--dir", str(self.workdir / "jobs"),
                   "--serve", "127.0.0.1:0", "--jobs", "1",
                   "--scheduler", self.scheduler]
        if self.scheduler == "fleet":
            command += ["--workers", "2"]
        self.server = subprocess.Popen(command, stdout=subprocess.PIPE,
                                       text=True)
        line = self.server.stdout.readline()
        if " on " not in line:
            self.close()
            raise RuntimeError(f"serve-api did not start: {line!r}")
        host, _, port = line.rsplit(" on ", 1)[1].strip().rpartition(":")
        self.client = ServiceClient((host, int(port)))

    def execute(self) -> dict:
        outputs: dict[str, str] = {}
        new, repeats, failed = [], [], 0
        for index, (spec, figure, repeated) in enumerate(self.sequence):
            self.laps.lap(f"between:{index}")
            frame = self.client.submit(spec)
            job = frame["job_id"]
            end = self.client.stream(job)
            files = self.client.results(job)
            text = self.client.figure(job, figure)
            elapsed_ms = self.laps.lap(f"job:{index}") * 1e3
            (repeats if repeated else new).append((f"job:{index}", elapsed_ms))
            failed += (end.get("state") != "done") + \
                (bool(frame.get("deduped")) != repeated)
            produced = {f"{job}/{name}": digest(data)
                        for name, data in files.items()}
            produced[f"{job}/{figure}"] = digest(text)
            for name, value in produced.items():
                failed += outputs.setdefault(name, value) != value
        self.repeats = repeats
        return {"outputs": outputs, "work": len(self.sequence), "ops": new,
                "tasks": 4 * len(self.sequence), "failed": failed}

    def repeat(self) -> dict:
        # The resubmissions inside the sequence are this workload's repeats.
        return {"outputs": {}, "repeats": self.repeats, "tasks": 0,
                "failed": 0}

    def close(self) -> None:
        client = getattr(self, "client", None)
        if client is not None:
            try:
                client.stop_service()
            finally:
                client.close()
        if not hasattr(self, "server"):
            return
        try:
            self.server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()


# ----------------------------------------------------------------------
class CheckedFlow(Flow):
    """Physics guards, a ``--check-protocol strict`` campaign and a strict
    mitigation sweep.

    At ``full`` scale the physics guards cover the three vendors' reference
    modules and the strict campaign one of them (S6) at ``--rows 1``, at
    the command line's default campaign seed; the benchmark seed picks the
    sweep's workload.  A strict module task costs about 0.5x to 1.5x the
    median depending on the module, and at one row per region up to 2x
    depending on the rows the campaign seed draws, so a seed-drawn subset
    or campaign seed would change a pass's work by seed.  Most of a strict
    module task's time is the ``ProbeCache`` disk tier's small-file writes
    (~280 per module), whose speed on a shared virtual disk swings
    several-fold over minutes: with all three modules they were half of a
    pass and its noisiest half, so one module keeps that tier measured
    while the sweep, at 600 requests, is most of the pass."""

    name = "checked"

    def setup(self) -> None:
        from repro.analysis.sweeprunner import SweepGrid, SweepRunner
        from repro.characterization.campaign import (
            CampaignConfig,
            CharacterizationCampaign,
        )
        from repro.exec import ExecutionPolicy, set_default_policy

        # What `--check-protocol strict` installs: the scalar oracles.
        set_default_policy(ExecutionPolicy(check_protocol="strict"))
        if self.full:
            self.modules, self.characterized = REFERENCE_MODULES, ("S6",)
        else:
            self.modules = self.characterized = per_vendor(self.rng,
                                                           self.seed, 1)
        workload = ("spec06.mcf" if self.seed == DEFAULT_SEED
                    else self.rng.choice(POINTER_CHASERS))
        self.campaign = CharacterizationCampaign(
            self.workdir / "campaign",
            CampaignConfig(module_ids=self.characterized, per_region=1))
        grid = SweepGrid(
            mitigations=("PARA", "Graphene", "Hydra") if self.full
            else ("PARA",),
            nrh_values=(128, 32) if self.full else (32,),
            pacram_vendors=(None, "H", "M", "S") if self.full
            else (None, "H"),
            workload_sets=((workload,),),
            requests=600 if self.full else 100, check_protocol="strict")
        self.runner = SweepRunner(self.workdir / "sweep", grid)
        self.tasks.watch(self.campaign.execution)
        self.tasks.watch(self.runner.execution)

    def _outputs(self, rows) -> dict[str, str]:
        paths = [self.campaign.result_path(m) for m in self.characterized]
        paths += [self.runner.row_path(p) for p in self.runner.grid.points()]
        return file_digests(paths)

    def execute(self) -> dict:
        from repro.validation import check_physics

        laps = self.laps
        for module_id in self.modules:
            check_physics(module_id, mode="strict")
        laps.lap("physics")
        results = self.campaign.run(jobs=1)
        laps.lap("campaign")
        rows = self.runner.run(jobs=1)
        laps.lap("sweep")
        measurements = sum(len(r.measurements) for r in results.values())
        requests = len(rows) * self.runner.grid.requests
        outputs = self._outputs(rows)
        laps.lap("digest")
        return {"outputs": outputs,
                "work": measurements + requests,
                "tasks": len(self.characterized) + len(rows),
                "failed": sum(r.violations for r in rows)}

    def repeat(self) -> dict:
        self.campaign.run(jobs=1)
        self.campaign.load()
        rows = self.runner.run(jobs=1)
        return {"outputs": self._outputs(rows),
                "tasks": len(self.characterized) + len(rows), "failed": 0}


FLOWS = {flow.name: flow
         for flow in (CampaignFlow, EvaluationFlow, ServiceFlow, CheckedFlow)}

"""System-evaluation sweep runner (the artifact's Ramulator workflow).

The paper's artifact launches a grid of Ramulator runs
(``run_ramulator_all.sh``: mitigation x N_RH x PaCRAM configuration x
workload), tracks their status, and parses the results into the evaluation
figures.  This module is that workflow for the built-in simulator: define a
grid, run it (resumable, persisted as JSON rows), and aggregate.

The grid knobs mirror the artifact's customization interface (A.6):
``mitigations`` (MITIGATION_LIST), ``nrh_values`` (NRH_VALUES), PaCRAM
vendors, workloads and requests; :meth:`SweepGrid.from_file` reads them.

Execution and persistence go through the shared job layer
(:class:`repro.service.execution.JobExecution`): grid points run as
independent worker tasks (``jobs=N`` fans them across processes, ``jobs=1``
runs the same code serially), rows are persisted atomically, corrupt rows
found on resume are quarantined and re-run, and failing points are retried
and ledgered instead of aborting the sweep.  Each point seeds its own
simulation, so parallel results are bit-identical to serial ones.

Like :class:`~repro.characterization.campaign.CharacterizationCampaign`,
the runner is a *thin adapter*: result paths, resume, the ledger/report,
scheduler fan-out, and the ``force`` contract all live in
:class:`JobExecution` (one copy, shared), and a lint-style test keeps the
execution plumbing from leaking back in here.  Only the domain stays:
how to build one point's task, load a row back checked, and aggregate.
"""

from __future__ import annotations

import difflib
import hashlib
import json
import re
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

from repro.analysis.runner import (
    EVALUATED_NRH_VALUES,
    pacram_reference_config,
    run_simulation,
)
from repro.errors import ConfigError, SimulationError
from repro.exec import checked_kernel, fallback_kernel, validate_stage_kernel
from repro.mitigations import MITIGATION_CLASSES
from repro.runtime import ProgressReporter, Task
from repro.runtime.persist import write_atomic
from repro.service.execution import JobExecution
from repro.service.jobs import check_tuple, is_int
from repro.sim.config import SystemConfig
from repro.validation import CHECK_MODES
from repro.workloads.suites import single_core_suite

if TYPE_CHECKING:
    from repro.runtime.distributed import Fleet


def _sanitize(component: str) -> str:
    """Make one key component filesystem-safe (no separators/metachars)."""
    cleaned = re.sub(r"[^A-Za-z0-9.-]+", "-", component)
    return cleaned.strip("-") or "x"


@dataclass(frozen=True)
class SweepPoint:
    """One cell of the evaluation grid."""

    mitigation: str
    nrh: int
    pacram_vendor: str | None  #: None = no PaCRAM
    workloads: tuple[str, ...]

    @cached_property
    def key(self) -> str:
        """Stable, filesystem-safe identity of this point.

        Components are sanitized (a vendor or workload containing ``_``,
        ``+``, or path separators must not corrupt the row path), and a
        short hash of the *raw* fields keeps sanitized collisions apart —
        including ``pacram_vendor=None`` vs. a literal ``"none"`` vendor.
        Computed once per point: a sweep reads it about nine times.
        """
        raw = json.dumps([self.mitigation, self.nrh, self.pacram_vendor,
                          list(self.workloads)])
        digest = hashlib.sha256(raw.encode()).hexdigest()[:8]
        vendor = ("none" if self.pacram_vendor is None
                  else _sanitize(self.pacram_vendor))
        workloads = "+".join(_sanitize(w) for w in self.workloads)[:80]
        return (f"{_sanitize(self.mitigation)}_nrh{self.nrh}_{vendor}_"
                f"{workloads}_{digest}")


@dataclass(frozen=True)
class SweepRow:
    """One completed run's parsed statistics."""

    key: str
    mitigation: str
    nrh: int
    pacram_vendor: str | None
    workloads: tuple[str, ...]
    mean_ipc: float
    energy_nj: float
    preventive_busy_fraction: float
    preventive_refresh_rows: int
    #: Protocol violations the checker observed for this point (0 when the
    #: sweep ran with checking off).
    violations: int = 0
    #: Content digest over every other field; ``None`` on legacy rows.
    digest: str | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepRow":
        raw = dict(raw)
        raw["workloads"] = tuple(raw["workloads"])
        raw.setdefault("violations", 0)
        raw.setdefault("digest", None)
        return cls(**raw)


def row_digest(payload: dict) -> str:
    """Content digest of one persisted row (everything but ``digest``).

    Catches in-place corruption that still parses as valid JSON — e.g. a
    flipped digit in a stored statistic — which schema validation alone
    would accept."""
    data = {k: v for k, v in payload.items() if k != "digest"}
    blob = json.dumps(data, sort_keys=True, default=list)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_row(path: str | Path) -> SweepRow:
    """Parse and validate one persisted row.

    Truncated, schema-invalid, or digest-mismatched files raise
    :class:`~repro.errors.SimulationError` so the engine can quarantine
    and re-run the point instead of crashing the resume (or worse,
    aggregating corrupted statistics).  Rows persisted before digests
    existed load without the digest check.
    """
    try:
        raw = json.loads(Path(path).read_text())
        row = SweepRow.from_dict(raw)
    except (ValueError, KeyError, TypeError) as error:
        raise SimulationError(f"invalid sweep row at {path}: {error}") from error
    if row.digest is not None and row.digest != row_digest(raw):
        raise SimulationError(
            f"corrupt sweep row at {path}: content digest mismatch")
    return row


#: Most memory requests one grid point may simulate (the largest count
#: anything here runs is 8,000): a typo must not queue an endless point.
MAX_REQUESTS = 10_000_000

#: Keys of an A.6 evaluation-config file (:meth:`SweepGrid.from_file`).
CONFIG_FILE_KEYS = ("mitigations", "nrh_values", "pacram_vendors",
                    "workloads", "requests", "check_protocol")


def _reject_duplicate_keys(pairs: list) -> dict:
    """JSON object hook: a repeated key means the later value silently
    wins with a plain ``json.loads`` — make it a hard error instead."""
    seen: dict = {}
    for key, value in pairs:
        if key in seen:
            raise ConfigError(f"duplicate config key {key!r}")
        seen[key] = value
    return seen


@dataclass
class SweepGrid:
    """The A.6 customization knobs, checked when made: flags, an A.6
    file and a service submission refuse a bad value before it runs."""

    mitigations: tuple[str, ...] = ("PARA", "RFM", "PRAC", "Hydra", "Graphene")
    nrh_values: tuple[int, ...] = (1024, 64)
    pacram_vendors: tuple[str | None, ...] = (None, "H", "M", "S")
    workload_sets: tuple[tuple[str, ...], ...] = (("spec06.mcf",),)
    requests: int = 2_000
    #: Protocol-checker mode for every point ("off" | "tolerant" | "strict").
    check_protocol: str = "off"
    #: Simulation kernel for every point ("scalar" | "array"; None =
    #: process default).  Checking forces the scalar oracle regardless.
    sim_kernel: str | None = None

    def __post_init__(self) -> None:
        check_tuple("mitigations", self.mitigations,
                    f"names from {sorted(MITIGATION_CLASSES)}",
                    lambda m: isinstance(m, str) and m in MITIGATION_CLASSES)
        check_tuple("nrh_values", self.nrh_values, "positive ints",
                    lambda nrh: is_int(nrh) and nrh > 0)
        check_tuple("pacram_vendors", self.pacram_vendors,
                    "None, 'H', 'M' or 'S'",
                    lambda v: v in (None, "H", "M", "S"))
        check_tuple("workload_sets", self.workload_sets,
                    "non-empty tuples of workload names",
                    lambda names: isinstance(names, tuple) and bool(names)
                    and all(isinstance(name, str) for name in names))
        if not is_int(self.requests) or not 0 < self.requests <= MAX_REQUESTS:
            raise ConfigError(f"requests must be an int in 1..{MAX_REQUESTS}, "
                              f"got {self.requests!r}")
        if self.check_protocol not in CHECK_MODES:
            raise ConfigError(
                f"check_protocol must be one of {CHECK_MODES}, "
                f"got {self.check_protocol!r}")
        if self.sim_kernel is not None:
            validate_stage_kernel("sim", self.sim_kernel)

    @classmethod
    def from_file(cls, path: str | Path) -> "SweepGrid":
        """Load an A.6 evaluation-config file: a JSON object of
        :data:`CONFIG_FILE_KEYS`.  ``workloads`` lists single-workload
        sets and ``"none"`` is the no-PaCRAM vendor.  An omitted
        ``workloads`` means the first four single-core workloads and an
        omitted ``nrh_values``
        :data:`~repro.analysis.runner.EVALUATED_NRH_VALUES`, so ``{}`` is
        the 480-point evaluation."""
        try:
            raw = json.loads(Path(path).read_text(),
                             object_pairs_hook=_reject_duplicate_keys)
        except ValueError as error:
            raise ConfigError(f"malformed config file {path}: {error}") from None
        except OSError as error:
            raise ConfigError(f"unreadable config file {path}: {error}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(raw) - set(CONFIG_FILE_KEYS))
        if unknown:
            parts = []
            for key in unknown:
                close = difflib.get_close_matches(key, CONFIG_FILE_KEYS, n=1)
                hint = f" (did you mean {close[0]!r}?)" if close else ""
                parts.append(f"{key!r}{hint}")
            raise ConfigError(
                f"unknown config keys: {', '.join(parts)}; "
                f"known keys: {sorted(CONFIG_FILE_KEYS)}")
        # JSON lists become tuples; other values go to the grid's checks.
        options = {key: tuple(value) if isinstance(value, list) else value
                   for key, value in raw.items()}
        vendors = options.get("pacram_vendors")
        if isinstance(vendors, tuple):
            options["pacram_vendors"] = tuple(
                None if vendor == "none" else vendor for vendor in vendors)
        workloads = options.pop("workloads", single_core_suite()[:4])
        if isinstance(workloads, tuple):
            workloads = tuple((name,) for name in workloads)
        return cls(**{"nrh_values": EVALUATED_NRH_VALUES, **options,
                      "workload_sets": workloads})

    def points(self) -> list[SweepPoint]:
        return [SweepPoint(mitigation, nrh, vendor, workloads)
                for mitigation in self.mitigations
                for nrh in self.nrh_values
                for vendor in self.pacram_vendors
                for workloads in self.workload_sets]


def violations_path(row_path: str | Path) -> Path:
    """Where one point's violation ledger lives, next to its row."""
    return Path(row_path).with_suffix(".violations.jsonl")


def _simulate_to(point: SweepPoint, requests: int, path: str,
                 check_protocol: str, sim_kernel: str,
                 cache_dir: str) -> None:
    """Worker task: run one grid point, persist its row atomically.

    Module-level so it pickles across the process-pool boundary.  With
    checking enabled, observed violations are counted in the row and the
    full ledger lands in ``<key>.violations.jsonl`` beside it (one file per
    point keeps parallel workers from interleaving writes and makes the
    ledger deterministic for a given seed).  ``cache_dir`` points at the
    sweep's shared on-disk :class:`~repro.analysis.baselines.BaselineCache`
    — no-PaCRAM points written there once are reused by every other worker
    (and every later sweep over the same grid inputs).
    """
    from repro.analysis.baselines import BaselineCache

    pacram = (pacram_reference_config(point.pacram_vendor)
              if point.pacram_vendor else None)
    config = SystemConfig(num_cores=max(1, len(point.workloads)))
    ledger = violations_path(path)
    result = run_simulation(
        point.workloads, mitigation=point.mitigation, nrh=point.nrh,
        pacram=pacram, requests=requests, config=config,
        check_protocol=check_protocol, sim_kernel=sim_kernel,
        cache=BaselineCache(disk_dir=cache_dir))
    row = SweepRow(
        key=point.key, mitigation=point.mitigation, nrh=point.nrh,
        pacram_vendor=point.pacram_vendor, workloads=point.workloads,
        mean_ipc=result.mean_ipc, energy_nj=result.energy_nj,
        preventive_busy_fraction=result.preventive_busy_fraction,
        preventive_refresh_rows=(
            result.controller_stats.preventive_refresh_rows),
        violations=len(result.protocol_violations))
    if result.protocol_violations:
        lines = [json.dumps(v.to_json(), sort_keys=True)
                 for v in result.protocol_violations]
        write_atomic(ledger, "\n".join(lines) + "\n")
    else:
        ledger.unlink(missing_ok=True)  # drop a stale ledger on re-run
    payload = asdict(row)
    payload["digest"] = row_digest(payload)
    write_atomic(path, json.dumps(payload, indent=1), durable=True)


class SweepRunner:
    """Runs a grid resumably, persisting one JSON row per point."""

    def __init__(self, results_dir: str | Path,
                 grid: SweepGrid | None = None) -> None:
        self.grid = grid or SweepGrid()
        #: The shared job-layer plumbing: result paths, resume, the
        #: ledger/report, scheduler fan-out, the ``force`` contract.
        self.execution = JobExecution(results_dir)
        self.results_dir = self.execution.results_dir

    def row_path(self, point: SweepPoint) -> Path:
        return self.execution.result_path(f"{point.key}.json")

    def cache_dir(self) -> Path:
        """Where the sweep's shared baseline cache persists."""
        return self.results_dir / "baseline_cache"

    def ledger_path(self) -> Path:
        """Where the engine records failed attempts for this sweep."""
        return self.execution.ledger_path()

    def report_path(self) -> Path:
        """Where the engine persists its end-of-run ``run_report.json``."""
        return self.execution.report_path()

    def status(self) -> tuple[int, int]:
        """(completed, total) — the check_run_status.py analogue."""
        points = self.grid.points()
        done = sum(1 for p in points
                   if self.execution.is_done(f"{p.key}.json"))
        return done, len(points)

    def _task(self, point: SweepPoint) -> Task:
        path = self.row_path(point)
        # Resolve the sim kernel once, here in the parent process (the
        # checking-forces-the-oracle rule included), so pickled workers
        # receive a concrete name and never resolve on their own.
        kernel = checked_kernel("sim", self.grid.sim_kernel,
                                check_protocol=self.grid.check_protocol)
        cache_dir = str(self.cache_dir())
        # Graceful degradation: a fast kernel that raises in a worker gets
        # one re-run on the scalar oracle (same cache — baseline rows are
        # kernel-independent) before retry accounting resumes.
        oracle = fallback_kernel("sim", kernel)
        fallback_args = None
        if oracle is not None:
            fallback_args = (point, self.grid.requests, str(path),
                             self.grid.check_protocol, oracle, cache_dir)
        return Task(key=point.key, path=path, fn=_simulate_to,
                    args=(point, self.grid.requests, str(path),
                          self.grid.check_protocol, kernel, cache_dir),
                    fallback_args=fallback_args)

    # ------------------------------------------------------------------
    def run_point(self, point: SweepPoint, *, force: bool = False) -> SweepRow:
        results = self.execution.run([self._task(point)], loader=load_row,
                                     force=force)
        return results[point.key]

    def run(self, *, force: bool = False, jobs: int | None = 1,
            progress: ProgressReporter | None = None,
            task_timeout_s: float | None = None,
            scheduler: str = "local", workers: int | None = None,
            serve: str | tuple[str, int] | None = None,
            lease_batch: int | None = None,
            fleet: Fleet | None = None) -> list[SweepRow]:
        """Run (or resume) the whole grid; returns rows in grid order.

        ``jobs`` controls the worker-process count (``None`` = all cores);
        valid on-disk rows are reused, corrupt ones quarantined and re-run.
        Row contents are identical for any ``jobs`` and either kernel.
        ``task_timeout_s`` arms the engine's watchdog: a point whose worker
        produces no row within the deadline is killed and retried
        (deadlines require worker processes, i.e. ``jobs > 1``).
        ``scheduler`` selects the execution backend
        (:mod:`repro.runtime.scheduler`): ``local`` drains on this host,
        ``fleet`` leases points to ``workers`` spawned loopback workers
        and/or external ``repro-experiments worker`` clients connecting to
        ``serve``, or borrows the open ``fleet`` — rows are byte-identical
        either way.
        """
        points = self.grid.points()
        results = self.execution.run([self._task(p) for p in points],
                                     loader=load_row, force=force,
                                     jobs=jobs, progress=progress,
                                     task_timeout_s=task_timeout_s,
                                     scheduler=scheduler, workers=workers,
                                     serve=serve, lease_batch=lease_batch,
                                     fleet=fleet)
        return [results[p.key] for p in points]

    # ------------------------------------------------------------------
    def aggregate(self, rows: list[SweepRow] | None = None,
                  ) -> dict[tuple[str, str], dict[int, float]]:
        """Normalized IPC vs N_RH per (mitigation, config) — Fig. 17's
        parse_ram_results step.  Normalization is against the same
        mitigation's no-PaCRAM row at the same N_RH; PaCRAM rows whose grid
        legitimately omits that baseline (no ``None`` in
        ``pacram_vendors``) are skipped rather than a hard error after the
        whole sweep already ran."""
        if rows is None:
            rows = self.run()
        baselines: dict[tuple[str, int, tuple[str, ...]], float] = {}
        for row in rows:
            if row.pacram_vendor is None:
                baselines[(row.mitigation, row.nrh, row.workloads)] = row.mean_ipc
        out: dict[tuple[str, str], dict[int, float]] = {}
        for row in rows:
            if row.pacram_vendor is None:
                continue
            base = baselines.get((row.mitigation, row.nrh, row.workloads))
            if base is None:
                continue  # grid ran without a no-PaCRAM baseline series
            if base <= 0:
                raise SimulationError(
                    f"non-positive no-PaCRAM baseline for {row.key}")
            label = f"PaCRAM-{row.pacram_vendor}"
            series = out.setdefault((row.mitigation, label), {})
            series[row.nrh] = row.mean_ipc / base
        return out


def render_aggregate(aggregate: dict[tuple[str, str], dict[int, float]],
                     ) -> str:
    """Fig. 17's text rendering: one line per (mitigation, config) series.

    The single source of the format — the ``sweep`` CLI prints this and
    the service's on-demand ``figure`` verb returns it, so both paths are
    byte-identical by construction.
    """
    lines = []
    for (mitigation, label), series in aggregate.items():
        values = " ".join(f"nrh={n}:{v:.4f}"
                          for n, v in sorted(series.items()))
        lines.append(f"{mitigation:<9} {label:<9} {values}")
    return "\n".join(lines)

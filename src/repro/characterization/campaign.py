"""Characterization campaigns with persistent results (artifact workflow).

The paper's artifact ships raw DRAM-Bender results and scripts that parse
and plot them (``plot_db_figures.sh``).  This module is that workflow for
the simulated platform: run a multi-module campaign once, persist every
module's measurements as JSON under a results directory, and reload them
for analysis without re-running.

Execution and persistence go through the shared job layer
(:class:`repro.service.execution.JobExecution`): modules run as
independent worker tasks (``jobs=N`` in parallel; ``jobs=1`` is the same
code run serially), results are written atomically, corrupt files found
on resume are quarantined and re-run, and transient failures are retried
and ledgered instead of killing the campaign.  Because each module's
measurements derive only from the campaign seed, parallel runs are
bit-identical to serial ones.

This class is deliberately a *thin adapter*: everything about running —
result paths, resume, the ledger/report, scheduler fan-out, the
``force`` contract — lives in :class:`JobExecution` (one copy, shared
with :class:`~repro.analysis.sweeprunner.SweepRunner`), and a lint-style
test keeps the execution plumbing from leaking back in here.  Only the
domain stays: how to build one module's task and load it back checked.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.bender.temperature import PIDTemperatureController
from repro.characterization.results import ModuleCharacterization
from repro.characterization.sweeps import (
    characterize_module,
    measured_points,
    measured_rows,
)
from repro.dram.catalog import all_module_ids
from repro.dram.module import DRAMModule
from repro.dram.timing import TESTED_TRAS_FACTORS
from repro.errors import CharacterizationError
from repro.exec import fallback_kernel, resolve_kernel, validate_stage_kernel
from repro.runtime import ProgressReporter, Task
from repro.service.execution import JobExecution
from repro.service.jobs import check_tuple, is_int
from repro.validation.physics import model_digest

if TYPE_CHECKING:
    from repro.runtime.distributed import Fleet

_KNOWN_MODULES = frozenset(all_module_ids())


def _is_real(value: Any) -> bool:
    return is_int(value) or (isinstance(value, float)
                             and math.isfinite(value))


@dataclass
class CampaignConfig:
    """What a campaign covers, checked when made.  A fleet decodes it
    again on every lease, so each check costs O(fields)."""

    module_ids: tuple[str, ...] = field(default_factory=all_module_ids)
    tras_factors: tuple[float, ...] = TESTED_TRAS_FACTORS
    n_prs: tuple[int, ...] = (1,)
    temperatures_c: tuple[float, ...] = (80.0,)
    per_region: int = 64
    seed: int = 2025
    #: Device kernel; ``None`` resolves through the default
    #: :class:`repro.exec.ExecutionPolicy` when tasks are built, so worker
    #: processes receive a concrete name and never resolve on their own.
    #: Both kernels produce bit-identical measurements.
    kernel: str | None = None

    def __post_init__(self) -> None:
        for name, what, valid in (
                ("module_ids", "catalog module ids",
                 lambda m: isinstance(m, str) and m in _KNOWN_MODULES),
                ("tras_factors", "tRAS factors in (0, 1]",
                 lambda f: _is_real(f) and 0.0 < f <= 1.0),
                ("n_prs", "positive ints", lambda n: is_int(n) and n > 0),
                ("temperatures_c", "finite real numbers", _is_real)):
            check_tuple(name, getattr(self, name), what, valid,
                        error=CharacterizationError)
        if not is_int(self.per_region) or self.per_region <= 0:
            raise CharacterizationError(
                f"per_region must be a positive int, got {self.per_region!r}")
        if not is_int(self.seed):
            raise CharacterizationError(
                f"seed must be an int, got {self.seed!r}")
        if self.kernel is not None:
            validate_stage_kernel("device", self.kernel)


def _characterize_to(module_id: str, config: CampaignConfig, path: str,
                     kernel: str) -> None:
    """Worker task: characterize one module, persist it atomically.

    Module-level so it pickles across the process-pool boundary; the result
    travels back through the filesystem, not the pipe.  ``kernel`` arrives
    pre-resolved from the parent's execution policy.
    """
    result = characterize_module(
        module_id, tras_factors=config.tras_factors,
        n_prs=config.n_prs, temperatures_c=config.temperatures_c,
        per_region=config.per_region, seed=config.seed,
        kernel=kernel)
    result.save(path)


def _load_checked(path: str | Path) -> ModuleCharacterization:
    """Load a persisted result and verify its model digest.

    A mismatch means the device model (or its calibration) changed since
    the result was produced; raising lets the runtime scheduler
    quarantine the stale file and re-run the module, so a resumed campaign
    can never silently mix measurements from two different models.  A
    result without a digest is refused too: nothing vouches for it.
    """
    result = ModuleCharacterization.load(path)
    expected = model_digest(result.module_id, result.seed)
    if result.model_digest != expected:
        stored = (result.model_digest or "none")[:12]
        raise CharacterizationError(
            f"{result.module_id}: persisted measurements came from a "
            f"different device model (stored digest {stored}.., "
            f"live {expected[:12]}..)")
    return result


@functools.lru_cache(maxsize=64)
def _planned_rows(module_id: str, per_region: int) -> tuple[int, ...]:
    """The rows a campaign measures on one module (in the bank its seed
    selects, so a matching seed implies a matching bank)."""
    return measured_rows(DRAMModule(module_id), per_region)


def _close(measured: list, expected: tuple, tolerance: float) -> bool:
    return len(measured) == len(expected) and all(
        abs(a - b) <= tolerance for a, b in zip(measured, expected))


def _check_settings(result: ModuleCharacterization,
                    config: CampaignConfig) -> None:
    """Refuse a result that ``config`` would not have measured.

    A campaign resumed with another seed, other test points or another
    ``per_region`` must recompute the module, as it does for a drifted
    model.  Rows and test points follow the rules
    :func:`characterize_module` measures by, which emits measurements
    temperature by temperature, then row by row, tRAS factor by factor
    and N_PR by N_PR; so once the count matches, one measurement per
    value of each axis identifies the settings.  A measurement records
    the settled temperature, within the controller's precision of the
    set one.
    """
    rows = _planned_rows(result.module_id, config.per_region)
    factors, n_prs = measured_points(config.tras_factors, config.n_prs)
    temperatures = config.temperatures_c
    measurements = result.measurements
    per_row = len(factors) * len(n_prs)
    per_temperature = len(rows) * per_row
    if len(measurements) != len(temperatures) * per_temperature:
        differ = ["measurement count"]
    else:
        checks = (
            ("seed", result.seed == config.seed),
            ("rows", tuple(m.row for m in
                           measurements[:per_temperature:per_row]) == rows),
            ("tRAS factors",
             _close([m.tras_factor for m in
                     measurements[:per_row:len(n_prs)]], factors, 1e-9)),
            ("N_PR values",
             tuple(m.n_pr for m in measurements[:len(n_prs)]) == n_prs),
            ("temperatures",
             _close([m.temperature_c for m in
                     measurements[::per_temperature]], temperatures,
                    PIDTemperatureController.PRECISION_C)),
        )
        differ = [name for name, same in checks if not same]
    if differ:
        raise CharacterizationError(
            f"{result.module_id}: persisted measurements were taken with "
            f"other campaign settings (differing: {', '.join(differ)})")


class CharacterizationCampaign:
    """Runs, persists, and reloads multi-module characterization results."""

    def __init__(self, results_dir: str | Path,
                 config: CampaignConfig | None = None) -> None:
        self.config = config or CampaignConfig()
        #: The shared job-layer plumbing: result paths, resume, the
        #: ledger/report, scheduler fan-out, the ``force`` contract.
        self.execution = JobExecution(results_dir, seed=self.config.seed)
        self.results_dir = self.execution.results_dir

    # ------------------------------------------------------------------
    def result_path(self, module_id: str) -> Path:
        return self.execution.result_path(f"{module_id}.json")

    def is_done(self, module_id: str) -> bool:
        return self.execution.is_done(f"{module_id}.json")

    def pending_modules(self) -> tuple[str, ...]:
        return tuple(m for m in self.config.module_ids if not self.is_done(m))

    def report_path(self) -> Path:
        """Where the engine persists its end-of-run ``run_report.json``."""
        return self.execution.report_path()

    def _task(self, module_id: str) -> Task:
        path = self.result_path(module_id)
        # Resolve the device kernel once, here in the parent process (the
        # checking-forces-the-oracle rule included), so pickled workers
        # receive a concrete name and never resolve on their own.
        kernel = resolve_kernel("device", self.config.kernel)
        # Graceful degradation: a fast kernel that raises in a worker gets
        # one re-run on the stage's scalar oracle before retry accounting
        # resumes (no fallback when the oracle is already selected).
        fallback = fallback_kernel("device", kernel)
        fallback_args = None
        if fallback is not None:
            fallback_args = (module_id, self.config, str(path), fallback)
        return Task(key=module_id, path=path, fn=_characterize_to,
                    args=(module_id, self.config, str(path), kernel),
                    fallback_args=fallback_args)

    def _load(self, path: str | Path) -> ModuleCharacterization:
        """Load one persisted module, refusing a drifted model or a result
        measured with other settings than this campaign's."""
        result = _load_checked(path)
        _check_settings(result, self.config)
        return result

    # ------------------------------------------------------------------
    def run(self, *, force: bool = False,
            progress: ProgressReporter | None = None,
            fleet: Fleet | None = None,
            **options: Any) -> dict[str, ModuleCharacterization]:
        """Run (or resume) the whole campaign; returns all results.

        Valid on-disk results are reused, corrupt ones quarantined and
        re-run; ``force`` discards persisted results and re-runs every
        module.  ``options`` say how the modules run — the
        :class:`~repro.runtime.scheduler.RunOptions` fields: ``jobs``
        worker processes (``None`` = all cores), a ``task_timeout_s``
        watchdog deadline (``jobs > 1``), and the ``scheduler`` backend
        with its fleet's shape — and ``fleet`` lends a ``fleet`` run an
        open worker fleet.  The returned measurements are identical
        either way.
        """
        tasks = [self._task(module_id)
                 for module_id in self.config.module_ids]
        return self.execution.run(tasks, loader=self._load, force=force,
                                  progress=progress, fleet=fleet, **options)

    def load(self) -> dict[str, ModuleCharacterization]:
        """Load a completed campaign's results without running anything."""
        missing = self.pending_modules()
        if missing:
            raise CharacterizationError(
                f"campaign incomplete; missing modules: {missing}")
        return {module_id: self._load(self.result_path(module_id))
                for module_id in self.config.module_ids}

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Progress summary (the artifact's check_*_status.py analogue)."""
        done = [m for m in self.config.module_ids if self.is_done(m)]
        lines = [f"campaign at {self.results_dir}: "
                 f"{len(done)}/{len(self.config.module_ids)} modules done"]
        pending = self.pending_modules()
        if pending:
            lines.append("pending: " + ", ".join(pending))
        described = self.execution.describe_report()
        if described is not None:
            lines.append(described)
        return "\n".join(lines)

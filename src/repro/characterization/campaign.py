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

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.characterization.results import ModuleCharacterization
from repro.characterization.sweeps import characterize_module
from repro.dram.catalog import all_module_ids
from repro.dram.timing import TESTED_TRAS_FACTORS
from repro.errors import CharacterizationError
from repro.exec import checked_kernel, fallback_kernel, validate_stage_kernel
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
    result.save(path, durable=True)


def _load_checked(path: str | Path) -> ModuleCharacterization:
    """Load a persisted result and verify its model digest.

    A mismatch means the device model (or its calibration) changed since
    the result was produced; raising lets the runtime scheduler
    quarantine the stale file and re-run the module, so a resumed campaign
    can never silently mix measurements from two different models.  Results
    persisted before digests existed (``model_digest is None``) pass.
    """
    result = ModuleCharacterization.load(path)
    if result.model_digest is not None:
        expected = model_digest(result.module_id, result.seed)
        if result.model_digest != expected:
            raise CharacterizationError(
                f"{result.module_id}: persisted measurements came from a "
                f"different device model (stored digest "
                f"{result.model_digest[:12]}.., live {expected[:12]}..)")
    return result


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

    def ledger_path(self) -> Path:
        """Where the engine records failed attempts for this campaign."""
        return self.execution.ledger_path()

    def report_path(self) -> Path:
        """Where the engine persists its end-of-run ``run_report.json``."""
        return self.execution.report_path()

    def _task(self, module_id: str) -> Task:
        path = self.result_path(module_id)
        # Resolve the device kernel once, here in the parent process (the
        # checking-forces-the-oracle rule included), so pickled workers
        # receive a concrete name and never resolve on their own.
        kernel = checked_kernel("device", self.config.kernel)
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

    # ------------------------------------------------------------------
    def run_module(self, module_id: str, *,
                   force: bool = False) -> ModuleCharacterization:
        """Characterize one module, persisting (or reusing) its results."""
        if module_id not in self.config.module_ids:
            raise CharacterizationError(
                f"{module_id} is not part of this campaign")
        results = self.execution.run([self._task(module_id)],
                                     loader=_load_checked, force=force)
        return results[module_id]

    def run(self, *, force: bool = False, jobs: int | None = 1,
            progress: ProgressReporter | None = None,
            task_timeout_s: float | None = None,
            scheduler: str = "local", workers: int | None = None,
            serve: str | tuple[str, int] | None = None,
            lease_batch: int | None = None, fleet: Fleet | None = None,
            ) -> dict[str, ModuleCharacterization]:
        """Run (or resume) the whole campaign; returns all results.

        ``jobs`` controls the worker-process count (``None`` = all cores);
        valid on-disk results are reused, corrupt ones quarantined and
        re-run.  The returned measurements are identical for any ``jobs``.
        ``force`` discards persisted results and re-runs every module.
        ``task_timeout_s`` arms the engine's watchdog: a module whose
        worker produces no result within the deadline is killed and
        retried (deadlines require worker processes, i.e. ``jobs > 1``).
        ``scheduler`` selects the execution backend
        (:mod:`repro.runtime.scheduler`): ``local`` drains on this host,
        ``fleet`` leases modules to ``workers`` spawned loopback workers
        and/or external ``repro-experiments worker`` clients connecting to
        ``serve``, or borrows the open ``fleet`` — results are
        byte-identical either way.
        """
        tasks = [self._task(module_id)
                 for module_id in self.config.module_ids]
        return self.execution.run(tasks, loader=_load_checked, force=force,
                                  jobs=jobs, progress=progress,
                                  task_timeout_s=task_timeout_s,
                                  scheduler=scheduler, workers=workers,
                                  serve=serve, lease_batch=lease_batch,
                                  fleet=fleet)

    def load(self) -> dict[str, ModuleCharacterization]:
        """Load a completed campaign's results without running anything."""
        missing = self.pending_modules()
        if missing:
            raise CharacterizationError(
                f"campaign incomplete; missing modules: {missing}")
        return {module_id: _load_checked(self.result_path(module_id))
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
        lines.append(self.execution.describe_caches())
        return "\n".join(lines)

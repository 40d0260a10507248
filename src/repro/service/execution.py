"""Shared execution plumbing of every job kind (campaign, sweep).

Before the job layer existed, :class:`CharacterizationCampaign` and
:class:`SweepRunner` each carried a private copy of the same machinery:
where results live, what is already done, where the error ledger and run
report land, how the scheduler backend is built, and what ``force``
clears.  :class:`JobExecution` is that machinery, once — the orchestrators
keep only their domain knowledge (how to build a
:class:`~repro.runtime.Task` for one module or grid point, and how to
load/aggregate what comes back), enforced by a lint-style test the same
way :mod:`repro.exec` enforces its single kernel-resolution site.

This module deliberately knows nothing about campaigns or sweeps; the
dependency points one way (orchestrators -> execution -> runtime) so the
higher service layers (:mod:`repro.service.manager`,
:mod:`repro.service.api`) can import the orchestrators without cycles.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.runtime import (
    LEDGER_NAME,
    REPORT_NAME,
    ProgressReporter,
    Task,
    TaskPool,
    describe_run_report,
    make_scheduler,
)
from repro.runtime.cache import clear_disk_tiers, summarize_caches

if TYPE_CHECKING:
    from repro.runtime.distributed import Fleet

__all__ = ["JobExecution"]


class JobExecution:
    """One job's durable execution namespace.

    Owns everything about *running* a set of independent tasks that is
    not specific to what the tasks compute: result paths and done/pending
    state under ``results_dir``, the engine's error ledger and run
    report, scheduler construction through the one resolution site
    (:func:`~repro.runtime.scheduler.make_scheduler`), and the ``force``
    contract (drop persisted results *and* every registered cache tier
    before re-running).
    """

    def __init__(self, results_dir: str | Path, *, seed: int = 0) -> None:
        self.results_dir = Path(results_dir)
        self.seed = seed

    # ------------------------------------------------------------------
    # result namespace
    # ------------------------------------------------------------------
    def result_path(self, filename: str) -> Path:
        """Where one unit's persisted result lives."""
        return self.results_dir / filename

    def is_done(self, filename: str) -> bool:
        """Existence *is* the done-ness contract: atomic writes guarantee
        a present file is complete, and loaders quarantine corrupt ones."""
        return self.result_path(filename).exists()

    def pending(self, filenames: Iterable[str]) -> tuple[str, ...]:
        """The subset of ``filenames`` with no persisted result yet."""
        return tuple(f for f in filenames if not self.is_done(f))

    def ledger_path(self) -> Path:
        """Where the engine records failed attempts for this job."""
        return self.results_dir / LEDGER_NAME

    def report_path(self) -> Path:
        """Where the engine persists its end-of-run ``run_report.json``."""
        return self.results_dir / REPORT_NAME

    # ------------------------------------------------------------------
    # scheduler fan-out
    # ------------------------------------------------------------------
    def scheduler(self, *, jobs: int | None = 1,
                  progress: ProgressReporter | None = None,
                  timeout_s: float | None = None, scheduler: str = "local",
                  workers: int | None = None,
                  serve: str | tuple[str, int] | None = None,
                  lease_batch: int | None = None,
                  fleet: Fleet | None = None) -> TaskPool:
        """Build this job's execution backend (ledger/report pre-wired)."""
        return make_scheduler(scheduler, workers=workers, serve=serve,
                              lease_batch=lease_batch, fleet=fleet,
                              jobs=jobs, ledger_path=self.ledger_path(),
                              report_path=self.report_path(),
                              timeout_s=timeout_s, seed=self.seed,
                              progress=progress)

    def clear_caches(self) -> None:
        """Drop every persisted cache tier under the results directory
        (the ``force=True`` contract): a forced re-run must recompute,
        not replay memoized results from any layer."""
        clear_disk_tiers(self.results_dir)

    def run(self, tasks: list[Task], loader: Callable[[Path], Any], *,
            force: bool = False, jobs: int | None = 1,
            progress: ProgressReporter | None = None,
            task_timeout_s: float | None = None,
            scheduler: str = "local", workers: int | None = None,
            serve: str | tuple[str, int] | None = None,
            lease_batch: int | None = None,
            fleet: Fleet | None = None) -> dict[str, Any]:
        """Run (or resume) ``tasks`` and return ``{key: loaded result}``.

        Valid on-disk results are reused, corrupt ones quarantined and
        re-run; ``force`` discards persisted results and every cache tier
        first.  Results are byte-identical for any ``jobs``, either
        scheduler backend, and any failure interleaving — the engine's
        contract, inherited wholesale.  ``fleet`` lends a ``fleet`` run an
        open worker fleet instead of opening a private one.
        """
        if force:
            self.clear_caches()
        pool = self.scheduler(jobs=jobs, progress=progress,
                              timeout_s=task_timeout_s, scheduler=scheduler,
                              workers=workers, serve=serve,
                              lease_batch=lease_batch, fleet=fleet)
        return pool.run(tasks, loader=loader, force=force)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def describe_report(self) -> str | None:
        """Human summary of the persisted run report (``None`` if absent
        or torn — status output must never break on a partial report)."""
        report = self.report_path()
        if not report.exists():
            return None
        try:
            return describe_run_report(json.loads(report.read_text()))
        except (OSError, ValueError):
            return None

    def describe_caches(self) -> str:
        """One-line hit/miss summary of every cache tier under this job."""
        return summarize_caches(self.results_dir)

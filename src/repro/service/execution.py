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
from typing import TYPE_CHECKING, Any, Callable

from repro.runtime import (
    LEDGER_NAME,
    REPORT_NAME,
    ProgressReporter,
    RunOptions,
    Task,
    TaskPool,
    describe_run_report,
    make_scheduler,
)
from repro.runtime.cache import DigestCache

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
    contract (drop persisted results *and* the job's own disk-backed
    ``cache``, if it has one, before re-running).
    """

    def __init__(self, results_dir: str | Path, *, seed: int = 0,
                 cache: DigestCache | None = None) -> None:
        self.results_dir = Path(results_dir)
        self.seed = seed
        #: The disk-backed cache this job persists beside its results, if
        #: any: ``force`` clears its entries and the summary counts them.
        self.cache = cache

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

    def ledger_path(self) -> Path:
        """Where the engine records failed attempts for this job."""
        return self.results_dir / LEDGER_NAME

    def report_path(self) -> Path:
        """Where the engine persists its end-of-run ``run_report.json``."""
        return self.results_dir / REPORT_NAME

    # ------------------------------------------------------------------
    # scheduler fan-out
    # ------------------------------------------------------------------
    def scheduler(self, options: RunOptions, *,
                  progress: ProgressReporter | None = None,
                  fleet: Fleet | None = None) -> TaskPool:
        """Build this job's execution backend (ledger/report pre-wired)."""
        return make_scheduler(options, fleet=fleet,
                              ledger_path=self.ledger_path(),
                              report_path=self.report_path(),
                              seed=self.seed, progress=progress)

    def run(self, tasks: list[Task], loader: Callable[[Path], Any], *,
            force: bool = False, progress: ProgressReporter | None = None,
            fleet: Fleet | None = None, **options: Any) -> dict[str, Any]:
        """Run (or resume) ``tasks`` and return ``{key: loaded result}``.

        ``options`` are the :class:`~repro.runtime.scheduler.RunOptions`
        fields, checked before anything runs or is cleared.  Valid
        on-disk results are reused, corrupt ones quarantined and re-run;
        ``force`` discards persisted results and the job's cache entries
        first, so a forced re-run recomputes rather than replays.
        Results are byte-identical for any ``jobs``, either scheduler
        backend, and any failure interleaving — the engine's contract,
        inherited wholesale.  ``fleet`` lends a ``fleet`` run an open
        worker fleet instead of opening a private one.
        """
        run_options = RunOptions(**options)
        if force and self.cache is not None:
            self.cache.clear_disk()
        pool = self.scheduler(run_options, progress=progress, fleet=fleet)
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

    def describe_cache(self) -> str | None:
        """``cache <name>: persisted=N``, N counted on disk (right for any
        ``jobs``: workers share the files, not the instance); ``None``
        when the job persists no cache."""
        if self.cache is None:
            return None
        return (f"cache {self.cache.name}: "
                f"persisted={len(self.cache.disk_entries())}")

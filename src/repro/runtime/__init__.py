"""Shared fault-tolerant parallel execution engine (the artifact's
``run_ramulator_all.sh`` + ``check_run_status.py`` workflow, in-process).

Both :class:`~repro.characterization.campaign.CharacterizationCampaign` and
:class:`~repro.analysis.sweeprunner.SweepRunner` route all execution and
persistence through :class:`TaskPool`: atomic result writes, corrupt-result
quarantine on resume, bounded retry with an error ledger, and a
progress/ETA reporter.  ``jobs=1`` runs the identical code path serially.
"""

from repro.runtime.cache import DigestCache
from repro.runtime.engine import (
    LEDGER_MAX_BYTES,
    LEDGER_NAME,
    REPORT_NAME,
    PoolReport,
    Task,
    TaskPool,
    describe_run_report,
)
from repro.runtime.failures import (
    FAILURE_CLASSES,
    INFRASTRUCTURE,
    PERMANENT,
    TIMEOUT,
    TRANSIENT,
    TaskTimeout,
    classify_failure,
)
from repro.runtime.persist import (
    CORRUPT_SUFFIX,
    discard_stale_tmp,
    quarantine,
    write_atomic,
)
from repro.runtime.progress import PrintProgress, ProgressReporter
from repro.runtime.scheduler import (
    SCHEDULER_NAMES,
    RunOptions,
    make_scheduler,
    parse_address,
)

__all__ = [
    "CORRUPT_SUFFIX",
    "DigestCache",
    "FAILURE_CLASSES",
    "INFRASTRUCTURE",
    "LEDGER_MAX_BYTES",
    "LEDGER_NAME",
    "PERMANENT",
    "PoolReport",
    "PrintProgress",
    "ProgressReporter",
    "REPORT_NAME",
    "RunOptions",
    "SCHEDULER_NAMES",
    "TIMEOUT",
    "TRANSIENT",
    "Task",
    "TaskPool",
    "TaskTimeout",
    "classify_failure",
    "describe_run_report",
    "discard_stale_tmp",
    "make_scheduler",
    "parse_address",
    "quarantine",
    "write_atomic",
]

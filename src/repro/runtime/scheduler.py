"""Pluggable scheduler selection for campaigns and sweeps.

Every execution backend implements one interface — :class:`TaskPool`'s
``run(tasks, loader, force=...)`` contract: reuse valid on-disk results,
quarantine corrupt ones, drain the rest with classified retries, persist
``errors.jsonl`` + ``run_report.json``, and raise
:class:`~repro.errors.ExecutionError` naming any permanently failed
points.  What varies is only *where* the draining happens:

``local``
    :class:`~repro.runtime.engine.TaskPool` itself — a process pool on
    this host (``jobs`` workers; ``jobs=1`` runs inline).

``fleet``
    :class:`~repro.runtime.distributed.FleetScheduler` — a TCP
    coordinator that leases batched tasks to ``repro-experiments worker``
    clients (spawned loopback workers and/or external connections), and
    writes the results they push back into the same content-addressed
    store.  Results are byte-identical to a ``local`` run for any worker
    count or failure interleaving.  Each run opens a private fleet and
    closes it when it ends, unless it is lent an open one
    (:func:`open_fleet`) that outlives it, as ``serve-api`` does.

:class:`RunOptions` says how a run goes — the backend, its worker count
and deadline, and the fleet's shape — and checks itself when made, so a
bad combination is refused before any task runs or ``force`` deletes
anything.  Call sites never branch on the name: :func:`make_scheduler`
is the one resolution site, mirroring how :mod:`repro.exec` resolves
kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigError
from repro.runtime.engine import TaskPool, check_pool_limits

if TYPE_CHECKING:
    from repro.runtime.distributed import Fleet

__all__ = ["SCHEDULER_NAMES", "RunOptions", "make_scheduler", "open_fleet",
           "parse_address"]

#: Every scheduler backend, oracle (reference) first.
SCHEDULER_NAMES = ("local", "fleet")


def parse_address(address: str) -> tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` (the ``--serve``/``--connect``
    grammar; host may be empty for all-interfaces binds)."""
    host, separator, port_text = address.rpartition(":")
    if not separator or not port_text.isdigit():
        raise ConfigError(
            f"expected HOST:PORT (e.g. 127.0.0.1:7045), got {address!r}")
    port = int(port_text)
    if port > 65535:
        raise ConfigError(f"port out of range in {address!r}")
    return host or "0.0.0.0", port


@dataclass(frozen=True)
class RunOptions:
    """How one campaign or sweep runs, checked when made.

    ``jobs`` worker processes (``None``: all cores) and a per-task
    ``task_timeout_s`` deadline, on the ``scheduler`` backend.  A
    ``fleet`` run's fleet has ``workers`` spawned loopback workers,
    listens on ``serve`` (``HOST:PORT``, stored parsed) for external
    ones, and leases ``lease_batch`` tasks per round trip; ``None``
    takes the fleet's default.  Those three are refused under
    ``local``, where they would silently do nothing.
    """

    jobs: int | None = 1
    task_timeout_s: float | None = None
    scheduler: str = "local"
    workers: int | None = None
    serve: str | tuple[str, int] | None = None
    lease_batch: int | None = None

    def __post_init__(self) -> None:
        if self.scheduler not in SCHEDULER_NAMES:
            raise ConfigError(f"scheduler must be one of {SCHEDULER_NAMES}, "
                              f"got {self.scheduler!r}")
        check_pool_limits(self.jobs, self.task_timeout_s)
        shape = self.fleet_shape()
        if self.scheduler == "local":
            if shape:
                raise ConfigError(
                    f"{', '.join(shape)} only apply to --scheduler fleet")
            return
        if isinstance(self.serve, str):
            object.__setattr__(self, "serve", parse_address(self.serve))
        from repro.runtime.distributed import _check_shape

        _check_shape(**self.fleet_shape())

    def fleet_shape(self) -> dict[str, Any]:
        """The fleet knobs that were given, as :class:`Fleet` keywords."""
        shape = {"workers": self.workers, "serve": self.serve,
                 "lease_batch": self.lease_batch}
        return {name: value for name, value in shape.items()
                if value is not None}


def open_fleet(options: RunOptions) -> Fleet:
    """Open a worker fleet of the ``options``' shape that several runs
    can borrow in turn.

    Pass it to :func:`make_scheduler` as ``fleet``; whoever opens it
    closes it (:meth:`~repro.runtime.distributed.Fleet.close`).
    """
    from repro.runtime.distributed import Fleet

    return Fleet(**options.fleet_shape())


def make_scheduler(options: RunOptions, *, fleet: Fleet | None = None,
                   **pool_options: Any) -> TaskPool:
    """Build the scheduler backend ``options`` select.

    ``pool_options`` are the other shared :class:`TaskPool` knobs
    (retries, backoff, ledger/report paths, progress, seed).  A ``fleet``
    run opens a private fleet of the options' shape, or borrows the open
    ``fleet`` it is lent.
    """
    limits = {"jobs": options.jobs, "timeout_s": options.task_timeout_s}
    if options.scheduler == "local":
        return TaskPool(**limits, **pool_options)
    from repro.runtime.distributed import FleetScheduler

    shape = options.fleet_shape() if fleet is None else {"fleet": fleet}
    return FleetScheduler(**shape, **limits, **pool_options)

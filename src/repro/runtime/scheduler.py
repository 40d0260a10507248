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

Call sites never branch on the name: :func:`make_scheduler` is the one
resolution site, mirroring how :mod:`repro.exec` resolves kernels.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import ConfigError
from repro.runtime.engine import TaskPool

if TYPE_CHECKING:
    from repro.runtime.distributed import Fleet

__all__ = ["SCHEDULER_NAMES", "make_scheduler", "open_fleet",
           "parse_address", "validate_scheduler"]

#: Every scheduler backend, oracle (reference) first.
SCHEDULER_NAMES = ("local", "fleet")


def validate_scheduler(name: str) -> str:
    """Validate a scheduler backend name."""
    if name not in SCHEDULER_NAMES:
        raise ConfigError(
            f"scheduler must be one of {SCHEDULER_NAMES}, got {name!r}")
    return name


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


def _fleet_shape(workers: int | None, serve: str | tuple[str, int] | None,
                 lease_batch: int | None) -> dict[str, Any]:
    """The fleet knobs that were given, with ``serve`` parsed."""
    if isinstance(serve, str):
        serve = parse_address(serve)
    shape = {"workers": workers, "serve": serve, "lease_batch": lease_batch}
    return {name: value for name, value in shape.items()
            if value is not None}


def open_fleet(*, workers: int | None = None,
               serve: str | tuple[str, int] | None = None,
               lease_batch: int | None = None) -> Fleet:
    """Open a worker fleet that several runs can borrow in turn.

    Pass it to :func:`make_scheduler` as ``fleet``; whoever opens it
    closes it (:meth:`~repro.runtime.distributed.Fleet.close`).
    """
    from repro.runtime.distributed import Fleet

    return Fleet(**_fleet_shape(workers, serve, lease_batch))


def make_scheduler(name: str = "local", *,
                   workers: int | None = None,
                   serve: str | tuple[str, int] | None = None,
                   lease_batch: int | None = None,
                   fleet: Fleet | None = None,
                   **pool_options: Any) -> TaskPool:
    """Build the scheduler backend ``name`` resolves to.

    ``pool_options`` are the shared :class:`TaskPool` knobs (jobs,
    retries, backoff, ledger/report paths, timeouts, progress, seed).
    ``workers``/``serve``/``lease_batch`` shape the private fleet each
    ``fleet`` run opens, and ``fleet`` lends the runs an open one instead,
    which has its own shape.  All four are rejected for ``local``, where
    they would silently do nothing.
    """
    validate_scheduler(name)
    given = [flag for flag, value in
             (("workers", workers), ("serve", serve),
              ("lease_batch", lease_batch), ("fleet", fleet))
             if value is not None]
    if name == "local":
        if given:
            raise ConfigError(
                f"{', '.join(given)} only apply to --scheduler fleet")
        return TaskPool(**pool_options)
    from repro.runtime.distributed import FleetScheduler

    if fleet is None:
        return FleetScheduler(**_fleet_shape(workers, serve, lease_batch),
                              **pool_options)
    if len(given) > 1:
        raise ConfigError(f"{', '.join(given[:-1])} shape a new fleet; "
                          f"an open fleet has its own")
    return FleetScheduler(fleet=fleet, **pool_options)

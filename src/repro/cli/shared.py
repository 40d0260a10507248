"""Shared argument builders and policy installation for every subcommand.

Each subcommand module (:mod:`repro.cli.experiments`,
:mod:`repro.cli.campaigns`, ...) registers its own parsers; the flag
groups that appear on more than one of them — the execution-policy
knobs and the run flags that say how a job runs — are built here so
their spellings and semantics cannot drift apart.
"""

from __future__ import annotations

import argparse

from repro.exec import (
    KERNEL_POLICIES,
    ExecutionPolicy,
    set_default_policy,
)
from repro.runtime.scheduler import SCHEDULER_NAMES, RunOptions


def install_policy(args: argparse.Namespace, *,
                   check_protocol: str | None = None) -> ExecutionPolicy:
    """Build this invocation's :class:`ExecutionPolicy` — the one place the
    CLI decides kernels and oracle forcing — and install it as the
    process default every layer resolves against.
    """
    if check_protocol is None:
        check_protocol = getattr(args, "check_protocol", None) or "off"
    policy = ExecutionPolicy(
        kernel_policy=getattr(args, "kernel_policy", "auto"),
        check_protocol=check_protocol)
    return set_default_policy(policy)


def add_kernel_policy_flag(parser: argparse.ArgumentParser,
                           help_text: str) -> None:
    """``--kernel-policy`` with per-subcommand help wording, followed by
    what each choice runs."""
    parser.add_argument("--kernel-policy", default="auto",
                        choices=KERNEL_POLICIES,
                        help=f"{help_text}: scalar runs the oracles, "
                             f"array the numpy array tiers, auto (default) "
                             f"the array tiers with the stepping host "
                             f"executor")


def add_run_flags(parser: argparse.ArgumentParser, unit: str, *,
                  listener: str = "--serve") -> None:
    """The run flags of campaign, sweep and serve-api: how each job runs.

    ``listener`` spells the fleet's listen address; serve-api calls it
    ``--fleet-serve`` because its own ``--serve`` is the client port.
    :func:`run_options_from_args` reads them back.
    """
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel worker processes (default: all "
                             "cores)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help=f"per-{unit} deadline: a worker that "
                             f"produces no result in time is killed and "
                             f"the {unit} retried (needs --jobs > 1)")
    parser.add_argument("--scheduler", default="local",
                        choices=SCHEDULER_NAMES,
                        help=f"execution backend: drain {unit}s on this "
                             f"host (local) or lease them to a worker "
                             f"fleet over TCP (fleet); results are "
                             f"byte-identical either way")
    parser.add_argument("--workers", type=int, default=None,
                        help="fleet only: loopback worker processes the "
                             "coordinator spawns itself (default: 2)")
    parser.add_argument(listener, dest="fleet_serve", default=None,
                        metavar="HOST:PORT",
                        help="fleet only: listen here for external "
                             "`repro-experiments worker` clients "
                             "(default: an ephemeral loopback port for "
                             "the spawned workers only)")
    parser.add_argument("--lease-batch", type=int, default=None,
                        metavar="N",
                        help=f"fleet only: {unit}s leased to a worker "
                             f"per round trip (default: 4)")


def run_options_from_args(args: argparse.Namespace) -> RunOptions:
    """The :class:`RunOptions` the run flags spell, checked as it is
    made: a bad combination is refused before anything runs or
    ``--force`` deletes anything."""
    return RunOptions(jobs=args.jobs, task_timeout_s=args.task_timeout,
                      scheduler=args.scheduler, workers=args.workers,
                      serve=args.fleet_serve, lease_batch=args.lease_batch)


def add_connect_flags(parser: argparse.ArgumentParser,
                      what: str) -> None:
    """``--connect``/``--connect-timeout`` of every TCP client verb."""
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help=f"{what} address")
    parser.add_argument("--connect-timeout", type=float, default=10.0,
                        metavar="SECONDS",
                        help="give up connecting after this long "
                             "(bounded exponential backoff underneath; "
                             "default: 10)")

"""Shared argument builders and policy installation for every subcommand.

Each subcommand module (:mod:`repro.cli.experiments`,
:mod:`repro.cli.campaigns`, ...) registers its own parsers; the flag
groups that appear on more than one of them — the execution-policy
knobs and the ``--scheduler`` backend selection — are built here so
their spellings and semantics cannot drift apart.
"""

from __future__ import annotations

import argparse

from repro.exec import (
    KERNEL_POLICIES,
    ExecutionPolicy,
    set_default_policy,
)


def install_policy(args: argparse.Namespace, *,
                   check_protocol: str | None = None) -> ExecutionPolicy:
    """Build this invocation's :class:`ExecutionPolicy` — the one place the
    CLI decides kernels, oracle forcing, and cache tiers — and install it
    as the process default every layer resolves against.
    """
    if check_protocol is None:
        check_protocol = getattr(args, "check_protocol", None) or "off"
    policy = ExecutionPolicy(
        kernel_policy=getattr(args, "kernel_policy", "auto"),
        check_protocol=check_protocol,
        cache_tier=getattr(args, "cache_tier", "auto"))
    return set_default_policy(policy)


def add_kernel_policy_flag(parser: argparse.ArgumentParser,
                           help_text: str) -> None:
    """``--kernel-policy`` with per-subcommand help wording, followed by
    what each choice runs."""
    parser.add_argument("--kernel-policy", default="auto",
                        choices=KERNEL_POLICIES,
                        help=f"{help_text}: scalar runs the oracles, fast "
                             f"the vectorized/batched paths, array the "
                             f"numpy array tiers, auto (default) the "
                             f"array tiers with the stepping host executor")


def add_cache_tier_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-tier", default="auto",
                        choices=("auto", "disk", "memory", "off"),
                        help="memoization tiers: persist to disk, "
                             "memory only, or off")


def add_scheduler_flags(parser: argparse.ArgumentParser, unit: str) -> None:
    """The shared ``--scheduler`` knobs of campaign, sweep, and serve-api."""
    from repro.runtime.scheduler import SCHEDULER_NAMES
    parser.add_argument("--scheduler", default="local",
                        choices=SCHEDULER_NAMES,
                        help=f"execution backend: drain {unit}s on this "
                             f"host (local) or lease them to a worker "
                             f"fleet over TCP (fleet); results are "
                             f"byte-identical either way")
    parser.add_argument("--workers", type=int, default=None,
                        help="fleet only: loopback worker processes the "
                             "coordinator spawns itself (default: 2)")
    parser.add_argument("--serve", default=None, metavar="HOST:PORT",
                        help="fleet only: listen here for external "
                             "`repro-experiments worker` clients "
                             "(default: an ephemeral loopback port for "
                             "the spawned workers only)")
    parser.add_argument("--lease-batch", type=int, default=None,
                        metavar="N",
                        help=f"fleet only: {unit}s leased to a worker "
                             f"per round trip (default: 4)")


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

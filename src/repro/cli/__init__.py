"""Command-line interface: list and run the paper's experiments.

Installed as ``repro-experiments``::

    repro-experiments list
    repro-experiments run fig4
    repro-experiments run table4 --out table4.txt
    repro-experiments catalog S6
    repro-experiments validate
    repro-experiments sweep --check-protocol strict
    repro-experiments serve-api --dir jobs --serve 127.0.0.1:7910

``campaign`` and ``sweep`` accept ``--check-protocol
{off,tolerant,strict}`` to attach the :mod:`repro.validation` protocol
checker (and, for campaigns, the physics invariant guards), and ``run``
accepts ``off`` or ``strict``: it keeps only the figure data, so it has
no violation count to print (``sweep`` rows carry them); ``validate``
runs the physics guards plus the deterministic fault-injection matrix and
fails if any fault class goes undetected.

The CLI is one package with one module per subcommand group —
:mod:`repro.cli.experiments` (list/run/catalog),
:mod:`repro.cli.campaigns`, :mod:`repro.cli.sweeps`,
:mod:`repro.cli.fleet` (worker), :mod:`repro.cli.validation`
(validate/chaos), and :mod:`repro.cli.service` (serve-api and the
``job`` client verbs) — sharing flag builders from
:mod:`repro.cli.shared`.  ``campaign`` and ``sweep`` drive the same job
layer (:mod:`repro.service`) in-process that ``serve-api`` exposes over
TCP, so batch runs and fetched service results are byte-identical.
"""

from __future__ import annotations

import argparse
import sys

from repro.cli import (
    campaigns,
    experiments,
    fleet,
    service,
    sweeps,
    validation,
)
from repro.errors import ReproError

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the PaCRAM paper's tables and figures.")
    subparsers = parser.add_subparsers(dest="command", required=True)
    experiments.register(subparsers)
    campaigns.register(subparsers)
    sweeps.register(subparsers)
    fleet.register(subparsers)
    validation.register(subparsers)
    service.register(subparsers)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

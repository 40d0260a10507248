"""The ``sweep`` subcommand (and its grid builder, shared with
``job submit sweep``)."""

from __future__ import annotations

import argparse
import dataclasses

from repro.analysis.sweeprunner import SweepGrid, SweepRunner, render_aggregate
from repro.cli.shared import (
    add_kernel_policy_flag,
    add_run_flags,
    install_policy,
    run_options_from_args,
)
from repro.errors import ConfigError
from repro.runtime import PrintProgress


def sweep_grid_from_args(args: argparse.Namespace) -> SweepGrid:
    """One builder for batch runs and service submissions: identical flags
    produce an identical grid, hence the same job digest and rows."""
    if args.config:
        grid = SweepGrid.from_file(args.config)
        if args.check_protocol is not None:
            grid = dataclasses.replace(grid,
                                       check_protocol=args.check_protocol)
        return grid
    try:
        nrh_values = tuple(int(v) for v in args.nrh.split(","))
    except ValueError:
        raise ConfigError(f"--nrh takes comma-separated integers, "
                          f"got {args.nrh!r}") from None
    return SweepGrid(
        mitigations=tuple(args.mitigations.split(",")),
        nrh_values=nrh_values,
        requests=args.requests,
        check_protocol=args.check_protocol or "off")


def cmd_sweep(args: argparse.Namespace) -> int:
    options = run_options_from_args(args)
    grid = sweep_grid_from_args(args)
    # The config file may turn checking on: build the policy from the
    # grid's resolved mode so oracle forcing agrees with what runs.
    install_policy(args, check_protocol=grid.check_protocol)
    runner = SweepRunner(args.dir, grid)
    if args.status:
        done, total = runner.status()
        print(f"{done}/{total} runs done")
        return 0
    rows = runner.run(force=args.force, progress=PrintProgress(),
                      **dataclasses.asdict(options))
    violations = sum(row.violations for row in rows)
    if grid.check_protocol != "off":
        print(f"protocol check ({grid.check_protocol}): "
              f"{violations} violation(s) across {len(rows)} points")
    rendered = render_aggregate(runner.aggregate(rows))
    if rendered:
        print(rendered)
    described = runner.execution.describe_report()
    if described is not None:
        print(described)
    print(runner.execution.describe_cache())
    return 0


def add_sweep_spec_flags(parser: argparse.ArgumentParser) -> None:
    """The flags that define *what* a sweep covers (the job spec)."""
    parser.add_argument("--mitigations", default="PARA,RFM",
                        help="comma-separated mitigation names")
    parser.add_argument("--nrh", default="1024,64",
                        help="comma-separated N_RH values")
    parser.add_argument("--requests", type=int, default=2_000,
                        help="memory requests per workload")
    parser.add_argument("--config",
                        help="JSON evaluation-config file (overrides "
                             "the other grid flags; see A.6)")


def register(subparsers) -> None:
    sweep_parser = subparsers.add_parser(
        "sweep", help="run a resumable system-evaluation sweep")
    sweep_parser.add_argument("--dir", default="sweep_results",
                              help="results directory")
    add_sweep_spec_flags(sweep_parser)
    sweep_parser.add_argument("--status", action="store_true",
                              help="only report progress")
    sweep_parser.add_argument("--check-protocol", default=None,
                              choices=("off", "tolerant", "strict"),
                              help="protocol-check every grid point "
                                   "(default: the config file's setting, "
                                   "else off)")
    add_kernel_policy_flag(
        sweep_parser,
        "execution policy for every grid point "
        "(rows are bit-identical either way; "
        "--check-protocol forces the scalar "
        "oracle)")
    sweep_parser.add_argument("--force", action="store_true",
                              help="re-run every point and clear the "
                                   "baseline cache under --dir")
    add_run_flags(sweep_parser, "point")
    sweep_parser.set_defaults(func=cmd_sweep)

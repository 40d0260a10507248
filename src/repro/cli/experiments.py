"""The ``list``, ``run``, and ``catalog`` subcommands."""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.analysis.experiments import EXPERIMENTS, run_experiment
from repro.analysis.render import curve_table
from repro.cli.shared import (
    add_cache_tier_flag,
    add_kernel_policy_flag,
    install_policy,
)
from repro.dram.catalog import all_module_specs, module_spec
from repro.dram.timing import TESTED_TRAS_FACTORS


def _render(result: object) -> str:
    """Best-effort text rendering of an experiment result."""
    if isinstance(result, str):
        return result
    if isinstance(result, dict):
        flat_numeric = all(isinstance(v, (int, float))
                           for v in result.values())
        if flat_numeric and result:
            return curve_table(result)
        lines = []
        for key, value in result.items():
            lines.append(f"[{key}]")
            lines.append(repr(value))
        return "\n".join(lines)
    return repr(result)


def cmd_list(_: argparse.Namespace) -> int:
    width = max(len(identifier) for identifier in EXPERIMENTS)
    for identifier, experiment in EXPERIMENTS.items():
        print(f"{identifier:<{width}}  {experiment.description}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    install_policy(args)
    result = run_experiment(args.experiment)
    text = _render(result)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.module:
        spec = module_spec(args.module)
        print(f"{spec.module_id}: {spec.part_number} ({spec.form_factor}, "
              f"{spec.die_density_gbit} Gb, die {spec.die_revision}, "
              f"x{spec.device_width}, {spec.num_chips} chips)")
        for factor in TESTED_TRAS_FACTORS:
            value = spec.lowest_nrh[factor]
            print(f"  {factor:.2f} x tRAS: lowest N_RH = {value}")
        return 0
    for spec in all_module_specs():
        print(f"{spec.module_id:<5} {spec.part_number:<25} "
              f"{spec.die_density_gbit:>3} Gb  x{spec.device_width}")
    return 0


def register(subparsers) -> None:
    list_parser = subparsers.add_parser("list", help="list all experiments")
    list_parser.set_defaults(func=cmd_list)

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run_parser.add_argument("--out", help="write the result to a file")
    run_parser.add_argument("--check-protocol", default="off",
                            choices=("off", "tolerant", "strict"),
                            help="attach the DDR protocol checker to every "
                                 "simulation this experiment runs")
    add_kernel_policy_flag(
        run_parser,
        "execution policy for every stage "
        "(results are bit-identical either "
        "way; --check-protocol forces the "
        "oracles)")
    add_cache_tier_flag(run_parser)
    run_parser.set_defaults(func=cmd_run)

    catalog_parser = subparsers.add_parser(
        "catalog", help="show the tested-module catalog")
    catalog_parser.add_argument("module", nargs="?",
                                help="module id for per-module detail")
    catalog_parser.set_defaults(func=cmd_catalog)

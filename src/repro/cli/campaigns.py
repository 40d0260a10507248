"""The ``campaign`` subcommand (and its config builder, shared with
``job submit campaign``)."""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.characterization.campaign import (
    CampaignConfig,
    CharacterizationCampaign,
)
from repro.cli.shared import (
    add_kernel_policy_flag,
    add_run_flags,
    install_policy,
    run_options_from_args,
)
from repro.runtime import PrintProgress
from repro.validation import check_physics


def campaign_config_from_args(args: argparse.Namespace) -> CampaignConfig:
    """One builder for batch runs and service submissions: identical flags
    produce an identical config, hence the same job digest and results."""
    module_ids = (tuple(args.modules.split(","))
                  if args.modules else CampaignConfig().module_ids)
    return CampaignConfig(module_ids=module_ids, per_region=args.rows)


def cmd_campaign(args: argparse.Namespace) -> int:
    options = run_options_from_args(args)
    install_policy(args)
    config = campaign_config_from_args(args)
    campaign = CharacterizationCampaign(args.dir, config)
    if args.status:
        print(campaign.summary())
        return 0
    if args.check_protocol != "off":
        # Physics guards before spending hours measuring a broken model;
        # strict raises, tolerant reports and continues.
        for module_id in config.module_ids:
            for problem in check_physics(module_id,
                                         mode=args.check_protocol):
                print(f"physics: {problem}", file=sys.stderr)
    campaign.run(force=args.force, progress=PrintProgress(),
                 **dataclasses.asdict(options))
    print(campaign.summary())
    return 0


def add_campaign_spec_flags(parser: argparse.ArgumentParser) -> None:
    """The flags that define *what* a campaign covers (the job spec)."""
    parser.add_argument("--modules",
                        help="comma-separated module ids (default: all 30)")
    parser.add_argument("--rows", type=int, default=64,
                        help="rows per bank region")


def register(subparsers) -> None:
    campaign_parser = subparsers.add_parser(
        "campaign", help="run a resumable characterization campaign")
    campaign_parser.add_argument("--dir", default="campaign_results",
                                 help="results directory")
    add_campaign_spec_flags(campaign_parser)
    campaign_parser.add_argument("--status", action="store_true",
                                 help="only report progress")
    campaign_parser.add_argument("--check-protocol", default="off",
                                 choices=("off", "tolerant", "strict"),
                                 help="run the physics invariant guards on "
                                      "every module before measuring "
                                      "(forces the scalar oracle kernels)")
    add_kernel_policy_flag(
        campaign_parser,
        "execution policy for every stage "
        "(results are bit-identical either "
        "way)")
    campaign_parser.add_argument("--force", action="store_true",
                                 help="re-run every module, even those "
                                      "already persisted under --dir")
    add_run_flags(campaign_parser, "module")
    campaign_parser.set_defaults(func=cmd_campaign)

"""The ``serve-api`` and ``job`` subcommands (characterization-as-a-service).

``serve-api`` turns this host into a job endpoint: clients submit
campaign/sweep specs over the fleet's frame protocol, the service dedups
them by content digest, runs them through the same scheduler seam as the
batch CLI, and serves results and on-demand figures back.  The ``job``
verbs are that client::

    repro-experiments serve-api --dir jobs --serve 127.0.0.1:7910 &
    repro-experiments job submit sweep --connect :7910 --mitigations PARA
    repro-experiments job watch  <job-id> --connect :7910
    repro-experiments job fetch  <job-id> --connect :7910 --dest out/

Because the batch ``campaign``/``sweep`` subcommands drive the very same
job layer in-process, a fetched result directory is byte-identical to a
direct run with the same flags.
"""

from __future__ import annotations

import argparse

from repro.cli.campaigns import add_campaign_spec_flags, campaign_config_from_args
from repro.cli.shared import (
    add_connect_flags,
    add_kernel_policy_flag,
    add_run_flags,
    install_policy,
    run_options_from_args,
)
from repro.cli.sweeps import add_sweep_spec_flags, sweep_grid_from_args
from repro.service.jobs import DONE, JobSpec


def _client(args: argparse.Namespace):
    from repro.service.client import ServiceClient
    return ServiceClient(args.connect,
                         connect_timeout_s=args.connect_timeout)


def _print_job(frame: dict) -> None:
    line = f"{frame['job_id']} state={frame['state']}"
    if frame.get("deduped"):
        line += " deduped=true"
    if frame.get("position") is not None:
        line += f" position={frame['position']}"
    print(line)
    if frame.get("error"):
        print(f"error: {frame['error']}")


# ----------------------------------------------------------------------
# serve-api
# ----------------------------------------------------------------------
def cmd_serve_api(args: argparse.Namespace) -> int:
    from repro.service.api import CharacterizationService
    options = run_options_from_args(args)
    install_policy(args)
    service = CharacterizationService(args.dir, serve=args.serve,
                                      options=options)
    host, port = service.start()
    print(f"serving jobs from {args.dir} on {host}:{port}", flush=True)
    service.serve_forever()
    return 0


# ----------------------------------------------------------------------
# job verbs (the service's CLI client)
# ----------------------------------------------------------------------
def cmd_job_submit(args: argparse.Namespace) -> int:
    if args.kind == "campaign":
        config = campaign_config_from_args(args)
    else:
        config = sweep_grid_from_args(args)
    spec = JobSpec(kind=args.kind, config=config)
    with _client(args) as client:
        frame = client.submit(spec)
    _print_job(frame)
    return 0


def cmd_job_status(args: argparse.Namespace) -> int:
    with _client(args) as client:
        frame = client.status(args.job_id)
    _print_job(frame)
    return 0


def cmd_job_watch(args: argparse.Namespace) -> int:
    from repro.runtime import PrintProgress
    from repro.service.manager import replay_event
    reporter = PrintProgress()
    with _client(args) as client:
        end = client.stream(
            args.job_id,
            on_event=lambda event: replay_event(reporter, event))
    state = end.get("state")
    print(f"{args.job_id} state={state}")
    if end.get("error"):
        print(f"error: {end['error']}")
    return 0 if state == DONE else 1


def cmd_job_fetch(args: argparse.Namespace) -> int:
    with _client(args) as client:
        if args.figure:
            print(client.figure(args.job_id, args.figure))
            return 0
        written = client.fetch(args.job_id, args.dest)
    print(f"fetched {len(written)} file(s) to {args.dest}")
    return 0


# ----------------------------------------------------------------------
def register(subparsers) -> None:
    serve_parser = subparsers.add_parser(
        "serve-api",
        help="serve the characterization job API over TCP")
    serve_parser.add_argument("--dir", default="service_jobs",
                              help="durable job store root (one namespace "
                                   "per job id)")
    serve_parser.add_argument("--serve", default="127.0.0.1:0",
                              metavar="HOST:PORT",
                              help="listen here for job clients (default: "
                                   "an ephemeral loopback port, printed "
                                   "on startup)")
    add_run_flags(serve_parser, "task", listener="--fleet-serve")
    add_kernel_policy_flag(
        serve_parser,
        "execution policy for every job "
        "(results are bit-identical either "
        "way)")
    serve_parser.set_defaults(func=cmd_serve_api)

    job_parser = subparsers.add_parser(
        "job", help="submit and follow jobs on a serve-api endpoint")
    job_subparsers = job_parser.add_subparsers(dest="job_command",
                                               required=True)

    submit_parser = job_subparsers.add_parser(
        "submit", help="submit a job spec (dedups by content digest)")
    kind_subparsers = submit_parser.add_subparsers(dest="kind",
                                                   required=True)
    submit_campaign = kind_subparsers.add_parser(
        "campaign", help="submit a characterization campaign")
    add_connect_flags(submit_campaign, "serve-api endpoint")
    add_campaign_spec_flags(submit_campaign)
    submit_campaign.set_defaults(func=cmd_job_submit, kind="campaign")
    submit_sweep = kind_subparsers.add_parser(
        "sweep", help="submit a system-evaluation sweep")
    add_connect_flags(submit_sweep, "serve-api endpoint")
    add_sweep_spec_flags(submit_sweep)
    submit_sweep.add_argument("--check-protocol", default=None,
                              choices=("off", "tolerant", "strict"),
                              help="protocol-check every grid point "
                                   "(default: the config file's setting, "
                                   "else off)")
    submit_sweep.set_defaults(func=cmd_job_submit, kind="sweep")

    status_parser = job_subparsers.add_parser(
        "status", help="one job's state, history, and error")
    status_parser.add_argument("job_id")
    add_connect_flags(status_parser, "serve-api endpoint")
    status_parser.set_defaults(func=cmd_job_status)

    watch_parser = job_subparsers.add_parser(
        "watch", help="stream a job's live progress until it finishes")
    watch_parser.add_argument("job_id")
    add_connect_flags(watch_parser, "serve-api endpoint")
    watch_parser.set_defaults(func=cmd_job_watch)

    fetch_parser = job_subparsers.add_parser(
        "fetch", help="download a job's result files (or render a figure)")
    fetch_parser.add_argument("job_id")
    add_connect_flags(fetch_parser, "serve-api endpoint")
    fetch_parser.add_argument("--dest", default=".",
                              help="directory to write result files into")
    fetch_parser.add_argument("--figure", default=None, metavar="NAME",
                              help="print this figure rendered from the "
                                   "job's persisted rows instead of "
                                   "fetching files (e.g. fig17)")
    fetch_parser.set_defaults(func=cmd_job_fetch)

"""The ``worker`` subcommand: join a fleet coordinator over TCP."""

from __future__ import annotations

import argparse
import sys

from repro.cli.shared import add_connect_flags


def cmd_worker(args: argparse.Namespace) -> int:
    from repro.runtime.distributed import run_worker
    from repro.runtime.scheduler import parse_address
    host, port = parse_address(args.connect)
    code = run_worker(host, port, worker_id=args.id, batch=args.batch,
                      scratch_dir=args.scratch,
                      connect_timeout_s=args.connect_timeout)
    if code == 3:
        print("coordinator went away (run finished or aborted)",
              file=sys.stderr)
        return 0  # a drained fleet is a success from the worker's side
    return code


def register(subparsers) -> None:
    worker_parser = subparsers.add_parser(
        "worker", help="join a fleet coordinator as an execution worker")
    add_connect_flags(worker_parser, "fleet coordinator")
    worker_parser.add_argument("--batch", type=int, default=4,
                               help="tasks to request per lease")
    worker_parser.add_argument("--scratch", default=None, metavar="DIR",
                               help="scratch directory for task results "
                                    "(default: a temporary directory)")
    worker_parser.add_argument("--id", default=None,
                               help="worker name in the coordinator's "
                                    "ledger and run report "
                                    "(default: w-<hostname>-<pid>)")
    worker_parser.set_defaults(func=cmd_worker)

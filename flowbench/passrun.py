"""One benchmark pass in a fresh interpreter.

``run.py`` starts this script once per pass, so every pass pays the cold
costs a command-line user pays (imports, empty in-process caches) and the
set-up time can be measured from interpreter start.  It writes one JSON
record to ``--out``: the pass result from :mod:`flows`, the moment set-up
finished (``ready``, on the machine-wide monotonic clock), the environment,
and with ``--trace 1`` the merged per-process trace summaries.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--scheduler", default="fleet")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--cpu", type=int, help="pin the pass to this CPU")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    workdir = Path(args.workdir)
    trace_dir = workdir / "trace"
    record: dict = {}
    try:
        if args.trace:
            import tracing

            recorder = tracing.install()
            os.environ["FLOWBENCH_TRACE_DIR"] = str(trace_dir)
        import flows

        flow = flows.FLOWS[args.workload](args.seed, args.scale, workdir,
                                          scheduler=args.scheduler)
        try:
            flow.setup()
            record["ready"] = time.perf_counter()
            record.update(flow.timed())
        finally:
            flow.close()
        record["env"] = flows.environment()
        if args.trace:
            recorder.dump(trace_dir, "pass", primary=True)
            record["trace"] = tracing.merge(
                json.loads(path.read_text())
                for path in sorted(trace_dir.glob("*.summary.json")))
    except Exception:  # noqa: BLE001 — reported to run.py as a failed pass
        record["error"] = traceback.format_exc()
    Path(args.out).write_text(json.dumps(record))
    return 1 if "error" in record else 0


if __name__ == "__main__":
    sys.exit(main())

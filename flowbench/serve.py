"""Launch a ``repro-experiments`` subcommand, traced on request.

The service workload starts ``serve-api`` through this launcher.  When
``FLOWBENCH_TRACE_DIR`` is set it installs the benchmark's entry-point
wrappers first — including the one around ``run_worker``, so the fleet
workers serve-api forks record and write out their own spans — and
writes the server's spans there when the subcommand returns.
"""

from __future__ import annotations

import os
import sys


def main() -> int:
    trace_dir = os.environ.get("FLOWBENCH_TRACE_DIR")
    recorder = None
    if trace_dir:
        import tracing

        recorder = tracing.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(sys.argv[1:])
    finally:
        if recorder is not None:
            recorder.dump(trace_dir, f"server-{os.getpid()}")


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Re-check persisted benchmark floors and ceilings from BENCH_*.json.

The benches assert their bounds in-process, but those asserts live and
die with the pytest run; this script re-reads the persisted payloads so
CI (or a human, later) can verify the artifacts that actually shipped.
Each payload carries its own bounds:

* ``floors`` — metrics that must not drop below a minimum (speedups,
  payload-size ratios);
* ``ceilings`` — metrics that must not rise above a maximum (the fleet
  coordinator's per-task overhead).

The check fails if a bound regresses or if a bounded metric is missing.

Usage::

    python scripts/check_bench_floors.py [payload.json ...]

With no arguments, every ``bench_results/BENCH_*.json`` is checked.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent.parent / "bench_results"


def check(payload: dict) -> list[str]:
    """Return a list of human-readable bound violations (empty = pass)."""
    problems = []
    floors = payload.get("floors") or {}
    ceilings = payload.get("ceilings") or {}
    if not floors and not ceilings:
        return ["payload carries no 'floors' or 'ceilings' map — bench "
                "too old or torn"]
    for metric, floor in sorted(floors.items()):
        value = payload.get(metric)
        if value is None:
            problems.append(f"{metric}: floored at {floor} but missing "
                            "from the payload")
        elif value < floor:
            problems.append(f"{metric}: {value:.2f} below floor {floor}")
    for metric, ceiling in sorted(ceilings.items()):
        value = payload.get(metric)
        if value is None:
            problems.append(f"{metric}: capped at {ceiling} but missing "
                            "from the payload")
        elif value > ceiling:
            problems.append(f"{metric}: {value:.2f} above ceiling {ceiling}")
    return problems


def _summary(payload: dict) -> str:
    parts = []
    for metric, floor in sorted((payload.get("floors") or {}).items()):
        parts.append(f"{metric}={payload[metric]:.2f}(>={floor})")
    for metric, ceiling in sorted((payload.get("ceilings") or {}).items()):
        parts.append(f"{metric}={payload[metric]:.2f}(<={ceiling})")
    return "  ".join(parts)


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        paths = [Path(arg) for arg in argv[1:]]
    else:
        paths = sorted(RESULTS_DIR.glob("BENCH_*.json"))
        if not paths:
            print(f"check_bench_floors: no BENCH_*.json under {RESULTS_DIR}",
                  file=sys.stderr)
            return 2
    failed = False
    for path in paths:
        if not path.is_file():
            print(f"check_bench_floors: no payload at {path}",
                  file=sys.stderr)
            return 2
        payload = json.loads(path.read_text())
        problems = check(payload)
        if problems:
            failed = True
            for problem in problems:
                print(f"check_bench_floors: {path.name}: {problem}",
                      file=sys.stderr)
        else:
            print(f"check_bench_floors: {path.name} ok  {_summary(payload)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

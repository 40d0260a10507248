"""Runtime cost of the protocol checker (ISSUE 2 tentpole).

Times the same attack simulation with the checker detached (``off``) and
attached in ``tolerant`` and ``strict`` mode.  Every mode runs the scalar
sim kernel: checked runs take that oracle, so ``off`` must run it too, or
the ratio would compare kernels instead of measuring the checker.
Detached, the only instrumentation on the hot path is one
``observer is not None`` check per command site.  Results land in
``bench_results/checker_overhead.txt``; EXPERIMENTS.md records the
measured ratios.
"""

import time

from bench_util import run_once, save_result

from repro.mitigations import make_mitigation
from repro.sim.config import SystemConfig
from repro.sim.system import MemorySystem
from repro.validation import ProtocolChecker
from repro.workloads.attack import double_sided_trace

_HAMMERS = 30_000
_REPEATS = 3


def _simulate(checker_mode: str) -> float:
    """One full attack simulation; returns its wall-clock seconds."""
    config = SystemConfig(num_cores=1)
    mitigation = make_mitigation("Graphene", nrh=512)
    checker = (ProtocolChecker(config, mode=checker_mode,
                               mitigation=mitigation)
               if checker_mode != "off" else None)
    trace = double_sided_trace(config, hammers=_HAMMERS)
    system = MemorySystem(config, [trace], mitigation=mitigation,
                          observer=checker)
    started = time.perf_counter()
    result = system.run("scalar")  # the kernel checked runs take
    elapsed = time.perf_counter() - started
    assert result.protocol_violations == []
    if checker is not None:
        assert checker.violation_count == 0
    return elapsed


def _measure_all() -> dict[str, float]:
    # Interleave repeats so machine noise hits every mode equally, and
    # keep the per-mode minimum (the least-disturbed sample).
    best: dict[str, float] = {}
    for _ in range(_REPEATS):
        for mode in ("off", "tolerant", "strict"):
            elapsed = _simulate(mode)
            best[mode] = min(best.get(mode, elapsed), elapsed)
    return best


def bench_checker_overhead(benchmark):
    best = run_once(benchmark, _measure_all)
    off, tolerant, strict = best["off"], best["tolerant"], best["strict"]
    lines = [
        f"attack: double-sided, {_HAMMERS} hammer pairs, Graphene nrh=512",
        f"checker off:      {off * 1e3:8.1f} ms",
        f"checker tolerant: {tolerant * 1e3:8.1f} ms "
        f"({tolerant / off:.2f}x off)",
        f"checker strict:   {strict * 1e3:8.1f} ms "
        f"({strict / off:.2f}x off)",
    ]
    save_result("checker_overhead", "\n".join(lines))
    # 'off' is one pointer check per command site; on a clean run strict
    # does the same work as tolerant.  Generous bounds keep CI machines
    # with noisy neighbors from flaking.
    assert tolerant / off < 5.0

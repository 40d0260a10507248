"""Scalar vs. array system-simulation kernels + memoization.

Runs the same fig16-style workload sweep (mitigation x tRAS factor, each
point normalized against its no-PaCRAM baseline) two ways:

* **before** — the scalar per-request oracle, every point recomputing its
  baseline (the pre-fast-path cost model);
* **array** — the structure-of-arrays kernel
  (:mod:`repro.sim.arraykernel`) with a shared
  :class:`~repro.analysis.baselines.BaselineCache`, so the baseline runs
  once per (mitigation, workload) across the whole factor sweep, and the
  mitigation skip of :mod:`repro.sim.replay`, so a point whose mechanism
  never acts on the no-mitigation activation stream is served that run's
  result (each phase is best-of-two, so the array side's best pass finds
  both streams recorded).

Six contracts are asserted, not just reported:

* both phases produce identical normalized series (the scalar path is
  the parity oracle, and memoized baselines must replay exactly);
* the fig17/fig18 and fig19 builders produce byte-identical rendered
  output under both kernels;
* the array workflow is at least 6x faster end-to-end on this sweep;
* on the mitigation-heavy kernel-level sweep (double-sided attack,
  per-mechanism ``MemorySystem._run_scalar`` vs. ``service_array`` with
  the array tier's cores and queues pre-built), the array tier's
  aggregate margin over the scalar oracle is at least 8x across the
  epoch-batchable mechanisms;
* one array sweep from cleared input memos builds each of its 2 distinct
  traces once, not once per simulation (80): the per-process trace memo
  of :func:`repro.workloads.synth.generate_trace` at work;
* on a grid where mechanisms seldom act (Graphene, Hydra and RFM at N_RH
  1024 and 32, every PaCRAM configuration, 400 requests),
  ``run_simulation`` gives every point the result of a full
  ``MemorySystem.run("array")``, serves ``skip_served_points`` of them
  from the replay, and is at least 4x faster than the full run on those
  points (``skip_margin``, best-of-five per point, interleaved).

The kernel-level scalar side is exactly what ``--kernel-policy scalar``
runs: scalar mitigation classes, one plugin call per activation, one
``Request`` + ``DecodedAddress`` per request, and both queues rescanned
on every pick.  The array tier's steady state removes those costs:
mechanisms grant an ``epoch_credit()`` of guaranteed action-free
activations, the kernel buffers whole epochs into columnar arrays and
flushes them through one ``on_activation_epoch`` call, latency folds
per-epoch via ``np.unique``, and a single-queued-read fast path skips
the scheduler gate entirely.  Hydra is measured and reported but sits
outside the asserted aggregate: once any row group goes hot, its
RCC/RCT tiers are order-dependent (LRU recency plus metadata accesses
on cache misses), so its honest epoch credit is zero until the next
refresh-window reset and it steps scalar through the hot phase.

Every workflow phase is timed best-of-two and the kernel-level sweep
interleaved best-of-four: the ratios have small denominators, so a
single noisy run could flake the floors.

Results land in ``bench_results/system_scaling.txt`` plus a
machine-readable ``bench_results/BENCH_system_scaling.json``.
"""

import gc
import json
import time
from dataclasses import asdict
from unittest import mock

from bench_util import RESULTS_DIR, run_once, save_result

from repro.analysis.baselines import BaselineCache
from repro.analysis.figures import fig17_18_performance_energy, fig19_periodic
from repro.analysis.runner import pacram_reference_config, run_simulation
from repro.core.pacram import PaCRAM
from repro.exec import ExecutionPolicy, default_policy, set_default_policy
from repro.mitigations import make_mitigation
from repro.sim.arraykernel import (
    ArrayCore,
    SharedQueues,
    clear_decode_memo,
    service_array,
)
from repro.sim.config import SystemConfig
from repro.sim.replay import ActivationStream, clear_stream_memo
from repro.sim.system import MemorySystem
from repro.workloads.attack import double_sided_trace
from repro.workloads.suites import workload_by_name
from repro.workloads.synth import clear_trace_memo, trace_generations

_TRAS_FACTORS = (0.81, 0.64, 0.45, 0.36, 0.27)
_VENDORS = ("H", "S")
_MITIGATIONS = ("PARA", "Graphene")
_WORKLOADS = ("spec06.mcf", "ycsb.a")
_NRH = 64
_REQUESTS = 2_500
#: Asserted end-to-end workflow-speedup floor (naive scalar sweep vs.
#: array kernel + memoized baselines).
_ARRAY_FLOOR = 6.0

#: Mitigation-heavy kernel-level sweep: a single-core double-sided attack
#: at high nRH keeps every mechanism live (counters moving, epochs
#: bounded) without triggering so often that the array kernel degenerates
#: to the oracle's per-activation boundary work.
_EPOCH_NRH = 1024
_EPOCH_HAMMERS = 6_000
_EPOCH_MECHANISMS = ("PARA", "Graphene", "Hydra", "RFM", "PRAC")
#: Mechanisms whose epoch credit stays meaningfully large on this sweep.
#: Hydra is measured and reported but excluded from the asserted
#: aggregate: once a row group goes hot its RCC/RCT tiers are
#: order-dependent, so its honest credit is zero until the refresh
#: window resets (see the module docstring).
_EPOCH_BATCHABLE = ("PARA", "Graphene", "RFM", "PRAC")
#: Asserted aggregate array-over-scalar margin across _EPOCH_BATCHABLE.
_EPOCH_MARGIN_FLOOR = 8.0
_EPOCH_ROUNDS = 4
#: Whole sweeps retried (best-of) when a machine-wide blip depresses one.
_EPOCH_ATTEMPTS = 3
#: Asserted ceiling on traces one array sweep builds from cleared memos:
#: one per distinct (workload, requests, seed) input.
_TRACE_GENERATION_CEILING = len(_WORKLOADS)

#: The mitigation-skip grid: mechanisms without an ACT penalty at the
#: evaluation's outer thresholds, where the no-mitigation stream decides
#: many points without an action (and the rest act, so both paths run).
_SKIP_MITIGATIONS = ("Graphene", "Hydra", "RFM")
_SKIP_NRH = (1024, 32)
_SKIP_VENDORS = (None, "H", "M", "S")
_SKIP_REQUESTS = 400
_SKIP_ROUNDS = 5
#: Asserted skip-over-full-run margin on the points the skip serves
#: (5.9-6.9x measured on a shared 2-vCPU host; the floor leaves room for
#: a noisy runner).
_SKIP_MARGIN_FLOOR = 4.0


def _sweep(sim_kernel, cache):
    """One normalized-IPC sweep: {(mitigation, vendor, factor): ratio}."""
    out = {}
    for mitigation in _MITIGATIONS:
        for vendor in _VENDORS:
            for factor in _TRAS_FACTORS:
                # The naive workflow recomputes this baseline at every
                # (vendor, factor) cell; the cache collapses the repeats
                # to one simulation per (mitigation, workload).
                baselines = {
                    name: run_simulation(
                        (name,), mitigation=mitigation, nrh=_NRH,
                        requests=_REQUESTS, sim_kernel=sim_kernel,
                        cache=cache).mean_ipc
                    for name in _WORKLOADS}
                pacram = pacram_reference_config(vendor, factor)
                ratios = [
                    run_simulation(
                        (name,), mitigation=mitigation, nrh=_NRH,
                        pacram=pacram, requests=_REQUESTS,
                        sim_kernel=sim_kernel,
                        cache=cache).mean_ipc / baselines[name]
                    for name in _WORKLOADS]
                out[(mitigation, vendor, factor)] = \
                    sum(ratios) / len(ratios)
    return out


def _timed_sweep(sim_kernel, make_cache, *, rounds=2):
    best_s = float("inf")
    for _ in range(rounds):
        cache = make_cache()
        started = time.perf_counter()
        sweep = _sweep(sim_kernel, cache=cache)
        best_s = min(best_s, time.perf_counter() - started)
    return sweep, best_s, cache


def _array_trace_generations():
    """Traces one array sweep builds when it starts from cleared memos."""
    clear_trace_memo()
    clear_decode_memo()
    clear_stream_memo()
    _sweep("array", BaselineCache())
    return trace_generations()


def _skip_margin():
    """The mitigation skip against the full array run, point by point.

    Every point of the skip grid runs through ``run_simulation`` and as a
    full ``MemorySystem.run("array")`` (the run ``run_simulation`` made
    before the skip existed), and the two results must be identical.
    ``skip_served_points`` counts the points ``run_simulation`` served
    from the replay; on those, both paths are then timed interleaved,
    best-of-``_SKIP_ROUNDS`` each, with the activation streams recorded.
    """
    config = SystemConfig(num_cores=1)
    points = [(mitigation, nrh, vendor, name)
              for mitigation in _SKIP_MITIGATIONS for nrh in _SKIP_NRH
              for vendor in _SKIP_VENDORS for name in _WORKLOADS]

    def skip_run(point):
        mitigation, nrh, vendor, name = point
        pacram = pacram_reference_config(vendor) if vendor else None
        return run_simulation((name,), mitigation=mitigation, nrh=nrh,
                              pacram=pacram, requests=_SKIP_REQUESTS,
                              config=config, sim_kernel="array")

    def full_run(point):
        mitigation, nrh, vendor, name = point
        pacram = pacram_reference_config(vendor) if vendor else None
        trace = workload_by_name(name, requests=_SKIP_REQUESTS, seed=7)
        mechanism = make_mitigation(
            mitigation, nrh if pacram is None else pacram.scaled_nrh(nrh),
            batched=True, config=config)
        policy = None if pacram is None else PaCRAM(config, pacram)
        return MemorySystem(config, [trace], mitigation=mechanism,
                            policy=policy).run("array")

    clear_stream_memo()
    served = []
    for point in points:
        with mock.patch.object(ActivationStream, "result", autospec=True,
                               side_effect=ActivationStream.result) as spy:
            skipped = skip_run(point)
        assert asdict(skipped) == asdict(full_run(point)), point
        if spy.call_count:
            served.append(point)
    best = {point: {"skip": float("inf"), "full": float("inf")}
            for point in served}
    gc.collect()
    gc.disable()
    try:
        for _ in range(_SKIP_ROUNDS):
            for point in served:
                for variant, run in (("skip", skip_run), ("full", full_run)):
                    started = time.perf_counter()
                    run(point)
                    elapsed = time.perf_counter() - started
                    best[point][variant] = min(best[point][variant], elapsed)
    finally:
        gc.enable()
    skip_s = sum(times["skip"] for times in best.values())
    full_s = sum(times["full"] for times in best.values())
    return len(points), len(served), skip_s, full_s


def _epoch_kernel_margin():
    """Per-mechanism ``MemorySystem._run_scalar`` vs. ``service_array``.

    This measures the drain loops proper: systems are built outside the
    timed region, and the array tier's cores and shared queues too, so
    the ratio isolates the per-request cost the oracle pays and epoch
    dispatch exists to eliminate.  The scalar side runs the scalar
    mitigation classes, as ``--kernel-policy scalar`` does.  The two
    kernels run interleaved (best-of-``_EPOCH_ROUNDS`` each) so both see
    the same cache and frequency conditions, and every round's controller
    stats must match the first round's: a fast kernel that changes
    results is not a fast kernel.
    """
    config = SystemConfig(num_cores=1)
    traces = [double_sided_trace(config, hammers=_EPOCH_HAMMERS)]

    def scalar_run(name):
        mech = make_mitigation(name, _EPOCH_NRH, batched=False,
                               config=config)
        sys_ = MemorySystem(config, traces, mitigation=mech)
        started = time.perf_counter()
        result = sys_._run_scalar()
        return time.perf_counter() - started, result

    def array_run(name):
        mech = make_mitigation(name, _EPOCH_NRH, batched=True,
                               config=config)
        sys_ = MemorySystem(config, traces, mitigation=mech)
        shared = SharedQueues()
        cores = [ArrayCore(core, shared) for core in sys_.cores]
        started = time.perf_counter()
        core_stats = service_array(sys_, cores, shared)
        elapsed = time.perf_counter() - started
        return elapsed, sys_._collect(core_stats)

    def sweep_once():
        per_mechanism = {}
        # Cyclic-GC passes triggered by the kernels' allocations would
        # rescan the whole live heap inside the timed regions and swamp
        # the (small) denominators.
        gc.collect()
        gc.disable()
        try:
            for name in _EPOCH_MECHANISMS:
                best = {"scalar": float("inf"), "array": float("inf")}
                reference = None
                for _ in range(_EPOCH_ROUNDS):
                    for variant, run in (("scalar", scalar_run),
                                         ("array", array_run)):
                        elapsed, result = run(name)
                        best[variant] = min(best[variant], elapsed)
                        stats = result.controller_stats
                        signature = (stats.reads, stats.activations,
                                     stats.preventive_refresh_rows,
                                     stats.row_hits)
                        if reference is None:
                            reference = signature
                        assert signature == reference, (name, variant,
                                                        signature,
                                                        reference)
                per_mechanism[name] = {
                    "scalar_s": best["scalar"],
                    "array_s": best["array"],
                    "ratio": best["scalar"] / best["array"],
                }
        finally:
            gc.enable()
        aggregate = (sum(per_mechanism[m]["scalar_s"]
                         for m in _EPOCH_BATCHABLE)
                     / sum(per_mechanism[m]["array_s"]
                           for m in _EPOCH_BATCHABLE))
        return per_mechanism, aggregate

    # The margin is a property of the code, but each measurement is a
    # property of the machine's moment: on a shared runner, whole-process
    # blips (frequency steps, noisy neighbours) depress every cell of one
    # sweep together, which best-of-rounds inside the sweep cannot undo.
    # Best-of-attempts across sweeps does, with an early exit so the
    # common case pays for one.
    best_sweep, best_aggregate = sweep_once()
    for _ in range(_EPOCH_ATTEMPTS - 1):
        if best_aggregate >= _EPOCH_MARGIN_FLOOR * 1.04:
            break
        per_mechanism, aggregate = sweep_once()
        if aggregate > best_aggregate:
            best_sweep, best_aggregate = per_mechanism, aggregate
    return best_sweep, best_aggregate


def _run_all_phases():
    # Kernel-level sweep first: it times small denominators against a
    # still-small heap, before the workflow phases allocate theirs.
    per_mechanism, epoch_margin = _epoch_kernel_margin()
    before, before_s, _ = _timed_sweep("scalar", lambda: None)
    array, array_s, cache = _timed_sweep("array", BaselineCache)
    generations = _array_trace_generations()
    skip = _skip_margin()
    return (before, before_s, array, array_s, cache, per_mechanism,
            epoch_margin, generations, skip)


def bench_system_scaling(benchmark):
    (before, before_s, array, array_s, cache, per_mechanism,
     epoch_margin, generations, skip) = run_once(benchmark, _run_all_phases)
    skip_points, skip_served, skip_s, full_s = skip
    skip_margin = full_s / skip_s if skip_s > 0 else float("inf")
    # Parity first: a fast path that changes results is not a fast path.
    assert before == array
    points = len(before)
    sims_before = points * 2 * len(_WORKLOADS)
    array_speedup = before_s / array_s if array_s > 0 else float("inf")
    epoch_lines = "\n".join(
        f"  {name:9s} scalar={row['scalar_s'] * 1e3:7.2f}ms "
        f"array={row['array_s'] * 1e3:7.2f}ms ratio={row['ratio']:.2f}x"
        + ("" if name in _EPOCH_BATCHABLE else "  (reported, not asserted)")
        for name, row in per_mechanism.items())
    text = (
        f"sweep: {len(_MITIGATIONS)} mitigations x {len(_VENDORS)} vendors "
        f"x {len(_TRAS_FACTORS)} tRAS factors x {len(_WORKLOADS)} "
        f"workloads ({sims_before} simulations naively)\n"
        f"scalar kernel, no cache:           {before_s:.2f}s\n"
        f"array kernel + memoized baselines: {array_s:.2f}s\n"
        f"speedup (array): {array_speedup:.1f}x\n"
        f"baseline-cache hits: {cache.hits}  misses: {cache.misses}  "
        f"hit rate: {cache.hit_rate():.2f}\n"
        f"traces built by one array sweep from cleared memos: "
        f"{generations} for {sims_before} simulations\n"
        f"kernel-level epoch-dispatch sweep "
        f"(nrh={_EPOCH_NRH}, {_EPOCH_HAMMERS} hammer pairs):\n"
        f"{epoch_lines}\n"
        f"epoch-dispatch aggregate margin "
        f"({'+'.join(_EPOCH_BATCHABLE)}): {epoch_margin:.2f}x\n"
        f"mitigation skip: {'/'.join(_SKIP_MITIGATIONS)} x nrh "
        f"{'/'.join(map(str, _SKIP_NRH))} x {len(_SKIP_VENDORS)} PaCRAM "
        f"configs x {len(_WORKLOADS)} workloads at {_SKIP_REQUESTS} "
        f"requests: {skip_served} of {skip_points} points served by the "
        f"replay\n"
        f"  on those points: full array runs {full_s * 1e3:.1f}ms, "
        f"run_simulation {skip_s * 1e3:.1f}ms, margin {skip_margin:.1f}x")
    save_result("system_scaling", text)
    payload = {
        "array_speedup": array_speedup,
        "before_s": before_s,
        "array_s": array_s,
        "points": points,
        "cache": cache.stats(),
        "series": {f"{m}@{v_}@{f}": v
                   for (m, v_, f), v in array.items()},
        "epoch_kernel_margin": epoch_margin,
        "epoch_kernel_margin_floor": _EPOCH_MARGIN_FLOOR,
        "epoch_kernel_sweep": per_mechanism,
        "epoch_kernel_batchable": list(_EPOCH_BATCHABLE),
        "array_trace_generations": generations,
        "skip_points": skip_points,
        "skip_served_points": skip_served,
        "skip_margin": skip_margin,
        "floors": {"array_speedup": _ARRAY_FLOOR,
                   "epoch_kernel_margin": _EPOCH_MARGIN_FLOOR,
                   "skip_margin": _SKIP_MARGIN_FLOOR},
        "ceilings": {"array_trace_generations": _TRACE_GENERATION_CEILING},
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_system_scaling.json").write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n")
    assert array_speedup >= _ARRAY_FLOOR, (
        f"array workflow only {array_speedup:.1f}x faster "
        f"(floor {_ARRAY_FLOOR:.0f}x)")
    assert epoch_margin >= _EPOCH_MARGIN_FLOOR, (
        f"epoch-dispatch kernel margin only {epoch_margin:.2f}x "
        f"(floor {_EPOCH_MARGIN_FLOOR}x) over {_EPOCH_BATCHABLE}")
    assert generations <= _TRACE_GENERATION_CEILING, (
        f"one array sweep built {generations} traces "
        f"(ceiling {_TRACE_GENERATION_CEILING})")
    assert 0 < skip_served < skip_points, (
        f"the skip served {skip_served} of {skip_points} points: the grid "
        f"must hold both served and acting points")
    assert skip_margin >= _SKIP_MARGIN_FLOOR, (
        f"mitigation skip only {skip_margin:.1f}x faster than the full run "
        f"(floor {_SKIP_MARGIN_FLOOR}x)")


def bench_fig_builders_kernel_parity(benchmark):
    """fig17/fig18/fig19 render byte-identically under both kernel
    policies."""

    def _render_all(kernel_policy):
        previous = default_policy()
        set_default_policy(ExecutionPolicy(kernel_policy=kernel_policy))
        try:
            return _render()
        finally:
            set_default_policy(previous)

    def _render():
        data = fig17_18_performance_energy(
            mitigations=("PARA",), vendors=("H",), nrh_values=(1024, 64),
            workloads=("spec06.mcf",), requests=800)
        lines = []
        for figure in ("performance", "energy"):
            for (mitigation, label), series in data[figure].items():
                row = " ".join(f"nrh={n}:{v:.4f}"
                               for n, v in series.items())
                lines.append(f"[{figure} {mitigation} {label}] {row}")
        periodic = fig19_periodic(densities_gbit=(8, 64),
                                  latency_factors=(1.00, 0.36),
                                  requests=800)
        for density, per_factor in periodic.items():
            for factor, metrics in per_factor.items():
                lines.append(f"density={density}Gb f={factor}: "
                             f"perf={metrics['performance']:.4f} "
                             f"energy={metrics['energy']:.4f}")
        return "\n".join(lines).encode()

    def _all():
        return _render_all("scalar"), _render_all("array")

    scalar_bytes, array_bytes = run_once(benchmark, _all)
    assert scalar_bytes == array_bytes

"""Scalar vs. vectorized vs. array characterization kernels.

Four grids, two contracts each:

* **Parity grid** (small): all three device kernels produce bit-identical
  :meth:`~repro.characterization.results.ModuleCharacterization.to_json`
  output, and the vectorized kernel is at least 10x faster than the
  scalar oracle (the original fast-path contract).
* **Scaling grid** (larger, the five reduced tRAS factors x three
  restoration counts): the array kernel is at least 10x faster than the
  vectorized kernel — the array tier replaces the per-probe model
  evaluations of the bisection with whole-bank trait sampling and
  analytic flips-vs-none predicates, so its advantage grows with the
  number of test points per row.
* **Campaign grid** (the shape of one campaign task: three vendors'
  reference modules at ``--rows 8``, the seven CLI latencies, N_PR 1):
  both kernels give the same module JSON, and the array kernel is at
  least :data:`CAMPAIGN_FLOOR` times faster than the scalar oracle.  At
  this size a kernel that pays numpy's per-call overhead once per test
  point, not once per module, would fall below the floor.
* **N_PR grid** (the shape of a Table 4 derivation: H5, the seven CLI
  latencies x N_PR 1 to 15K, ``per_region=64``): the array kernel over the
  whole grid against the scalar oracle on its first two rows, whose
  measurements must be equal, in row-points per second.  At this size the
  array tier's cost is its ``hc_high`` flip counts, and the ratio's floor
  (:data:`NPR_GRID_FLOOR`) holds only while they run as numpy arithmetic.

Both ratios and their floors land in
``bench_results/BENCH_characterization.json``, which
``scripts/check_bench_floors.py`` re-checks.

Throughput (row-points per second), the vectorized kernel's
model-evaluation counters, and the probe-memo hit rate land in
``bench_results/characterization_scaling.txt``.
"""

import json
import time

from bench_util import RESULTS_DIR, run_once, save_result

from repro.characterization.algorithm1 import CharacterizationConfig
from repro.characterization.sweeps import characterize_module
from repro.dram.kernels import EvalCounters

#: One vendor module, three latency points (nominal is always added),
#: 3 x 128 sampled rows — small enough for CI, large enough that the
#: vectorized kernel's fixed setup cost is amortized.
_GRID = dict(tras_factors=(0.45, 0.27), n_prs=(1,), per_region=128, seed=7)
#: The scaling grid multiplies out the test points per row (6 latency
#: factors x 3 restoration counts) and tightens the HC_first bisection
#: to single-hammer resolution: the vectorized kernel pays a model
#: evaluation per probe per bisection step, the array kernel none.
_SCALING_GRID = dict(tras_factors=(0.81, 0.64, 0.45, 0.36, 0.27),
                     n_prs=(1, 2, 4), per_region=96, seed=7,
                     config=CharacterizationConfig(iterations=1, hc_step=1))
_MODULE = "H5"


def _run_parity_grid():
    started = time.perf_counter()
    scalar = characterize_module(_MODULE, kernel="scalar", **_GRID)
    scalar_s = time.perf_counter() - started
    counters = EvalCounters()
    started = time.perf_counter()
    vectorized = characterize_module(_MODULE, kernel="vectorized",
                                     counters=counters, **_GRID)
    vectorized_s = time.perf_counter() - started
    started = time.perf_counter()
    array = characterize_module(_MODULE, kernel="array", **_GRID)
    array_s = time.perf_counter() - started
    return scalar, scalar_s, vectorized, vectorized_s, array, array_s, counters


def bench_characterization_scaling(benchmark):
    scalar, scalar_s, vectorized, vectorized_s, array, array_s, counters = \
        run_once(benchmark, _run_parity_grid)
    # Parity first: a fast path that changes results is not a fast path.
    scalar_json = scalar.to_json()
    assert scalar_json == vectorized.to_json()
    assert scalar_json == array.to_json()
    points = len(scalar.measurements)
    rows = len({m.row for m in scalar.measurements})
    speedup = scalar_s / vectorized_s if vectorized_s > 0 else float("inf")
    probes = counters.cache_hits + counters.model_evals
    hit_rate = counters.cache_hits / probes if probes else 0.0
    text = (
        f"grid: {_MODULE}, {rows} rows, {points} row-points\n"
        f"scalar kernel:     {scalar_s:.2f}s  "
        f"({points / scalar_s:.0f} row-points/s)\n"
        f"vectorized kernel: {vectorized_s:.2f}s  "
        f"({points / vectorized_s:.0f} row-points/s)\n"
        f"array kernel:      {array_s:.2f}s  "
        f"({points / array_s:.0f} row-points/s)\n"
        f"speedup (vectorized/scalar): {speedup:.1f}x\n"
        f"model evals/row-point: "
        f"{counters.evals_per_row_point(1, points):.1f}\n"
        f"probe-memo hit rate: {hit_rate:.2f}")
    save_result("characterization_scaling", text)
    assert speedup >= 10.0, f"vectorized kernel only {speedup:.1f}x faster"


def _run_scaling_grid():
    # Best-of-two per kernel: the array kernel finishes this grid in well
    # under a second, so one noisy run could distort the ratio.
    vectorized_s = array_s = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        vectorized = characterize_module(_MODULE, kernel="vectorized",
                                         **_SCALING_GRID)
        vectorized_s = min(vectorized_s, time.perf_counter() - started)
        started = time.perf_counter()
        array = characterize_module(_MODULE, kernel="array", **_SCALING_GRID)
        array_s = min(array_s, time.perf_counter() - started)
    return vectorized, vectorized_s, array, array_s


def bench_characterization_array_tier(benchmark):
    vectorized, vectorized_s, array, array_s = run_once(
        benchmark, _run_scaling_grid)
    assert vectorized.to_json() == array.to_json()
    points = len(vectorized.measurements)
    speedup = vectorized_s / array_s if array_s > 0 else float("inf")
    text = (
        f"scaling grid: {_MODULE}, {points} row-points\n"
        f"vectorized kernel: {vectorized_s:.2f}s  "
        f"({points / vectorized_s:.0f} row-points/s)\n"
        f"array kernel:      {array_s:.2f}s  "
        f"({points / array_s:.0f} row-points/s)\n"
        f"speedup (array/vectorized): {speedup:.1f}x")
    save_result("characterization_array_tier", text)
    assert speedup >= 10.0, f"array kernel only {speedup:.1f}x faster"


#: One campaign task's shape at the CLI's ``--rows 8``: the seven CLI
#: latencies (the default) at N_PR 1, on each vendor's reference module.
_CAMPAIGN_MODULES = ("H5", "M2", "S6")
_CAMPAIGN_GRID = dict(per_region=8)
#: The array kernel's floor over the scalar oracle on the campaign grid.
CAMPAIGN_FLOOR = 35.0


def _run_campaign_grid() -> tuple[dict[str, list[str]], dict[str, float]]:
    # Best of three per kernel, the kernels taking turns, so that a slow
    # spell of a shared host spoils one repetition of each, not all three
    # of the short array runs.
    outputs: dict[str, list[str]] = {}
    best_s = {"scalar": float("inf"), "array": float("inf")}
    for _ in range(3):
        for kernel in best_s:
            started = time.perf_counter()
            results = [characterize_module(module_id, kernel=kernel,
                                           **_CAMPAIGN_GRID)
                       for module_id in _CAMPAIGN_MODULES]
            best_s[kernel] = min(best_s[kernel],
                                 time.perf_counter() - started)
            outputs[kernel] = [result.to_json() for result in results]
    return outputs, best_s


def bench_characterization_campaign_grid(benchmark):
    outputs, best_s = run_once(benchmark, _run_campaign_grid)
    scalar, array = outputs["scalar"], outputs["array"]
    scalar_s, array_s = best_s["scalar"], best_s["array"]
    assert scalar == array
    points = sum(len(json.loads(text)["measurements"]) for text in array)
    ratio = scalar_s / array_s if array_s > 0 else float("inf")
    _record({"modules": list(_CAMPAIGN_MODULES),
             "row_points": points,
             "scalar_ms": scalar_s * 1e3,
             "array_ms": array_s * 1e3,
             "array_over_scalar": ratio},
            {"array_over_scalar": CAMPAIGN_FLOOR})
    save_result("characterization_campaign", (
        f"campaign grid: {', '.join(_CAMPAIGN_MODULES)}, "
        f"{points} row-points, best of 3\n"
        f"scalar kernel: {scalar_s * 1e3:.1f} ms\n"
        f"array kernel:  {array_s * 1e3:.1f} ms\n"
        f"speedup (array/scalar): {ratio:.1f}x"))
    assert ratio >= CAMPAIGN_FLOOR, \
        f"array kernel only {ratio:.1f}x faster than scalar"


#: A Table 4 derivation's N_PR values: powers of two to 512, each printed
#: N_PCR among them, up to the largest tested N_PR.
_NPR_VALUES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 300, 512, 1_000, 2_000,
               2_500, 4_000, 8_000, 15_000)
_NPR_GRID = dict(n_prs=_NPR_VALUES, per_region=64)
#: Rows the scalar oracle measures of the grid (its first two).
_NPR_SCALAR_ROWS = 2
#: The array kernel's floor over the scalar oracle on the N_PR grid, in
#: row-points per second.
NPR_GRID_FLOOR = 200.0


def _run_npr_grid():
    # Best of three per kernel, taking turns as on the campaign grid.
    best_s = {"scalar": float("inf"), "array": float("inf")}
    for _ in range(3):
        started = time.perf_counter()
        array = characterize_module(_MODULE, kernel="array", **_NPR_GRID)
        best_s["array"] = min(best_s["array"], time.perf_counter() - started)
        rows = tuple(dict.fromkeys(m.row for m in array.measurements))
        started = time.perf_counter()
        scalar = characterize_module(_MODULE, kernel="scalar",
                                     rows=rows[:_NPR_SCALAR_ROWS],
                                     **_NPR_GRID)
        best_s["scalar"] = min(best_s["scalar"],
                               time.perf_counter() - started)
    return array, scalar, best_s


def bench_characterization_npr_grid(benchmark):
    array, scalar, best_s = run_once(benchmark, _run_npr_grid)
    measured = len(scalar.measurements)
    assert array.measurements[:measured] == scalar.measurements
    points = len(array.measurements)
    array_rate = points / best_s["array"]
    scalar_rate = measured / best_s["scalar"]
    ratio = array_rate / scalar_rate
    _record({"npr_grid_row_points": points,
             "npr_grid_array_ms": best_s["array"] * 1e3,
             "npr_grid_scalar_row_points": measured,
             "npr_grid_scalar_ms": best_s["scalar"] * 1e3,
             "npr_grid_array_over_scalar": ratio},
            {"npr_grid_array_over_scalar": NPR_GRID_FLOOR})
    save_result("characterization_npr_grid", (
        f"N_PR grid: {_MODULE}, {len(_NPR_VALUES)} N_PR values x 7 "
        f"latencies, {points} row-points, best of 3\n"
        f"array kernel:  {best_s['array'] * 1e3:.1f} ms  "
        f"({array_rate:.0f} row-points/s)\n"
        f"scalar kernel: {best_s['scalar'] * 1e3:.1f} ms on "
        f"{measured} row-points  ({scalar_rate:.0f} row-points/s)\n"
        f"speedup (array/scalar, row-points/s): {ratio:.1f}x"))
    assert ratio >= NPR_GRID_FLOOR, \
        f"array kernel only {ratio:.1f}x the scalar row-points/s"


def _record(metrics: dict, floors: dict) -> None:
    """Merge one grid's metrics and floors into
    ``BENCH_characterization.json``, keeping the other grid's."""
    path = RESULTS_DIR / "BENCH_characterization.json"
    payload = json.loads(path.read_text()) if path.is_file() else {}
    payload.update(metrics)
    payload["floors"] = {**payload.get("floors", {}), **floors}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")

"""Characterization campaigns: the sweeps behind Figs. 6-12.

Every sweep runs exactly the paper's Algorithm 1 at many test points,
through one of three device kernels:

* ``array`` (default) — :func:`~repro.characterization.arraykernel.
  measure_rows_array` measures the whole row batch per test point through
  the analytic flips-vs-none predicate, with no per-probe model
  evaluations inside the bisection;
* ``scalar`` — a thin loop over :func:`~repro.characterization.algorithm1.
  measure_row` with a shared :class:`ProbeCache`, the parity oracle for the
  fast paths;
* ``vectorized`` — :func:`~repro.characterization.vectorized.measure_rows`
  drives the same batch through the bank-level kernels; only an explicit
  ``kernel="vectorized"`` reaches it.

All kernels produce bit-identical results (the parity suite asserts it).
The full-scale paper campaign (3K rows x 7 latencies x many restoration
counts x 3 temperatures x 30 modules) is supported but slow; callers pick
the scale through ``per_region`` and the swept values.
"""

from __future__ import annotations

from repro.bender.host import DRAMBenderHost
from repro.characterization.algorithm1 import CharacterizationConfig, measure_row
from repro.characterization.arraykernel import measure_rows_array
from repro.characterization.probecache import ProbeCache
from repro.characterization.results import ModuleCharacterization
from repro.characterization.rows import select_test_bank, select_test_rows
from repro.characterization.vectorized import measure_rows
from repro.dram.kernels import EvalCounters
from repro.dram.module import DRAMModule
from repro.dram.timing import TESTED_TRAS_FACTORS
from repro.errors import CharacterizationError
from repro.exec import resolve_kernel, validate_stage_kernel
from repro.validation.physics import model_digest

#: Default config for sweeps: a single iteration, because the device model
#: is deterministic (the paper's five iterations guard against run-to-run
#: noise on real hardware).
_SWEEP_CONFIG = CharacterizationConfig(iterations=1)


def measured_rows(module: DRAMModule, per_region: int,
                  rows: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """The victim rows a sweep measures on ``module``: ``rows``, else the
    §4.2 sample at ``per_region``, less every row without two physical
    neighbors (the mapping may place a logical row at the physical bank
    edge, where it cannot be double-sided hammered)."""
    if rows is None:
        rows = select_test_rows(module.geometry.rows_per_bank, per_region)
    return tuple(r for r in rows
                 if len(module.mapping.neighbors(r, 1)) == 2)


def measured_points(tras_factors: tuple[float, ...], n_prs: tuple[int, ...],
                    ) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """The tRAS factors and N_PR values a sweep measures: the nominal
    latency and a single restoration first (the normalization baseline),
    then the requested ones, each once."""
    return (tuple(dict.fromkeys((1.00,) + tuple(tras_factors))),
            tuple(dict.fromkeys((1,) + tuple(n_prs))))


def characterize_module(module_id: str, *,
                        tras_factors: tuple[float, ...] = TESTED_TRAS_FACTORS,
                        n_prs: tuple[int, ...] = (1,),
                        temperatures_c: tuple[float, ...] = (80.0,),
                        per_region: int = 342,
                        rows: tuple[int, ...] | None = None,
                        seed: int = 2025,
                        config: CharacterizationConfig | None = None,
                        kernel: str | None = None,
                        counters: EvalCounters | None = None,
                        ) -> ModuleCharacterization:
    """Run the main test loop on one module across all requested test points.

    ``per_region`` scales the §4.2 row sampling (the paper uses 1024 per
    region; the default here keeps a laptop-scale run while spanning the
    same three bank regions).  The nominal-latency, single-restoration
    baseline is always measured so results can be normalized.

    ``kernel`` selects the device kernel (see module docstring; ``None``
    resolves through the default :class:`repro.exec.ExecutionPolicy`);
    results are bit-identical either way, including measurement order.
    Pass an :class:`EvalCounters` to observe the vectorized kernel's model
    work.  The scalar kernel memoizes its probes in one in-memory
    :class:`ProbeCache` for the module.
    """
    if not tras_factors:
        raise CharacterizationError("need at least one tRAS factor")
    kernel = (resolve_kernel("device") if kernel is None
              else validate_stage_kernel("device", kernel))
    config = config or _SWEEP_CONFIG
    host = DRAMBenderHost(module_id, temperature_c=temperatures_c[0], seed=seed)
    module = host.module
    bank = select_test_bank(module_id, module.geometry.total_banks, seed)
    rows = measured_rows(module, per_region, rows)
    factors, n_pr_values = measured_points(tras_factors, n_prs)
    result = ModuleCharacterization(module_id=module_id, seed=seed,
                                    model_digest=model_digest(module_id, seed))
    nominal = module.timing.tRAS
    cache = ProbeCache() if kernel == "scalar" else None
    for temperature in temperatures_c:
        host.set_temperature(temperature)
        if kernel in ("vectorized", "array"):
            # Measure all rows per test point in one batch, then emit the
            # measurements in the same order the scalar loop would.
            batch_measure = (measure_rows_array if kernel == "array"
                             else measure_rows)
            by_point: dict[tuple[float, int], list] = {}
            for factor in factors:
                for n_pr in n_pr_values:
                    by_point[(factor, n_pr)] = batch_measure(
                        host, bank, rows,
                        tras_red_ns=factor * nominal,
                        n_pr=n_pr, config=config, counters=counters)
            for i, victim in enumerate(rows):
                for factor in factors:
                    for n_pr in n_pr_values:
                        result.add(by_point[(factor, n_pr)][i])
            continue
        for victim in rows:
            for factor in factors:
                for n_pr in n_pr_values:
                    measurement = measure_row(
                        host, bank, victim,
                        tras_red_ns=factor * nominal,
                        n_pr=n_pr, config=config, cache=cache)
                    result.add(measurement)
    return result


def sweep_tras(module_ids: tuple[str, ...], *,
               tras_factors: tuple[float, ...] = TESTED_TRAS_FACTORS,
               per_region: int = 342, seed: int = 2025,
               ) -> dict[str, ModuleCharacterization]:
    """Fig. 6/7/8/9 campaign: N_RH and BER vs charge-restoration latency."""
    return {module_id: characterize_module(
        module_id, tras_factors=tras_factors,
        per_region=per_region, seed=seed)
        for module_id in module_ids}


def sweep_npr(module_ids: tuple[str, ...], *,
              tras_factors: tuple[float, ...] = (0.64, 0.45, 0.36, 0.27),
              n_prs: tuple[int, ...] = (1, 2, 4, 8),
              per_region: int = 128, seed: int = 2025,
              ) -> dict[str, ModuleCharacterization]:
    """Fig. 11/12 campaign: N_RH vs repeated partial charge restoration."""
    return {module_id: characterize_module(
        module_id, tras_factors=tras_factors, n_prs=n_prs,
        per_region=per_region, seed=seed)
        for module_id in module_ids}


def sweep_temperature(module_ids: tuple[str, ...], *,
                      temperatures_c: tuple[float, ...] = (50.0, 65.0, 80.0),
                      tras_factors: tuple[float, ...] = TESTED_TRAS_FACTORS,
                      per_region: int = 128, seed: int = 2025,
                      ) -> dict[str, ModuleCharacterization]:
    """Fig. 10 campaign: combined temperature x latency effects."""
    return {module_id: characterize_module(
        module_id, tras_factors=tras_factors,
        temperatures_c=temperatures_c,
        per_region=per_region, seed=seed)
        for module_id in module_ids}

"""Data builders for every figure in the paper.

Each function regenerates the data series behind one figure at a
caller-chosen scale (row counts, workload counts, trace lengths).  The
benchmark harness (``benchmarks/``) calls these with laptop-scale defaults
and prints the same rows/series the paper plots; EXPERIMENTS.md records the
paper-vs-measured comparison.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.boxstats import BoxStats
from repro.analysis.runner import (
    EVALUATED_NRH_VALUES,
    PACRAM_BEST_FACTORS,
    pacram_reference_config,
    run_simulation,
)
from repro.characterization.halfdouble import halfdouble_row_fraction
from repro.characterization.retention import (
    RETENTION_TIMES_NS,
    retention_failure_fractions,
)
from repro.characterization.sweeps import (
    characterize_module,
    sweep_npr,
    sweep_temperature,
    sweep_tras,
)
from repro.core.config import PaCRAMConfig
from repro.core.periodic import PeriodicPaCRAM
from repro.dram.catalog import module_spec, modules_by_manufacturer
from repro.dram.timing import TESTED_TRAS_FACTORS, ddr4_timing
from repro.errors import ConfigError
from repro.exec import default_policy, resolve_kernel
from repro.mitigations import make_mitigation
from repro.sim.config import SystemConfig
from repro.sim.system import MemorySystem, SimulationResult
from repro.validation import make_checker
from repro.workloads.suites import multicore_mixes, single_core_suite, workload_by_name

#: The five evaluated mitigation mechanisms, in the paper's order.
MITIGATIONS: tuple[str, ...] = ("PARA", "RFM", "PRAC", "Hydra", "Graphene")


# ---------------------------------------------------------------------------
# Fig. 3: preventive-refresh overhead of five mitigations vs N_RH
# ---------------------------------------------------------------------------
def fig3_preventive_overhead(*, nrh_values: tuple[int, ...] = EVALUATED_NRH_VALUES,
                             mitigations: tuple[str, ...] = MITIGATIONS,
                             num_mixes: int = 3, requests: int = 3_000,
                             ) -> dict[str, dict[int, dict[str, float]]]:
    """{mitigation: {nrh: {"mean"/"min"/"max": fraction of time}}}."""
    mixes = multicore_mixes(num_mixes)
    out: dict[str, dict[int, dict[str, float]]] = {}
    for mitigation in mitigations:
        out[mitigation] = {}
        for nrh in nrh_values:
            fractions = []
            for mix in mixes:
                result = run_simulation(mix, mitigation=mitigation,
                                        nrh=nrh, requests=requests)
                fractions.append(result.preventive_busy_fraction)
            out[mitigation][nrh] = {
                "mean": sum(fractions) / len(fractions),
                "min": min(fractions),
                "max": max(fractions),
            }
    return out


# ---------------------------------------------------------------------------
# Fig. 4: motivational time/energy analysis (analytic, modules H5 and S6)
# ---------------------------------------------------------------------------
def fig4_motivation(module_ids: tuple[str, ...] = ("H5", "S6"),
                    ) -> dict[str, dict[str, dict[float, float]]]:
    """The five normalized curves of Fig. 4 per module.

    Curves (paper definitions, §3): preventive-refresh latency
    ``(tRAS + tRP)``; RowHammer threshold (measured ratio); preventive
    refresh count ``1 / N_RH``; total time cost ``count x latency``; total
    energy cost ``count x total time``.
    """
    timing = ddr4_timing()
    out: dict[str, dict[str, dict[float, float]]] = {}
    for module_id in module_ids:
        spec = module_spec(module_id)
        curves: dict[str, dict[float, float]] = {
            "latency": {}, "nrh": {}, "count": {}, "time": {}, "energy": {},
        }
        nominal_latency = timing.tRAS + timing.tRP
        for factor in TESTED_TRAS_FACTORS:
            ratio = spec.nrh_ratio(factor)
            if ratio is None:
                raise ConfigError(f"{module_id} has no N_RH data")
            latency = (factor * timing.tRAS + timing.tRP) / nominal_latency
            curves["latency"][factor] = latency
            curves["nrh"][factor] = ratio
            if ratio > 0:
                count = 1.0 / ratio
                curves["count"][factor] = count
                curves["time"][factor] = count * latency
                curves["energy"][factor] = count * (count * latency)
        out[module_id] = curves
    return out


def fig4_inflection(curves: dict[str, dict[float, float]],
                    curve: str = "time") -> tuple[float, float]:
    """(tRAS factor, value) minimizing a Fig. 4 cost curve."""
    series = curves[curve]
    factor = min(series, key=series.__getitem__)
    return factor, series[factor]


# ---------------------------------------------------------------------------
# Figs. 6 / 9: N_RH and BER vs charge-restoration latency (box stats)
# ---------------------------------------------------------------------------
def fig6_nrh_boxes(module_ids: tuple[str, ...], *,
                   tras_factors: tuple[float, ...] = TESTED_TRAS_FACTORS,
                   per_region: int = 24, seed: int = 2025,
                   ) -> dict[str, dict[float, BoxStats]]:
    """Per-vendor box stats of normalized N_RH at each latency."""
    results = sweep_tras(module_ids, tras_factors=tras_factors,
                         per_region=per_region, seed=seed)
    return fig6_nrh_boxes_from(results, tras_factors=tras_factors)


def fig6_nrh_boxes_from(results, *,
                        tras_factors: tuple[float, ...] = TESTED_TRAS_FACTORS,
                        ) -> dict[str, dict[float, BoxStats]]:
    """Fig. 6 boxes from already-characterized modules.

    Takes the ``{module_id: ModuleCharacterization}`` mapping that
    :func:`repro.characterization.sweeps.sweep_tras` returns and
    ``CharacterizationCampaign.load()`` reconstructs from disk, so the
    figure can be rebuilt from persisted campaign rows (e.g. after a
    distributed run) without re-simulating anything.
    """
    return _vendor_boxes(results, {f: (f,) for f in tras_factors})


def fig9_ber_boxes(module_ids: tuple[str, ...], *,
                   tras_factors: tuple[float, ...] = TESTED_TRAS_FACTORS,
                   per_region: int = 24, seed: int = 2025,
                   ) -> dict[str, dict[float, BoxStats]]:
    """Per-vendor box stats of normalized BER at each latency."""
    results = sweep_tras(module_ids, tras_factors=tras_factors,
                         per_region=per_region, seed=seed)
    return _vendor_boxes(results, {f: (f,) for f in tras_factors}, "ber")


def _vendor_boxes(results, cells: dict, metric: str = "nrh") -> dict:
    """``{vendor: {cell: BoxStats}}`` of normalized ``metric``, every
    module of a vendor pooled into one box.

    ``cells`` maps each box to its test point, the ``(tras_factor, n_pr,
    temperature_c)`` prefix that
    :meth:`~repro.characterization.results.ModuleCharacterization.normalized`
    takes; a box without data points is left out.
    """
    pooled: dict[str, dict] = {}
    for module_id, characterization in results.items():
        pool = pooled.setdefault(module_id[0], {cell: [] for cell in cells})
        for cell, point in cells.items():
            pool[cell].extend(ratio for _, ratio
                              in characterization.normalized(metric, *point))
    return {vendor: {cell: BoxStats.from_values(values)
                     for cell, values in pool.items() if values}
            for vendor, pool in pooled.items()}


def _nested(boxes: dict, outer: tuple) -> dict:
    """``{vendor: {(a, b): box}}`` as ``{vendor: {a: {b: box}}}``, with
    every ``a`` of ``outer``, boxes or not."""
    return {vendor: {a: {b: box for (key, b), box in cells.items() if key == a}
                     for a in outer}
            for vendor, cells in boxes.items()}


# ---------------------------------------------------------------------------
# Fig. 7: lowest observed N_RH per module vs latency
# ---------------------------------------------------------------------------
def fig7_lowest_nrh(module_ids: tuple[str, ...], *,
                    tras_factors: tuple[float, ...] = TESTED_TRAS_FACTORS,
                    per_region: int = 24, seed: int = 2025,
                    ) -> dict[str, dict[float, float]]:
    """{module: {factor: lowest N_RH normalized to nominal}}."""
    results = sweep_tras(module_ids, tras_factors=tras_factors,
                         per_region=per_region, seed=seed)
    out: dict[str, dict[float, float]] = {}
    for module_id, characterization in results.items():
        nominal = characterization.lowest_nrh(1.00)
        if not nominal:
            continue
        out[module_id] = {}
        for factor in tras_factors:
            lowest = characterization.lowest_nrh(factor)
            out[module_id][factor] = (lowest or 0) / nominal
    return out


# ---------------------------------------------------------------------------
# Fig. 8: per-row N_RH at 0.45 tRAS vs nominal (scatter)
# ---------------------------------------------------------------------------
def fig8_row_scatter(module_ids: tuple[str, ...] = ("H8", "M5", "S1"), *,
                     reduced_factor: float = 0.45,
                     per_region: int = 48, seed: int = 2025,
                     ) -> dict[str, list[tuple[float, float]]]:
    """{module: [(nominal N_RH, normalized N_RH at the reduced factor)]}."""
    out: dict[str, list[tuple[float, float]]] = {}
    for module_id in module_ids:
        characterization = characterize_module(
            module_id, tras_factors=(1.00, reduced_factor),
            per_region=per_region, seed=seed)
        out[module_id] = [
            (float(nominal), ratio) for nominal, ratio
            in characterization.normalized("nrh", reduced_factor)]
    return out


def fig8_sensitive_fraction(points: list[tuple[float, float]],
                            threshold: float = 0.75) -> float:
    """Fraction of rows whose N_RH drops below ``threshold`` (the paper's
    'more than 25 % reduction' metric)."""
    if not points:
        raise ConfigError("no scatter points")
    return sum(1 for _, ratio in points if ratio < threshold) / len(points)


# ---------------------------------------------------------------------------
# Fig. 10: temperature x latency
# ---------------------------------------------------------------------------
def fig10_temperature(module_ids: tuple[str, ...], *,
                      temperatures_c: tuple[float, ...] = (50.0, 65.0, 80.0),
                      tras_factors: tuple[float, ...] = (1.00, 0.64, 0.36),
                      per_region: int = 12, seed: int = 2025,
                      ) -> dict[str, dict[float, dict[float, BoxStats]]]:
    """{vendor: {temperature: {factor: BoxStats of normalized N_RH}}},
    every module of a vendor pooled into its boxes."""
    results = sweep_temperature(module_ids, temperatures_c=temperatures_c,
                                tras_factors=tras_factors,
                                per_region=per_region, seed=seed)
    return _nested(_vendor_boxes(results, {(t, f): (f, 1, t)
                                           for t in temperatures_c
                                           for f in tras_factors}),
                   temperatures_c)


# ---------------------------------------------------------------------------
# Figs. 11 / 12: repeated partial charge restoration
# ---------------------------------------------------------------------------
def fig11_repeated_pcr(module_ids: tuple[str, ...], *,
                       tras_factors: tuple[float, ...] = (0.64, 0.45, 0.36, 0.27),
                       n_prs: tuple[int, ...] = (1, 2, 4, 8),
                       per_region: int = 12, seed: int = 2025,
                       ) -> dict[str, dict[float, dict[int, BoxStats]]]:
    """{vendor: {factor: {n_pr: BoxStats of normalized N_RH}}}."""
    results = sweep_npr(module_ids, tras_factors=tras_factors, n_prs=n_prs,
                        per_region=per_region, seed=seed)
    return _nested(_vendor_boxes(results, {(f, n): (f, n)
                                           for f in tras_factors
                                           for n in n_prs}),
                   tras_factors)


def fig12_npr_scaling(module_ids: tuple[str, ...] = ("H7", "M2", "S6"), *,
                      tras_factor: float = 0.36,
                      n_prs: tuple[int, ...] = (1, 500, 1_000, 2_500,
                                                5_000, 10_000, 15_000),
                      per_region: int = 8, seed: int = 2025,
                      ) -> dict[str, dict[int, int | None]]:
    """{module: {n_pr: lowest N_RH}} at 0.36 tRAS, up to 15K restorations."""
    out: dict[str, dict[int, int | None]] = {}
    for module_id in module_ids:
        characterization = characterize_module(
            module_id, tras_factors=(tras_factor,), n_prs=n_prs,
            per_region=per_region, seed=seed)
        out[module_id] = {
            n_pr: characterization.lowest_nrh(tras_factor, n_pr=n_pr)
            for n_pr in n_prs}
    return out


# ---------------------------------------------------------------------------
# Fig. 13: Half-Double vs latency
# ---------------------------------------------------------------------------
def fig13_halfdouble(module_ids: tuple[str, ...] = ("H7", "H8", "S6", "S7"), *,
                     tras_factors: tuple[float, ...] = (1.00, 0.64, 0.36, 0.18),
                     n_prs: tuple[int, ...] = (1, 5),
                     per_region: int = 48, seed: int = 2025,
                     ) -> dict[str, dict[tuple[float, int], float]]:
    """{module: {(factor, n_pr): fraction of rows with Half-Double flips}}."""
    out: dict[str, dict[tuple[float, int], float]] = {}
    for module_id in module_ids:
        out[module_id] = {}
        for factor in tras_factors:
            for n_pr in n_prs:
                result = halfdouble_row_fraction(
                    module_id, tras_factor=factor, n_pr=n_pr,
                    per_region=per_region, seed=seed)
                out[module_id][(factor, n_pr)] = result.fraction
    return out


# ---------------------------------------------------------------------------
# Fig. 14: data-retention failures vs latency
# ---------------------------------------------------------------------------
def fig14_retention(module_ids: tuple[str, ...] = ("H5", "M2", "S6"), *,
                    tras_factors: tuple[float, ...] = (1.00, 0.64, 0.45,
                                                       0.36, 0.27),
                    n_restorations: tuple[int, ...] = (1, 10),
                    ) -> dict[str, dict[tuple[float, int, float], float]]:
    """{module: {(factor, n, retention time): failing-row fraction}}."""
    return {
        module_id: retention_failure_fractions(
            module_id, tras_factors=tras_factors,
            n_restorations=n_restorations,
            retention_times_ns=RETENTION_TIMES_NS)
        for module_id in module_ids
    }


# ---------------------------------------------------------------------------
# Fig. 16: performance vs preventive-refresh latency
# ---------------------------------------------------------------------------
def fig16_latency_sweep(*, mitigations: tuple[str, ...] = MITIGATIONS,
                        vendors: tuple[str, ...] = ("H", "M", "S"),
                        nrh_values: tuple[int, ...] = (1024, 64),
                        tras_factors: tuple[float, ...] = (0.81, 0.64, 0.45,
                                                           0.36, 0.27),
                        workloads: tuple[str, ...] | None = None,
                        requests: int = 3_000, cache=None,
                        ) -> dict[tuple[str, str, int], dict[float, float]]:
    """{(mitigation, vendor, nrh): {factor: IPC normalized to no-PaCRAM}}."""
    if workloads is None:
        workloads = single_core_suite()[:4]
    out: dict[tuple[str, str, int], dict[float, float]] = {}
    config = SystemConfig(num_cores=1)
    for mitigation in mitigations:
        for nrh in nrh_values:
            baselines = {
                name: run_simulation((name,), mitigation=mitigation, nrh=nrh,
                                     requests=requests, config=config,
                                     cache=cache).mean_ipc
                for name in workloads}
            for vendor in vendors:
                series: dict[float, float] = {}
                for factor in tras_factors:
                    try:
                        pacram = pacram_reference_config(vendor, factor)
                    except ConfigError:
                        continue  # N/A operating point for this module
                    ratios = []
                    for name in workloads:
                        result = run_simulation(
                            (name,), mitigation=mitigation, nrh=nrh,
                            pacram=pacram, requests=requests, config=config,
                            cache=cache)
                        ratios.append(result.mean_ipc / baselines[name])
                    series[factor] = sum(ratios) / len(ratios)
                out[(mitigation, vendor, nrh)] = series
    return out


# ---------------------------------------------------------------------------
# Figs. 17 / 18: performance and energy vs N_RH
# ---------------------------------------------------------------------------
def fig17_18_performance_energy(*, mitigations: tuple[str, ...] = MITIGATIONS,
                                vendors: tuple[str, ...] = ("H", "M", "S"),
                                nrh_values: tuple[int, ...] = EVALUATED_NRH_VALUES,
                                workloads: tuple[str, ...] | None = None,
                                requests: int = 3_000, cache=None,
                                ) -> dict:
    """Normalized performance (Fig. 17) and energy (Fig. 18) vs N_RH.

    Returns ``{"performance"/"energy": {(mitigation, config): {nrh: value}}}``
    where config is "NoPaCRAM" or "PaCRAM-H/M/S", and values are normalized
    to the no-mitigation baseline.
    """
    if workloads is None:
        workloads = single_core_suite()[:4]
    config = SystemConfig(num_cores=1)
    base_ipc, base_energy = {}, {}
    for name in workloads:
        result = run_simulation((name,), mitigation="None",
                                requests=requests, config=config,
                                cache=cache)
        base_ipc[name] = result.mean_ipc
        base_energy[name] = result.energy_nj
    performance: dict[tuple[str, str], dict[int, float]] = {}
    energy: dict[tuple[str, str], dict[int, float]] = {}
    configs: list[tuple[str, PaCRAMConfig | None]] = [("NoPaCRAM", None)]
    configs += [(f"PaCRAM-{v}", pacram_reference_config(v)) for v in vendors]
    for mitigation in mitigations:
        for label, pacram in configs:
            perf_series: dict[int, float] = {}
            energy_series: dict[int, float] = {}
            for nrh in nrh_values:
                perf, joule = [], []
                for name in workloads:
                    result = run_simulation(
                        (name,), mitigation=mitigation, nrh=nrh,
                        pacram=pacram, requests=requests, config=config,
                        cache=cache)
                    perf.append(result.mean_ipc / base_ipc[name])
                    joule.append(result.energy_nj / base_energy[name])
                perf_series[nrh] = sum(perf) / len(perf)
                energy_series[nrh] = sum(joule) / len(joule)
            performance[(mitigation, label)] = perf_series
            energy[(mitigation, label)] = energy_series
    return {"performance": performance, "energy": energy}


def fig17_multicore_weighted_speedup(
        *, mitigations: tuple[str, ...] = ("PARA", "RFM"),
        vendors: tuple[str, ...] = ("H",),
        nrh_values: tuple[int, ...] = (1024, 32),
        num_mixes: int = 2, requests: int = 2_000, cache=None,
        ) -> dict[tuple[str, str], dict[int, float]]:
    """Fig. 17's right subplot: 4-core weighted speedup vs N_RH.

    Values are weighted speedups of the PaCRAM configuration relative to
    the same mitigation without PaCRAM (> num_cores means PaCRAM helps),
    averaged over the mixes and normalized per core count to 1.0.
    """
    from repro.sim.stats import weighted_speedup

    mixes = multicore_mixes(num_mixes)
    out: dict[tuple[str, str], dict[int, float]] = {}
    for mitigation in mitigations:
        for vendor in vendors:
            pacram = pacram_reference_config(vendor)
            series: dict[int, float] = {}
            for nrh in nrh_values:
                speedups = []
                for mix in mixes:
                    config = SystemConfig(num_cores=len(mix))
                    base = run_simulation(mix, mitigation=mitigation,
                                          nrh=nrh, requests=requests,
                                          config=config, cache=cache)
                    fast = run_simulation(mix, mitigation=mitigation,
                                          nrh=nrh, pacram=pacram,
                                          requests=requests, config=config,
                                          cache=cache)
                    speedups.append(
                        weighted_speedup(fast.ipc, base.ipc) / len(mix))
                series[nrh] = sum(speedups) / len(speedups)
            out[(mitigation, f"PaCRAM-{vendor}")] = series
    return out


# ---------------------------------------------------------------------------
# Fig. 19: periodic-refresh extension vs chip density (Appendix B)
# ---------------------------------------------------------------------------
def fig19_periodic(*, densities_gbit: tuple[int, ...] = (8, 32, 128, 512),
                   latency_factors: tuple[float, ...] = (1.00, 0.64, 0.36, 0.18),
                   mix: tuple[str, ...] | None = None,
                   requests: int = 2_500,
                   ) -> dict[int, dict[float, dict[str, float]]]:
    """{density: {latency factor: {"performance"/"energy": normalized}}}.

    Normalized to a hypothetical system with no periodic refresh.  Larger
    densities mean more rows per REF and a longer tRFC (modeled by scaling
    tRFC with density).  Every run takes its kernel and attaches the
    protocol checker under the default
    :class:`repro.exec.ExecutionPolicy`'s ``kernel_policy`` and
    ``check_protocol`` mode.
    """
    if mix is None:
        mix = multicore_mixes(1)[0]
    # Nothing mutates a trace, so every run below shares these.
    traces = [workload_by_name(name, requests=requests, seed=7 + i)
              for i, name in enumerate(mix)]
    mode = default_policy().check_protocol
    kernel = resolve_kernel("sim")

    def simulate(config: SystemConfig,
                 policy: PeriodicPaCRAM) -> SimulationResult:
        mitigation = make_mitigation("None", 1)
        checker = make_checker(
            config, mode=mode,
            partial_limit=policy.partial_restoration_limit(),
            mitigation=mitigation)
        return MemorySystem(config, traces, mitigation=mitigation,
                            policy=policy, observer=checker).run(kernel)

    out: dict[int, dict[float, dict[str, float]]] = {}
    for density in densities_gbit:
        # tRFC grows sublinearly with density (JEDEC: ~1.45x per doubling;
        # e.g. DDR4 8 Gb -> 16 Gb is 350 -> 550 ns), and must stay below
        # tREFI or refresh starves the system.
        trfc_scale = (density / 8) ** 0.55
        timing = SystemConfig().timing
        scaled_timing = replace(timing, tRFC=timing.tRFC * trfc_scale)
        config = SystemConfig(num_cores=len(mix), timing=scaled_timing)
        # Hypothetical no-refresh baseline: scale periodic latency to ~0.
        baseline = simulate(config, PeriodicPaCRAM(
            config, latency_factor_rfc=1e-6, npcr=10**9))
        out[density] = {}
        for factor in latency_factors:
            result = simulate(config, PeriodicPaCRAM(
                config, latency_factor_rfc=factor))
            ws = sum(result.ipc[c] / baseline.ipc[c] for c in result.ipc)
            ws /= len(result.ipc)
            out[density][factor] = {
                "performance": ws,
                "energy": result.energy_nj / baseline.energy_nj,
            }
    return out

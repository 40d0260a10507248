"""Ablation: FR-state granularity (per-row vs per-bank).

PaCRAM's tracking granularity is a design choice: the controller-side
PaCRAM keeps one bit per *row* (8 KB SRAM per bank); the §8.5 mode-register
variant can only see per *bank*.  Self-Managing DRAM keeps per-row state
inside the chip at zero controller cost, running PaCRAM's own policy
on-die, so its row is the controller's.

What granularity buys: per-row tracking guarantees every row's first
preventive refresh in a t_FCRI interval uses full restoration (the §8.3
safety argument).  Bank-granular tracking only fully restores one proxy
refresh per bank per interval — it is *faster* (more refreshes run at the
reduced latency) but under-restores scattered victims, which is exactly why
§8.5 positions Self-Managing DRAM (per-row state on-die) as the clean
integration.
"""

from bench_util import run_once, save_result

from repro.core.config import PaCRAMConfig
from repro.core.ondie import OnDiePaCRAM
from repro.core.pacram import PaCRAM
from repro.mitigations import make_mitigation
from repro.sim.config import SystemConfig
from repro.sim.system import MemorySystem
from repro.workloads.suites import workload_by_name

#: A short-t_FCRI operating point so the F/P machinery is exercised (the
#: catalog reference points have t_FCRI >> tREFW and degenerate to
#: all-partial, hiding the granularity difference).
ABLATION_CONFIG = PaCRAMConfig(
    module_id="S6", tras_factor=0.45, nrh_reduction_ratio=0.9,
    nrh_reduced=6_200, npcr=2, tfcri_ns=20_000.0)


def _run(policy_cls):
    config = SystemConfig(num_cores=1)
    policy = policy_cls(config, ABLATION_CONFIG)
    trace = workload_by_name("ycsb.a", requests=4_000)
    mitigation = make_mitigation("PARA", ABLATION_CONFIG.scaled_nrh(64))
    result = MemorySystem(config, [trace], mitigation=mitigation,
                          policy=policy).run()
    stats = result.controller_stats
    total = stats.preventive_refresh_full + stats.preventive_refresh_partial
    return {
        "ipc": result.mean_ipc,
        "full": stats.preventive_refresh_full,
        "partial": stats.preventive_refresh_partial,
        "full_fraction": stats.preventive_refresh_full / total if total else 0.0,
    }


def _collect():
    return {
        "per-row (controller)": _run(PaCRAM),
        "per-bank (mode register)": _run(OnDiePaCRAM),
    }


def bench_ablation_fr_granularity(benchmark):
    data = run_once(benchmark, _collect)
    lines = []
    for label, metrics in data.items():
        lines.append(f"{label}: ipc={metrics['ipc']:.4f} "
                     f"full={metrics['full']} partial={metrics['partial']} "
                     f"full_fraction={metrics['full_fraction']:.3f}")
    save_result("ablation_fr_granularity", "\n".join(lines))
    controller = data["per-row (controller)"]
    bank = data["per-bank (mode register)"]
    # Bank-granular tracking under-restores: it runs faster but issues far
    # fewer full-latency refreshes than the per-row safety bound requires.
    assert bank["full_fraction"] < controller["full_fraction"]
    assert bank["ipc"] >= controller["ipc"]

"""Integration tests for the paper's artifact claims (Appendix A.5).

C1.1 — reduced tRAS either leaves RowHammer vulnerability unchanged or
        worsens it (lower N_RH, higher BER); beyond a safe minimum it causes
        data-retention failures (Figs. 6, 9).
C1.2 — repeated partial charge restoration can cause retention failures, so
        reduced latency is not safe for *all* refreshes (Fig. 11).
C2.1 — PaCRAM improves system performance for single-core and
        multiprogrammed workloads (Figs. 16, 17).
C2.2 — PaCRAM improves energy efficiency (Fig. 18).
"""

import pytest

from repro.analysis.runner import pacram_reference_config, run_simulation
from repro.characterization.sweeps import characterize_module
from repro.sim.config import SystemConfig
from repro.sim.stats import weighted_speedup
from repro.workloads.suites import multicore_mixes

WORKLOADS = ("spec06.mcf", "ycsb.a", "spec06.lbm")
REQUESTS = 2_500


@pytest.fixture(scope="module")
def s6_characterization():
    return characterize_module(
        "S6", tras_factors=(1.0, 0.64, 0.45, 0.36, 0.27, 0.18),
        per_region=16)


class TestClaim11:
    def test_nrh_never_improves_under_reduction(self, s6_characterization):
        nominal = s6_characterization.lowest_nrh(1.0)
        for factor in (0.64, 0.45, 0.36, 0.27):
            reduced = s6_characterization.lowest_nrh(factor)
            assert reduced <= nominal * 1.05, factor

    def test_nrh_degrades_monotonically_for_s(self, s6_characterization):
        lows = [s6_characterization.lowest_nrh(f)
                for f in (0.64, 0.45, 0.36, 0.27)]
        assert all(a >= b for a, b in zip(lows, lows[1:]))

    def test_ber_grows_under_reduction(self, s6_characterization):
        nominal = [r for _, r in s6_characterization.normalized("ber", 1.0)]
        reduced = [r for _, r in s6_characterization.normalized("ber", 0.27)]
        assert sum(reduced) / len(reduced) > sum(nominal) / len(nominal)

    def test_retention_failures_beyond_safe_minimum(self, s6_characterization):
        assert s6_characterization.lowest_nrh(0.18) == 0


class TestClaim12:
    def test_repeated_partial_restoration_unsafe(self):
        result = characterize_module(
            "S6", tras_factors=(0.27,), n_prs=(1, 2), per_region=12)
        assert result.lowest_nrh(0.27, 1) > 0
        assert result.lowest_nrh(0.27, 2) == 0


class TestClaim21Performance:
    @pytest.mark.parametrize("mitigation", ["PARA", "RFM"])
    def test_single_core_speedup_high_overhead_mitigations(self, mitigation):
        pacram = pacram_reference_config("H")
        improvements = []
        for name in WORKLOADS:
            base = run_simulation((name,), mitigation=mitigation, nrh=64,
                                  requests=REQUESTS)
            with_pacram = run_simulation((name,), mitigation=mitigation,
                                         nrh=64, pacram=pacram,
                                         requests=REQUESTS)
            improvements.append(with_pacram.mean_ipc / base.mean_ipc)
        assert sum(improvements) / len(improvements) > 1.0

    def test_multicore_weighted_speedup(self):
        mix = multicore_mixes(1)[0]
        config = SystemConfig(num_cores=4)
        pacram = pacram_reference_config("H")
        base = run_simulation(mix, mitigation="RFM", nrh=64,
                              requests=REQUESTS, config=config)
        with_pacram = run_simulation(mix, mitigation="RFM", nrh=64,
                                     pacram=pacram, requests=REQUESTS,
                                     config=config)
        ws = weighted_speedup(with_pacram.ipc, base.ipc)
        assert ws > len(mix) * 0.999

    def test_gains_grow_as_nrh_shrinks(self):
        # Fig. 17 obs. 2: PaCRAM helps more at lower N_RH.
        pacram = pacram_reference_config("H")
        gains = {}
        for nrh in (1024, 32):
            base = run_simulation(("spec06.mcf",), mitigation="RFM",
                                  nrh=nrh, requests=REQUESTS)
            fast = run_simulation(("spec06.mcf",), mitigation="RFM",
                                  nrh=nrh, pacram=pacram, requests=REQUESTS)
            gains[nrh] = fast.mean_ipc / base.mean_ipc
        assert gains[32] > gains[1024]

    def test_preventive_time_reduced(self):
        pacram = pacram_reference_config("H")
        base = run_simulation(("ycsb.a",), mitigation="PARA", nrh=32,
                              requests=REQUESTS)
        fast = run_simulation(("ycsb.a",), mitigation="PARA", nrh=32,
                              pacram=pacram, requests=REQUESTS)
        assert fast.preventive_busy_fraction < base.preventive_busy_fraction


class TestClaim22Energy:
    @pytest.mark.parametrize("vendor", ["H", "M"])
    def test_energy_reduced_with_pacram(self, vendor):
        pacram = pacram_reference_config(vendor)
        savings = []
        for name in WORKLOADS:
            base = run_simulation((name,), mitigation="PARA", nrh=32,
                                  requests=REQUESTS)
            fast = run_simulation((name,), mitigation="PARA", nrh=32,
                                  pacram=pacram, requests=REQUESTS)
            savings.append(fast.energy_nj / base.energy_nj)
        assert sum(savings) / len(savings) < 1.0

    def test_energy_grows_as_nrh_shrinks(self):
        # Fig. 18 obs. 3: all configurations consume more at lower N_RH.
        low = run_simulation(("spec06.mcf",), mitigation="RFM", nrh=1024,
                             requests=REQUESTS)
        high = run_simulation(("spec06.mcf",), mitigation="RFM", nrh=32,
                              requests=REQUESTS)
        assert high.energy_nj > low.energy_nj


class TestMitigationOrdering:
    def test_fig3_overhead_ordering(self):
        # Fig. 3: RFM and PARA spend the most time on preventive refreshes;
        # Graphene and Hydra the least.
        fractions = {}
        for mitigation in ("PARA", "RFM", "Hydra", "Graphene"):
            result = run_simulation(("ycsb.a",), mitigation=mitigation,
                                    nrh=64, requests=REQUESTS)
            fractions[mitigation] = result.preventive_busy_fraction
        assert fractions["RFM"] >= fractions["PARA"]
        assert fractions["PARA"] >= fractions["Graphene"]
        assert fractions["RFM"] > fractions["Hydra"]

    def test_overheads_grow_as_nrh_shrinks(self):
        for mitigation in ("PARA", "RFM"):
            low = run_simulation(("ycsb.a",), mitigation=mitigation,
                                 nrh=1024, requests=REQUESTS)
            high = run_simulation(("ycsb.a",), mitigation=mitigation,
                                  nrh=32, requests=REQUESTS)
            assert (high.preventive_busy_fraction
                    > low.preventive_busy_fraction)

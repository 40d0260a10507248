"""Deterministic fault-injection scenarios for the validation harness.

Each :class:`FaultScenario` injects one concrete fault into a real
simulation or persistence path — a controller that drops or delays
preventive refreshes, a mitigation that skips victims, flipped bits in
stored results, corrupted SPD/config records, silently edited vendor
calibration — and asserts that the corresponding defense layer *detects*
it (:class:`~repro.validation.checker.ProtocolChecker` rule, digest check,
checksum, or schema error), or that PaCRAM's published margins *provably
absorb* it.  All scenarios derive their randomness from the campaign seed
via :func:`repro.rng.derive_seed`, so a matrix run is bit-reproducible.

Faults are injected through public seams only: instance-attribute method
patching on one :class:`~repro.sim.controller.MemoryController` (the
simulator equivalent of a fault-injection probe on one device under test),
mechanism/policy subclassing, and byte-level edits of persisted artifacts.
Nothing global is mutated except the vendor-profile drift scenario, which
restores the profile table in a ``finally`` block.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.sweeprunner import SweepGrid, SweepRow, load_row, row_digest
from repro.core.config import PaCRAMConfig
from repro.core.pacram import PaCRAM
from repro.core.spd import SpdRecord
from repro.dram import vendor
from repro.dram.catalog import module_spec
from repro.dram.charge import ChargeModel
from repro.errors import CharacterizationError, ConfigError, SimulationError
from repro.mitigations import make_mitigation
from repro.mitigations.base import PreventiveRefresh
from repro.mitigations.graphene import Graphene
from repro.rng import derive_seed
from repro.sim.config import SystemConfig
from repro.sim.controller import MemoryController, RefreshLatencyPolicy
from repro.sim.system import MemorySystem
from repro.validation.checker import ProtocolChecker
from repro.workloads.attack import double_sided_trace

#: A fault the harness must flag (checker violation, digest/checksum/schema
#: error) — anything else is a coverage hole.
DETECTED = "detected"
#: A fault the system is *designed* to tolerate (inside PaCRAM's N_PCR /
#: t_FCRI margins); the scenario proves the margin holds.
ABSORBED = "absorbed"
#: The fault went unnoticed — the matrix fails.
MISSED = "missed"


@dataclass(frozen=True)
class FaultResult:
    """Outcome of one injected fault."""

    fault: str
    expected: str  #: DETECTED or ABSORBED
    status: str  #: DETECTED, ABSORBED, or MISSED
    evidence: str

    @property
    def ok(self) -> bool:
        return self.status == self.expected

    def to_json(self) -> dict:
        return {"fault": self.fault, "expected": self.expected,
                "status": self.status, "ok": self.ok,
                "evidence": self.evidence}


class FaultScenario:
    """One injectable fault plus the assertion about its coverage."""

    name: str = "abstract"
    expected: str = DETECTED
    description: str = ""

    def run(self, workdir: Path, seed: int) -> FaultResult:
        raise NotImplementedError

    def _result(self, status: str, evidence: str) -> FaultResult:
        return FaultResult(self.name, self.expected, status, evidence)

    def _checked(self, condition: bool, evidence: str) -> FaultResult:
        """DETECTED iff ``condition``; the common case."""
        return self._result(DETECTED if condition else MISSED, evidence)


def _attack_checker(*, mitigation, policy=None, hammers=1_500,
                    patch=None) -> ProtocolChecker:
    """Run a double-sided hammer attack under a tolerant checker.

    ``patch`` receives the live :class:`MemoryController` before the run —
    the fault-injection probe point.
    """
    config = SystemConfig(num_cores=1)
    trace = double_sided_trace(config, hammers=hammers)
    limit = policy.partial_restoration_limit() if policy is not None else None
    checker = ProtocolChecker(config, mode="tolerant",
                              partial_limit=limit, mitigation=mitigation)
    system = MemorySystem(config, [trace], mitigation=mitigation,
                          policy=policy, observer=checker)
    if patch is not None:
        patch(system.controller)
    system.run()
    return checker


def _rule_evidence(checker: ProtocolChecker, rule: str) -> str:
    count = checker.by_rule().get(rule, 0)
    return f"{count}x {rule} among {checker.violation_count} violation(s)"


# ----------------------------------------------------------------------
# Mitigation-path faults (caught by the protocol checker)
# ----------------------------------------------------------------------
class DroppedPreventiveRefresh(FaultScenario):
    name = "dropped-preventive-refresh"
    description = ("controller silently discards every preventive refresh "
                   "the mitigation requests")

    def run(self, workdir: Path, seed: int) -> FaultResult:
        def patch(controller: MemoryController) -> None:
            controller._do_preventive_refresh = lambda action: None

        checker = _attack_checker(
            mitigation=make_mitigation("Graphene", nrh=128), patch=patch)
        return self._checked(
            checker.by_rule().get("mitigation.dropped-refresh", 0) > 0,
            _rule_evidence(checker, "mitigation.dropped-refresh"))


class LatePreventiveRefresh(FaultScenario):
    name = "late-preventive-refresh"
    description = ("preventive refreshes execute 5 us after they were "
                   "requested (a stalled refresh queue)")

    def run(self, workdir: Path, seed: int) -> FaultResult:
        def patch(controller: MemoryController) -> None:
            original = controller._do_preventive_refresh

            def late(action: PreventiveRefresh) -> None:
                bank = controller.banks[action.flat_bank]
                bank.block_until(
                    max(bank.ready_ns, controller.now_ns) + 5_000.0)
                original(action)

            controller._do_preventive_refresh = late

        checker = _attack_checker(
            mitigation=make_mitigation("Graphene", nrh=128), patch=patch)
        return self._checked(
            checker.by_rule().get("mitigation.late-refresh", 0) > 0,
            _rule_evidence(checker, "mitigation.late-refresh"))


class _VictimSkippingGraphene(Graphene):
    """Graphene whose refreshes only ever cover the +2 neighbor."""

    def on_activation(self, flat_bank: int, row: int, now_ns: float):
        actions = super().on_activation(flat_bank, row, now_ns)
        return [PreventiveRefresh(a.flat_bank, a.aggressor_row,
                                  victim_offsets=(2,))
                if isinstance(a, PreventiveRefresh) else a
                for a in actions]


class VictimSkippingMitigation(FaultScenario):
    name = "victim-skipping-mitigation"
    description = ("a deterministic-coverage mitigation refreshes the wrong "
                   "neighbors, leaving the +/-1 victims unprotected")

    def run(self, workdir: Path, seed: int) -> FaultResult:
        checker = _attack_checker(mitigation=_VictimSkippingGraphene(nrh=64))
        return self._checked(
            checker.by_rule().get("mitigation.unprotected-victim", 0) > 0,
            _rule_evidence(checker, "mitigation.unprotected-victim"))


class DroppedPeriodicRefresh(FaultScenario):
    name = "dropped-periodic-refresh"
    description = "every 4th all-bank REF command is silently skipped"

    def run(self, workdir: Path, seed: int) -> FaultResult:
        def patch(controller: MemoryController) -> None:
            original = controller._apply_one_refresh
            state = {"n": 0}

            def flaky(rank_index, rank, start):
                state["n"] += 1
                if state["n"] % 4 == 0:
                    return  # the REF is lost; next_refresh_ns still advances
                original(rank_index, rank, start)

            controller._apply_one_refresh = flaky

        checker = _attack_checker(
            mitigation=make_mitigation("None", nrh=1024), patch=patch)
        return self._checked(
            checker.by_rule().get("ref.cadence", 0) > 0,
            _rule_evidence(checker, "ref.cadence"))


class LatePeriodicRefresh(FaultScenario):
    name = "late-periodic-refresh"
    description = "every 8th all-bank REF arrives 0.75 tREFI late"

    def run(self, workdir: Path, seed: int) -> FaultResult:
        def patch(controller: MemoryController) -> None:
            original = controller._apply_one_refresh
            shift = 0.75 * controller.timing.tREFI
            state = {"n": 0}

            def tardy(rank_index, rank, start):
                state["n"] += 1
                original(rank_index, rank,
                         start + shift if state["n"] % 8 == 0 else start)

            controller._apply_one_refresh = tardy

        checker = _attack_checker(
            mitigation=make_mitigation("None", nrh=1024), patch=patch)
        return self._checked(
            checker.by_rule().get("ref.cadence", 0) > 0,
            _rule_evidence(checker, "ref.cadence"))


class UnexpectedPartialRestoration(FaultScenario):
    name = "unexpected-partial-restoration"
    description = ("a nominal-latency policy starts issuing partial "
                   "restorations without PaCRAM being configured")

    class _RoguePolicy(RefreshLatencyPolicy):
        def preventive_tras_ns(self, flat_bank, row, now_ns):
            return 0.5 * self.config.timing.tRAS, False

    def run(self, workdir: Path, seed: int) -> FaultResult:
        config = SystemConfig(num_cores=1)
        checker = _attack_checker(
            mitigation=make_mitigation("Graphene", nrh=128),
            policy=self._RoguePolicy(config))
        return self._checked(
            checker.by_rule().get("refresh.unexpected-partial", 0) > 0,
            _rule_evidence(checker, "refresh.unexpected-partial"))


class PartialRestorationBurst(FaultScenario):
    """The one deliberately *absorbed* fault: a hammer-driven burst of
    partial restorations stays inside PaCRAM's N_PCR / t_FCRI envelope, so
    a correct checker must stay silent (§8.3's safety argument)."""

    name = "partial-restoration-burst"
    expected = ABSORBED
    description = ("sustained double-sided hammering under PaCRAM produces "
                   "partial-restoration streaks bounded by N_PCR")

    def run(self, workdir: Path, seed: int) -> FaultResult:
        config = SystemConfig(num_cores=1)
        pacram = PaCRAMConfig(module_id="H5", tras_factor=0.45,
                              nrh_reduction_ratio=1.0, nrh_reduced=64,
                              npcr=200, tfcri_ns=50_000.0)
        policy = PaCRAM(config, pacram)
        checker = _attack_checker(
            mitigation=make_mitigation("Graphene", nrh=64), policy=policy)
        evidence = (f"max partial streak {checker.max_partial_streak} <= "
                    f"N_PCR {pacram.npcr}; "
                    f"{checker.violation_count} violation(s)")
        return self._result(
            ABSORBED if checker.violation_count == 0 else MISSED, evidence)


# ----------------------------------------------------------------------
# Persistence / calibration faults (caught by checksums and digests)
# ----------------------------------------------------------------------
class CorruptSpdRecord(FaultScenario):
    name = "corrupt-spd-record"
    description = "one flipped bit in a persisted SPD EEPROM image"

    def run(self, workdir: Path, seed: int) -> FaultResult:
        blob = bytearray(SpdRecord.from_catalog("H5").encode())
        index = derive_seed(seed, "spd-byte") % len(blob)
        blob[index] ^= 0x40
        try:
            SpdRecord.decode(bytes(blob))
        except ConfigError as error:
            return self._result(
                DETECTED, f"byte {index} flip rejected: {error}")
        return self._result(MISSED, f"byte {index} flip decoded cleanly")


class TypoedConfigKey(FaultScenario):
    name = "typoed-config-key"
    description = "an evaluation config with a misspelled knob name"

    def run(self, workdir: Path, seed: int) -> FaultResult:
        path = workdir / "eval.json"
        path.write_text(json.dumps({"mitigations": ["PARA"],
                                    "nrh_valeus": [1024, 64]}))
        try:
            SweepGrid.from_file(path)
        except ConfigError as error:
            suggested = "did you mean" in str(error)
            return self._checked(
                suggested, f"rejected with suggestion: {error}")
        return self._result(MISSED, "typo'd key silently ignored")


class SweepRowBitflip(FaultScenario):
    name = "sweep-row-bitflip"
    description = ("a flipped digit inside a persisted sweep row that still "
                   "parses as valid JSON")

    def run(self, workdir: Path, seed: int) -> FaultResult:
        row = SweepRow(
            key="probe", mitigation="Graphene", nrh=64, pacram_vendor=None,
            workloads=("spec06.mcf",), mean_ipc=1.234567, energy_nj=10.0,
            preventive_busy_fraction=0.01, preventive_refresh_rows=42)
        payload = dataclasses.asdict(row)
        payload["digest"] = row_digest(payload)
        text = json.dumps(payload, indent=1)
        mutated = text.replace("1.234567", "1.237567", 1)
        if mutated == text:
            return self._result(MISSED, "mutation target not found")
        path = workdir / "probe.json"
        path.write_text(mutated)
        try:
            load_row(path)
        except SimulationError as error:
            return self._result(DETECTED, f"digest check: {error}")
        return self._result(MISSED, "bit-flipped statistic loaded cleanly")


class VendorProfileDrift(FaultScenario):
    name = "vendor-profile-drift"
    description = ("vendor calibration changes between a campaign run and "
                   "its resume")

    def run(self, workdir: Path, seed: int) -> FaultResult:
        from repro.characterization.campaign import _load_checked
        from repro.characterization.sweeps import characterize_module
        result = characterize_module(
            "H5", rows=(500,), tras_factors=(0.45,),
            seed=derive_seed(seed, "drift-campaign") % (2 ** 31))
        path = workdir / "H5.json"
        result.save(path)
        manufacturer = vendor.Manufacturer.H
        original = vendor._PROFILES[manufacturer]
        vendor._PROFILES[manufacturer] = dataclasses.replace(
            original, temperature_nrh_sensitivity=(
                original.temperature_nrh_sensitivity * 1.5))
        try:
            _load_checked(path)
        except CharacterizationError as error:
            return self._result(DETECTED, f"model digest: {error}")
        finally:
            vendor._PROFILES[manufacturer] = original
        return self._result(MISSED, "drifted profile loaded cleanly")


class ChargeAnchorCorruption(FaultScenario):
    name = "charge-anchor-corruption"
    description = ("an out-of-range restoration-margin anchor edited into "
                   "the charge model")

    def run(self, workdir: Path, seed: int) -> FaultResult:
        model = ChargeModel(module_spec("H5"))
        # Copy before poisoning: the original dict is the shared
        # module-level calibration table.
        model._margin_anchors = {**model._margin_anchors, 0.45: 1.3}
        problems = model.check_invariants()
        return self._checked(
            len(problems) > 0,
            f"{len(problems)} invariant problem(s); "
            f"first: {problems[0] if problems else 'none'}")


#: Every scenario the matrix runs, in a stable order.
ALL_FAULTS: tuple[FaultScenario, ...] = (
    DroppedPreventiveRefresh(),
    LatePreventiveRefresh(),
    VictimSkippingMitigation(),
    DroppedPeriodicRefresh(),
    LatePeriodicRefresh(),
    UnexpectedPartialRestoration(),
    PartialRestorationBurst(),
    CorruptSpdRecord(),
    TypoedConfigKey(),
    SweepRowBitflip(),
    VendorProfileDrift(),
    ChargeAnchorCorruption(),
)

"""Tests for the runtime DDR protocol checker."""

import json

import pytest

from repro.errors import ConfigError, ProtocolViolation
from repro.mitigations import make_mitigation
from repro.sim.config import SystemConfig
from repro.sim.system import MemorySystem
from repro.validation import ProtocolChecker, make_checker
from repro.workloads.attack import double_sided_trace

CONFIG = SystemConfig(num_cores=1)


def _run_attack(checker, *, mitigation=None, hammers=400):
    mechanism = mitigation or make_mitigation("Graphene", nrh=128)
    trace = double_sided_trace(CONFIG, hammers=hammers)
    system = MemorySystem(CONFIG, [trace], mitigation=mechanism,
                          observer=checker)
    system.run("scalar")
    return checker


def _dropping_attack(checker, hammers=400):
    """An attack whose controller silently drops preventive refreshes."""
    mechanism = make_mitigation("Graphene", nrh=128)
    trace = double_sided_trace(CONFIG, hammers=hammers)
    system = MemorySystem(CONFIG, [trace], mitigation=mechanism,
                          observer=checker)
    system.controller._do_preventive_refresh = lambda action: None
    system.run("scalar")
    return checker


class TestMakeChecker:
    def test_off_is_none(self):
        assert make_checker(CONFIG, mode="off") is None

    def test_tolerant_and_strict_build(self):
        assert isinstance(make_checker(CONFIG, mode="tolerant"),
                          ProtocolChecker)
        assert isinstance(make_checker(CONFIG, mode="strict"),
                          ProtocolChecker)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            make_checker(CONFIG, mode="paranoid")


class TestCleanRuns:
    def test_clean_attack_run_has_no_violations(self):
        checker = _run_attack(ProtocolChecker(
            CONFIG, mode="tolerant",
            mitigation=make_mitigation("Graphene", nrh=128)))
        assert checker.violation_count == 0
        assert checker.by_rule() == {}


class TestViolations:
    def test_dropped_refreshes_detected_tolerant(self):
        checker = _dropping_attack(ProtocolChecker(
            CONFIG, mode="tolerant",
            mitigation=make_mitigation("Graphene", nrh=128)))
        assert checker.by_rule().get("mitigation.dropped-refresh", 0) > 0

    def test_strict_mode_raises(self):
        checker = ProtocolChecker(
            CONFIG, mode="strict",
            mitigation=make_mitigation("Graphene", nrh=128))
        with pytest.raises(ProtocolViolation) as excinfo:
            _dropping_attack(checker)
        assert excinfo.value.rule
        assert excinfo.value.time_ns >= 0.0

    def test_max_violations_overflow_counted(self):
        checker = _dropping_attack(ProtocolChecker(
            CONFIG, mode="tolerant",
            mitigation=make_mitigation("Graphene", nrh=128),
            max_violations=3))
        assert len(checker.violations) == 3
        assert checker.overflowed_violations > 0
        assert checker.violation_count == 3 + checker.overflowed_violations

    def test_violation_json_fields(self):
        checker = _dropping_attack(ProtocolChecker(
            CONFIG, mode="tolerant",
            mitigation=make_mitigation("Graphene", nrh=128)))
        payload = checker.violations[0].to_json()
        assert set(payload) == {"rule", "time_ns", "message"}


class TestLedger:
    def test_write_ledger_round_trips(self, tmp_path, monkeypatch):
        """A sweep point's ``<key>.violations.jsonl``, beside its row,
        holds exactly the checker's violations, and the row counts them."""
        from repro.analysis import sweeprunner

        checker = _dropping_attack(ProtocolChecker(
            CONFIG, mode="tolerant",
            mitigation=make_mitigation("Graphene", nrh=128)))
        simulate = sweeprunner.run_simulation

        def violating(*args, **kwargs):
            result = simulate(*args, **kwargs)
            result.protocol_violations = list(checker.violations)
            return result

        monkeypatch.setattr(sweeprunner, "run_simulation", violating)
        point = sweeprunner.SweepPoint("PARA", 64, None, ("spec06.mcf",))
        row = tmp_path / f"{point.key}.json"
        sweeprunner._simulate_to(point, 300, str(row), "tolerant", "scalar",
                                 str(tmp_path / "baseline_cache"))
        lines = sweeprunner.violations_path(row).read_text().splitlines()
        assert json.loads(row.read_text())["violations"] == len(lines) \
            == len(checker.violations)
        parsed = [json.loads(line) for line in lines]
        assert parsed == [v.to_json() for v in checker.violations]

    def test_same_seed_identical_ledgers(self):
        """The whole pipeline is deterministic: two identical runs produce
        byte-identical violation ledgers."""
        ledgers = []
        for _ in range(2):
            checker = _dropping_attack(ProtocolChecker(
                CONFIG, mode="tolerant",
                mitigation=make_mitigation("Graphene", nrh=128)))
            ledgers.append([v.to_json() for v in checker.violations])
        assert ledgers[0] == ledgers[1]
        assert ledgers[0]  # the comparison is not vacuous

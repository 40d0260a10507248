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

    def test_summary_shape(self):
        checker = _run_attack(ProtocolChecker(CONFIG, mode="tolerant"))
        summary = checker.summary()
        assert summary["violations"] == checker.violation_count


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
    def test_write_ledger_round_trips(self, tmp_path):
        checker = _dropping_attack(ProtocolChecker(
            CONFIG, mode="tolerant",
            mitigation=make_mitigation("Graphene", nrh=128)))
        path = tmp_path / "violations.jsonl"
        written = checker.write_ledger(path)
        lines = path.read_text().splitlines()
        assert written == len(lines) == len(checker.violations)
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

"""Tests for characterization result containers."""

import json
from dataclasses import asdict

import pytest

from repro.characterization.results import (
    ModuleCharacterization,
    RowMeasurement,
)
from repro.errors import CharacterizationError


def measurement(bank=0, row=10, factor=1.0, n_pr=1, temp=80.0,
                nrh=8000, ber=0.001) -> RowMeasurement:
    return RowMeasurement(bank=bank, row=row, tras_factor=factor, n_pr=n_pr,
                          temperature_c=temp, wcdp="RS", nrh=nrh, ber=ber)


class TestRowMeasurement:
    def test_vulnerable(self):
        assert measurement(nrh=5000).vulnerable()
        assert not measurement(nrh=0).vulnerable()
        assert not measurement(nrh=None).vulnerable()

    def test_retention_failed(self):
        assert measurement(nrh=0).retention_failed()
        assert not measurement(nrh=5000).retention_failed()
        assert not measurement(nrh=None).retention_failed()


class TestModuleCharacterization:
    def test_at_filters(self):
        result = ModuleCharacterization("S6", seed=1)
        result.add(measurement(row=1, factor=1.0))
        result.add(measurement(row=1, factor=0.36))
        result.add(measurement(row=2, factor=0.36, n_pr=8))
        assert len(result.at(tras_factor=0.36)) == 2
        assert len(result.at(tras_factor=0.36, n_pr=8)) == 1

    def test_lowest_nrh(self):
        result = ModuleCharacterization("S6", seed=1)
        result.add(measurement(row=1, nrh=9000))
        result.add(measurement(row=2, nrh=7800))
        assert result.lowest_nrh(1.0) == 7800

    def test_lowest_nrh_retention_dominates(self):
        result = ModuleCharacterization("S6", seed=1)
        result.add(measurement(row=1, nrh=9000))
        result.add(measurement(row=2, nrh=0))
        assert result.lowest_nrh(1.0) == 0

    def test_lowest_nrh_all_invulnerable(self):
        result = ModuleCharacterization("H0", seed=1)
        result.add(measurement(row=1, nrh=None))
        assert result.lowest_nrh(1.0) is None

    def test_lowest_nrh_missing_point_raises(self):
        result = ModuleCharacterization("S6", seed=1)
        with pytest.raises(CharacterizationError):
            result.lowest_nrh(0.45)

    def test_normalized_nrh(self):
        result = ModuleCharacterization("S6", seed=1)
        result.add(measurement(row=1, factor=1.0, nrh=10_000))
        result.add(measurement(row=1, factor=0.36, nrh=8_000))
        values = result.normalized_nrh(0.36)
        assert values == [pytest.approx(0.8)]

    def test_normalized_ber(self):
        result = ModuleCharacterization("S6", seed=1)
        result.add(measurement(row=1, factor=1.0, ber=0.001))
        result.add(measurement(row=1, factor=0.36, ber=0.004))
        assert result.normalized_ber(0.36) == [pytest.approx(4.0)]

    def test_json_round_trip(self, tmp_path):
        result = ModuleCharacterization("S6", seed=42)
        result.add(measurement(row=1, nrh=None))
        result.add(measurement(row=2, factor=0.36, nrh=0, ber=0.5))
        path = tmp_path / "s6.json"
        result.save(path)
        loaded = ModuleCharacterization.load(path)
        assert loaded.module_id == "S6"
        assert loaded.seed == 42
        assert loaded.measurements == result.measurements

    def test_to_json_bytes_match_the_asdict_encoding(self):
        """``to_json`` emits exactly the plain ``asdict`` encoding, so
        persisted results (and digests pinned on them) never change."""
        result = ModuleCharacterization("H0", seed=7, model_digest=None)
        result.add(measurement(row=1, nrh=None, ber=0.0))
        result.add(measurement(row=2, factor=0.36, nrh=0, ber=0.5))
        result.add(measurement(row=3, factor=0.18, n_pr=20, temp=50.0,
                               nrh=1234, ber=3.0517578125e-09))
        expected = json.dumps({
            "module_id": "H0",
            "seed": 7,
            "model_digest": None,
            "measurements": [asdict(m) for m in result.measurements],
        }, indent=1)
        assert result.to_json() == expected
        assert ModuleCharacterization.from_json(expected).measurements \
            == result.measurements

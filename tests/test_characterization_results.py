"""Tests for characterization result containers."""

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.characterization import results
from repro.characterization.results import (
    ModuleCharacterization,
    RowMeasurement,
)
from repro.errors import CharacterizationError
from repro.exec.parity import parity_diff


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

    def test_parity_diff_names_the_field(self):
        base = measurement()
        assert parity_diff(base, base._replace(nrh=1, ber=-0.0)) == [
            "result.nrh: 8000 != 1", "result.ber: 0.001 != -0.0"]


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
        assert result.normalized("nrh", 0.36) == [(10_000, 0.8)]
        # A row without bitflips at the point counts as 0; one without a
        # vulnerable nominal measurement is left out.
        result.add(measurement(row=2, factor=1.0, nrh=5_000))
        result.add(measurement(row=2, factor=0.36, nrh=None))
        result.add(measurement(row=3, factor=1.0, nrh=None))
        result.add(measurement(row=3, factor=0.36, nrh=4_000))
        assert result.normalized("nrh", 0.36) == [(10_000, 0.8), (5_000, 0.0)]

    def test_normalized_ber(self):
        result = ModuleCharacterization("S6", seed=1)
        result.add(measurement(row=1, factor=1.0, ber=0.001))
        result.add(measurement(row=1, factor=0.36, ber=0.004))
        assert result.normalized("ber", 0.36) == [(0.001, 4.0)]

    def test_normalized_at_a_temperature(self):
        result = ModuleCharacterization("S6", seed=1)
        for temperature, nominal in ((50.0, 10_000), (80.0, 8_000)):
            result.add(measurement(row=1, factor=1.0, nrh=nominal,
                                   temp=temperature))
            result.add(measurement(row=1, factor=0.36, nrh=4_000,
                                   temp=temperature))
        assert result.normalized("nrh", 0.36, temperature_c=50.0) == \
            [(10_000, 0.4)]
        assert result.normalized("nrh", 0.36, temperature_c=80.0) == \
            [(8_000, 0.5)]

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
        assert all(type(m) is RowMeasurement for m in loaded.measurements)

    def test_to_json_bytes_match_the_asdict_encoding(self):
        """``to_json`` emits exactly the plain field-dict encoding, so
        persisted results (and digests pinned on them) never change."""
        result = ModuleCharacterization("H0", seed=7, model_digest=None)
        result.add(measurement(row=1, nrh=None, ber=0.0))
        result.add(measurement(row=2, factor=0.36, nrh=0, ber=0.5))
        result.add(measurement(row=3, factor=0.18, n_pr=20, temp=50.0,
                               nrh=1234, ber=3.0517578125e-09))
        expected = plain_encoding(result)
        assert result.to_json() == expected
        assert ModuleCharacterization.from_json(expected).measurements \
            == result.measurements


def plain_encoding(result: ModuleCharacterization) -> str:
    """The pure-Python encoder's bytes for ``result``."""
    return json.dumps({
        "module_id": result.module_id,
        "seed": result.seed,
        "model_digest": result.model_digest,
        "measurements": [m._asdict() for m in result.measurements],
    }, indent=1)


#: Strings that could confuse a splice of the encoder's output: quotes,
#: backslashes, control characters, non-ASCII, format directives and the
#: separators themselves as text.
_AWKWARD = ['"', "\\", "\x00\x1f\x7f", "\n", "é", "\u2028", "\U0001f600",
            "%s", "%", "},\n   {", "],\n   [", ",\n   ", "[]\n}"]
_TEXT = st.one_of(st.sampled_from(_AWKWARD), st.text(max_size=12))
_FLOATS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0,
                     5e-324, 2.2250738585072e-308, sys.float_info.max,
                     1e16, 0.1]),
    st.floats(allow_nan=True, allow_infinity=True))
_INTS = st.one_of(st.sampled_from([0, -1, 2 ** 63, 2 ** 70, -(2 ** 70)]),
                  st.integers())
_MEASUREMENTS = st.builds(
    RowMeasurement, bank=_INTS, row=_INTS, tras_factor=_FLOATS, n_pr=_INTS,
    temperature_c=_FLOATS, wcdp=_TEXT, nrh=st.one_of(st.none(), _INTS),
    ber=_FLOATS)
_RESULTS = st.builds(
    ModuleCharacterization, module_id=_TEXT, seed=_INTS,
    measurements=st.lists(_MEASUREMENTS, max_size=6),
    model_digest=st.one_of(st.none(), _TEXT))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_RESULTS)
def test_to_json_is_the_pure_python_encoding(result):
    text = result.to_json()
    assert text == plain_encoding(result)
    assert ModuleCharacterization.from_json(text).to_json() == text


def _swap_bank_and_row(raw: dict) -> None:
    """The same keys and value types, with ``row`` before ``bank``."""
    items = list(raw.items())
    items[0], items[1] = items[1], items[0]
    raw.clear()
    raw.update(items)


class TestTypedLoad:
    """``from_json`` refuses a measurement the writer would not write."""

    def test_field_types_follow_the_fields(self):
        assert tuple(results._FIELD_TYPES) == RowMeasurement._fields

    @pytest.mark.parametrize("edit", [
        {"nrh": "7"},
        {"ber": None},
        {"nrh": True},
        {"bank": False},
        {"row": 3.0},
        {"tras_factor": 1},
        {"wcdp": 5},
        {"n_pr": [1]},
    ], ids=repr)
    def test_a_wrong_type_is_refused(self, edit):
        text = self._edited(lambda raw: raw.update(edit))
        name = next(iter(edit))
        with pytest.raises(CharacterizationError,
                           match=f"measurement 1: {name} is"):
            ModuleCharacterization.from_json(text)

    @pytest.mark.parametrize("edit", [
        lambda raw: raw.pop("wcdp"),
        lambda raw: raw.update(extra=1),
        lambda raw: raw.update(bank=raw.pop("bank")),
        _swap_bank_and_row,
    ], ids=["missing", "extra", "reordered", "swapped"])
    def test_other_keys_are_refused(self, edit):
        with pytest.raises(CharacterizationError,
                           match="measurement 1 has the keys"):
            ModuleCharacterization.from_json(self._edited(edit))

    @pytest.mark.parametrize("payload", [
        {"measurements": {}},
        {"measurements": [None]},
        {"measurements": [["bank", "row", "tras_factor", "n_pr",
                           "temperature_c", "wcdp", "nrh", "ber"]]},
        {"seed": "1"},
        {"seed": True},
        {"module_id": 6},
        {"model_digest": 0},
    ], ids=repr)
    def test_a_wrong_envelope_is_refused(self, payload):
        text = json.dumps({"module_id": "S6", "seed": 1,
                           "model_digest": None, "measurements": [],
                           **payload})
        with pytest.raises(CharacterizationError):
            ModuleCharacterization.from_json(text)

    def test_deep_nesting_is_refused(self):
        with pytest.raises(CharacterizationError):
            ModuleCharacterization.from_json("[" * 100_000)

    @staticmethod
    def _edited(edit) -> str:
        result = ModuleCharacterization("S6", seed=1)
        result.add(measurement(row=1))
        result.add(measurement(row=2))
        payload = json.loads(result.to_json())
        edit(payload["measurements"][1])
        return json.dumps(payload, indent=1)

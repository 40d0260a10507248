"""Tests for A.6 evaluation-config files and attack traces."""

import json

import pytest

from repro.analysis.runner import EVALUATED_NRH_VALUES
from repro.analysis.sweeprunner import SweepGrid
from repro.errors import ConfigError
from repro.mitigations import make_mitigation
from repro.sim.addrmap import AddressMapper
from repro.sim.config import SystemConfig
from repro.sim.system import MemorySystem
from repro.workloads.attack import (
    double_sided_trace,
    many_sided_trace,
    row_activation_counts,
)
from repro.workloads.suites import single_core_suite


def load(tmp_path, text: str) -> SweepGrid:
    path = tmp_path / "eval.json"
    path.write_text(text)
    return SweepGrid.from_file(path)


class TestEvaluationConfig:
    """The A.6 file format, loaded by :meth:`SweepGrid.from_file`."""

    def test_defaults_valid(self, tmp_path):
        grid = load(tmp_path, "{}")
        assert "PARA" in grid.mitigations
        assert grid.nrh_values == EVALUATED_NRH_VALUES
        assert grid.workload_sets == tuple(
            (name,) for name in single_core_suite()[:4])
        assert len(grid.points()) == 480

    def test_every_key_loads(self, tmp_path):
        grid = load(tmp_path, json.dumps({
            "mitigations": ["PARA", "Graphene"], "nrh_values": [128],
            "pacram_vendors": [None, "H"], "workloads": ["spec06.mcf"],
            "requests": 500, "check_protocol": "tolerant"}))
        assert grid == SweepGrid(
            mitigations=("PARA", "Graphene"), nrh_values=(128,),
            pacram_vendors=(None, "H"), workload_sets=(("spec06.mcf",),),
            requests=500, check_protocol="tolerant")

    def test_artifact_knob_names(self, tmp_path):
        # The A.6 knobs MITIGATION_LIST and NRH_VALUES load; the latency
        # factors do not, because a grid has no field to honour them.
        grid = load(tmp_path, '{"mitigations": ["RFM"], "nrh_values": [64, 32]}')
        assert grid.mitigations == ("RFM",)
        assert grid.nrh_values == (64, 32)
        for key in ("latency_factor_vrr", "latency_factor_rfc", "num_cores"):
            with pytest.raises(ConfigError, match=f"'{key}'"):
                load(tmp_path, json.dumps({"mitigations": ["RFM"], key: 1}))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config keys"):
            load(tmp_path, '{"mitigaitons": ["RFM"]}')  # typo'd key

    def test_unknown_mitigation_rejected(self):
        with pytest.raises(ConfigError):
            SweepGrid(mitigations=("TRR",))

    def test_malformed_json_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="malformed"):
            load(tmp_path, "{not json")

    def test_none_vendor_spelled_out(self, tmp_path):
        grid = load(tmp_path, '{"pacram_vendors": ["none", "S"]}')
        assert grid.pacram_vendors == (None, "S")

    def test_grid_matches_knobs(self, tmp_path):
        grid = load(tmp_path, json.dumps({
            "mitigations": ["PARA"], "nrh_values": [64],
            "pacram_vendors": [None], "workloads": ["a", "b"]}))
        assert len(grid.points()) == 2


class TestAttackTraces:
    def test_double_sided_targets_neighbors(self):
        config = SystemConfig(num_cores=1)
        trace = double_sided_trace(config, victim_row=1000, hammers=50)
        mapper = AddressMapper(config)
        rows = {mapper.decode(int(a)).row for a in trace.addresses}
        assert rows == {999, 1001}

    def test_double_sided_every_access_misses(self):
        config = SystemConfig(num_cores=1)
        trace = double_sided_trace(config, hammers=500)
        counts = row_activation_counts(config, trace)
        assert sum(counts.values()) == len(trace)

    def test_double_sided_triggers_mitigation_in_system(self):
        config = SystemConfig(num_cores=1)
        trace = double_sided_trace(config, hammers=600)
        mitigation = make_mitigation("Graphene", 512)
        result = MemorySystem(config, [trace], mitigation=mitigation).run()
        assert result.controller_stats.preventive_refresh_rows > 0

    def test_many_sided_spreads_rows(self):
        config = SystemConfig(num_cores=1)
        trace = many_sided_trace(config, aggressor_rows=8,
                                 hammers_per_row=20)
        mapper = AddressMapper(config)
        rows = {mapper.decode(int(a)).row for a in trace.addresses}
        assert len(rows) == 8

    def test_many_sided_evades_high_thresholds(self):
        # Spreading 8 x 250 activations keeps each row below a 512-count
        # tracker threshold: zero preventive refreshes despite 2000 ACTs.
        config = SystemConfig(num_cores=1)
        trace = many_sided_trace(config, aggressor_rows=8,
                                 hammers_per_row=250)
        mitigation = make_mitigation("Graphene", 4096)  # threshold 1024
        result = MemorySystem(config, [trace], mitigation=mitigation).run()
        assert result.controller_stats.preventive_refresh_rows == 0

    def test_validation(self):
        config = SystemConfig(num_cores=1)
        with pytest.raises(ConfigError):
            double_sided_trace(config, hammers=0)
        with pytest.raises(ConfigError):
            double_sided_trace(config, victim_row=0)
        with pytest.raises(ConfigError):
            many_sided_trace(config, aggressor_rows=1)


class TestConfigRejection:
    def test_unknown_key_names_nearest_match(self, tmp_path):
        with pytest.raises(ConfigError, match="did you mean 'nrh_values'"):
            load(tmp_path, '{"nrh_valeus": [128]}')

    def test_unknown_key_without_close_match(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config keys"):
            load(tmp_path, '{"frobnicate": 1}')

    def test_duplicate_json_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate config key"):
            load(tmp_path, '{"requests": 100, "requests": 200}')

    def test_duplicate_workloads_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate workload_sets"):
            load(tmp_path, '{"workloads": ["spec06.mcf", "spec06.mcf"]}')

    def test_duplicate_mitigations_rejected(self):
        with pytest.raises(ConfigError, match="duplicate mitigations"):
            SweepGrid(mitigations=("PARA", "PARA"))

    def test_check_protocol_round_trips_into_grid(self, tmp_path):
        grid = load(tmp_path, '{"workloads": ["spec06.mcf"], '
                              '"check_protocol": "strict"}')
        assert grid.check_protocol == "strict"

    def test_invalid_check_protocol_rejected(self):
        with pytest.raises(ConfigError, match="check_protocol"):
            SweepGrid(check_protocol="paranoid")

    def test_non_object_and_unreadable_files_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="JSON object"):
            load(tmp_path, "[1, 2]")
        with pytest.raises(ConfigError, match="unreadable"):
            SweepGrid.from_file(tmp_path / "missing.json")

    @pytest.mark.parametrize("text", [
        '{"requests": "400"}', '{"requests": 400.5}', '{"requests": true}',
        '{"nrh_values": ["64"]}', '{"mitigations": "PARA"}',
        '{"workloads": [["spec06.mcf"]]}', '{"pacram_vendors": ["h"]}',
    ])
    def test_values_checked_by_the_grid(self, tmp_path, text):
        with pytest.raises(ConfigError):
            load(tmp_path, text)

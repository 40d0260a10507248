"""Tests for the campaign and sweep runners (the artifact workflow)."""

import dataclasses
import json

import pytest

from repro.analysis.sweeprunner import (
    SweepGrid,
    SweepPoint,
    SweepRunner,
    load_row,
    row_digest,
)
from repro.characterization.campaign import (
    CampaignConfig,
    CharacterizationCampaign,
)
from repro.characterization.results import ModuleCharacterization
from repro.errors import CharacterizationError, ConfigError, SimulationError


def tiny_campaign(tmp_path) -> CharacterizationCampaign:
    config = CampaignConfig(module_ids=("S6", "M2"),
                            tras_factors=(1.0, 0.36),
                            per_region=4)
    return CharacterizationCampaign(tmp_path / "results", config)


def only_s6(campaign: CharacterizationCampaign) -> CharacterizationCampaign:
    """The same campaign narrowed to S6, over the same directory."""
    config = dataclasses.replace(campaign.config, module_ids=("S6",))
    return CharacterizationCampaign(campaign.results_dir, config)


def last_counts(runner) -> dict:
    """The ``counts`` of a campaign's or sweep's last ``run_report.json``."""
    return json.loads(runner.execution.report_path().read_text())["counts"]


#: A one-module campaign small enough to run a handful of times per test.
SMALL_CAMPAIGN = CampaignConfig(module_ids=("S6",), tras_factors=(0.36,),
                                per_region=1)


class TestCharacterizationCampaign:
    def test_run_persists_and_reloads(self, tmp_path):
        campaign = tiny_campaign(tmp_path)
        results = campaign.run()
        assert set(results) == {"S6", "M2"}
        assert campaign.pending_modules() == ()
        reloaded = campaign.load()
        assert reloaded["S6"].measurements == results["S6"].measurements

    def test_resume_skips_done_modules(self, tmp_path):
        campaign = tiny_campaign(tmp_path)
        s6_only = only_s6(campaign)
        first = s6_only.run()["S6"]
        assert campaign.pending_modules() == ("M2",)
        # Re-running S6 loads from disk (same results, no recompute drift).
        again = s6_only.run()["S6"]
        assert again.measurements == first.measurements
        assert last_counts(s6_only)["reused"] == 1

    def test_load_incomplete_rejected(self, tmp_path):
        campaign = tiny_campaign(tmp_path)
        with pytest.raises(CharacterizationError, match="incomplete"):
            campaign.load()

    def test_summary_reports_progress(self, tmp_path):
        campaign = tiny_campaign(tmp_path)
        assert "0/2" in campaign.summary()
        only_s6(campaign).run()
        assert "1/2" in campaign.summary()

    @pytest.mark.parametrize("change", [
        {"per_region": 2},
        {"seed": 2026},
        {"tras_factors": (0.27,)},
        {"n_prs": (1, 2)},
        {"temperatures_c": (50.0,)},
    ], ids=lambda change: next(iter(change)))
    def test_resume_with_other_settings_recomputes(self, tmp_path, change):
        CharacterizationCampaign(tmp_path / "d", SMALL_CAMPAIGN).run(jobs=1)
        config = dataclasses.replace(SMALL_CAMPAIGN, **change)
        resumed = CharacterizationCampaign(tmp_path / "d", config)
        resumed.run(jobs=1)
        counts = last_counts(resumed)
        assert (counts["computed"], counts["reused"],
                counts["quarantined"]) == (1, 0, 1)
        fresh = CharacterizationCampaign(tmp_path / "fresh", config)
        fresh.run(jobs=1)
        assert resumed.result_path("S6").read_bytes() \
            == fresh.result_path("S6").read_bytes()
        # The same settings again reuse the recomputed result.
        resumed.run(jobs=1)
        assert last_counts(resumed)["reused"] == 1
        assert resumed.load()["S6"].seed == config.seed

    def test_load_refuses_other_settings(self, tmp_path):
        CharacterizationCampaign(tmp_path / "d", SMALL_CAMPAIGN).run(jobs=1)
        config = dataclasses.replace(SMALL_CAMPAIGN, per_region=2)
        with pytest.raises(CharacterizationError,
                           match="other campaign settings"):
            CharacterizationCampaign(tmp_path / "d", config).load()

    def test_result_without_model_digest_is_refused(self, tmp_path):
        campaign = CharacterizationCampaign(tmp_path / "d", SMALL_CAMPAIGN)
        campaign.run(jobs=1)
        path = campaign.result_path("S6")
        original = path.read_bytes()
        payload = json.loads(original)
        payload["model_digest"] = None
        payload["measurements"][0]["nrh"] = 12345
        path.write_text(json.dumps(payload, indent=1))
        with pytest.raises(CharacterizationError, match="device model"):
            campaign.load()
        campaign.run(jobs=1)
        assert last_counts(campaign)["quarantined"] == 1
        assert path.read_bytes() == original

    @pytest.mark.parametrize("edit", [
        lambda ms: (ms[0].update(nrh="7"), ms[1].update(ber=None)),
        lambda ms: ms[0].update(ber=None),
        lambda ms: ms[0].update(nrh=True),
        lambda ms: ms[0].update(row=float(ms[0]["row"])),
        lambda ms: ms[0].pop("wcdp"),
        lambda ms: ms[0].update(extra=1),
    ], ids=["string", "null", "bool", "float-in-int", "missing-key",
            "extra-key"])
    def test_a_mistyped_measurement_is_recomputed(self, tmp_path, edit):
        campaign = CharacterizationCampaign(tmp_path / "d", SMALL_CAMPAIGN)
        campaign.run(jobs=1)
        path = campaign.result_path("S6")
        original = path.read_bytes()
        payload = json.loads(original)
        edit(payload["measurements"])
        path.write_text(json.dumps(payload, indent=1))
        with pytest.raises(CharacterizationError,
                           match="invalid characterization payload"):
            ModuleCharacterization.from_json(path.read_text())
        campaign.run(jobs=1)
        counts = last_counts(campaign)
        assert (counts["computed"], counts["reused"],
                counts["quarantined"]) == (1, 0, 1)
        assert path.read_bytes() == original

    def test_config_validation(self):
        with pytest.raises(CharacterizationError):
            CampaignConfig(module_ids=())
        with pytest.raises(CharacterizationError):
            CampaignConfig(per_region=0)


def tiny_grid() -> SweepGrid:
    return SweepGrid(mitigations=("PARA",), nrh_values=(64,),
                     pacram_vendors=(None, "H"),
                     workload_sets=(("spec06.gcc",),), requests=600)


class TestSweepRunner:
    def test_grid_enumeration(self):
        points = tiny_grid().points()
        assert len(points) == 2
        assert {p.pacram_vendor for p in points} == {None, "H"}

    def test_run_persists_rows(self, tmp_path):
        runner = SweepRunner(tmp_path / "ram", tiny_grid())
        rows = runner.run()
        assert len(rows) == 2
        assert runner.status() == (2, 2)

    def test_resume_reuses_rows(self, tmp_path):
        runner = SweepRunner(tmp_path / "ram", tiny_grid())
        first = runner.run()
        second = runner.run()  # loaded from disk
        assert [r.mean_ipc for r in first] == [r.mean_ipc for r in second]

    def test_row_without_digest_is_refused(self, tmp_path):
        runner = SweepRunner(tmp_path / "ram", tiny_grid())
        runner.run(jobs=1)
        path = runner.row_path(tiny_grid().points()[0])
        original = path.read_bytes()
        payload = json.loads(original)
        del payload["digest"]
        payload["mean_ipc"] = 9.99
        path.write_text(json.dumps(payload, indent=1))
        with pytest.raises(SimulationError, match="digest"):
            load_row(path)
        runner.run(jobs=1)
        assert last_counts(runner)["quarantined"] == 1
        assert path.read_bytes() == original

    def test_row_without_violations_is_refused(self, tmp_path):
        runner = SweepRunner(tmp_path / "ram", tiny_grid())
        runner.run(jobs=1)
        path = runner.row_path(tiny_grid().points()[0])
        payload = json.loads(path.read_text())
        del payload["violations"]
        payload["digest"] = row_digest(payload)  # vouches for the rest
        path.write_text(json.dumps(payload, indent=1))
        with pytest.raises(SimulationError, match="invalid sweep row"):
            load_row(path)

    @pytest.mark.parametrize("edit", [
        {"nrh": "64", "mean_ipc": None},
        {"workloads": "spec06.gcc"},
        {"pacram_vendor": 7},
        {"energy_nj": "1.5"},
        {"preventive_refresh_rows": 3.0},
        {"violations": True},
    ])
    def test_row_with_a_wrong_type_is_refused(self, tmp_path, edit):
        # The digest is recomputed, so only the types are wrong: the row
        # must still be quarantined and re-run, not aggregated.
        runner = SweepRunner(tmp_path / "ram", tiny_grid())
        runner.run(jobs=1)
        path = runner.row_path(tiny_grid().points()[0])
        original = path.read_bytes()
        payload = {**json.loads(original), **edit}
        payload["digest"] = row_digest(payload)
        path.write_text(json.dumps(payload, indent=1))
        with pytest.raises(SimulationError, match="invalid sweep row"):
            load_row(path)
        rows = runner.run(jobs=1)
        assert last_counts(runner)["quarantined"] == 1
        assert path.read_bytes() == original
        assert ("PARA", "PaCRAM-H") in runner.aggregate(rows)

    def test_aggregate_normalizes_against_no_pacram(self, tmp_path):
        runner = SweepRunner(tmp_path / "ram", tiny_grid())
        aggregated = runner.aggregate()
        assert ("PARA", "PaCRAM-H") in aggregated
        value = aggregated[("PARA", "PaCRAM-H")][64]
        assert 0.5 < value < 2.0

    def test_point_keys_unique(self):
        grid = SweepGrid(mitigations=("PARA", "RFM"), nrh_values=(64, 32),
                         pacram_vendors=(None, "H", "S"),
                         workload_sets=(("a",), ("b",)))
        keys = [p.key for p in grid.points()]
        assert len(keys) == len(set(keys))

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            SweepGrid(mitigations=()).points()

    def test_sweep_point_key_format(self):
        point = SweepPoint("PARA", 64, None, ("x", "y"))
        prefix, digest = point.key.rsplit("_", 1)
        assert prefix == "PARA_nrh64_none_x+y"
        assert len(digest) == 8
        int(digest, 16)  # hash suffix is hex

    def test_sweep_point_key_sanitized(self):
        # Vendors/workloads with separators must not corrupt row paths.
        point = SweepPoint("PA_RA", 64, "H+/..", ("a/b", "c_d"))
        stem = point.key.rsplit("_", 1)[0]
        assert "/" not in point.key and "+" not in stem.split("_", 3)[2]
        assert set(point.key) <= set(
            "abcdefghijklmnopqrstuvwxyz"
            "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._+-")

    def test_sweep_point_keys_distinguish_sanitized_collisions(self):
        # The hash suffix keeps raw points apart even when the readable
        # prefixes collide after sanitization.
        none_vendor = SweepPoint("PARA", 64, None, ("w",))
        literal_none = SweepPoint("PARA", 64, "none", ("w",))
        assert none_vendor.key != literal_none.key
        joined = SweepPoint("PARA", 64, "H", ("a_b",))
        split = SweepPoint("PARA", 64, "H", ("a", "b"))
        assert joined.key != split.key

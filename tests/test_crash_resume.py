"""Crash-resume and serial/parallel-parity tests for campaigns and sweeps.

The artifact workflow's promise is that an interrupted grid resumes to the
same results an uninterrupted run would have produced.  These tests
simulate the crash (a result file truncated mid-write) and check the full
contract: quarantine, re-run, and bit-identical row contents.
"""

import json

import pytest

from repro.analysis.sweeprunner import SweepGrid, SweepRunner
from repro.characterization.campaign import (
    CampaignConfig,
    CharacterizationCampaign,
)
from repro.errors import CharacterizationError
from repro.runtime import CORRUPT_SUFFIX, REPORT_NAME


def tiny_campaign(results_dir) -> CharacterizationCampaign:
    config = CampaignConfig(module_ids=("S6", "M2"),
                            tras_factors=(1.0, 0.36), per_region=2)
    return CharacterizationCampaign(results_dir, config)


def tiny_grid() -> SweepGrid:
    return SweepGrid(mitigations=("PARA",), nrh_values=(64,),
                     pacram_vendors=(None, "H"),
                     workload_sets=(("spec06.gcc",),), requests=400)


def result_bytes(directory) -> dict[str, bytes]:
    # run_report.json is run metadata (timings, retry counts), not a
    # result: byte-identity applies to the science, not the telemetry.
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.json"))
            if p.name != REPORT_NAME}


class TestCampaignCrashResume:
    def test_truncated_result_quarantined_and_rerun(self, tmp_path):
        reference = tiny_campaign(tmp_path / "ref")
        reference.run()

        crashed = tiny_campaign(tmp_path / "crashed")
        crashed.run()
        # Simulate a crash mid-write: truncate one persisted result.
        victim = crashed.result_path("S6")
        victim.write_bytes(victim.read_bytes()[:40])
        # The old existence-based status still says "done" — resume must
        # recover via quarantine + re-run, not crash in json.loads.
        assert crashed.is_done("S6")
        resumed = crashed.run()
        assert set(resumed) == {"S6", "M2"}
        quarantined = list((tmp_path / "crashed").glob(f"*{CORRUPT_SUFFIX}*"))
        assert len(quarantined) == 1
        assert result_bytes(tmp_path / "crashed") == \
            result_bytes(tmp_path / "ref")

    def test_load_reports_corrupt_file_as_library_error(self, tmp_path):
        campaign = tiny_campaign(tmp_path / "c")
        campaign.run()
        campaign.result_path("M2").write_text("{not json")
        with pytest.raises(CharacterizationError, match="invalid"):
            campaign.load()

    def test_parallel_campaign_matches_serial(self, tmp_path):
        tiny_campaign(tmp_path / "serial").run(jobs=1)
        tiny_campaign(tmp_path / "parallel").run(jobs=2)
        assert result_bytes(tmp_path / "parallel") == \
            result_bytes(tmp_path / "serial")


class TestSweepCrashResume:
    def test_truncated_row_quarantined_and_rerun(self, tmp_path):
        reference = SweepRunner(tmp_path / "ref", tiny_grid())
        reference.run()

        crashed = SweepRunner(tmp_path / "crashed", tiny_grid())
        crashed.run()
        victim = crashed.row_path(crashed.grid.points()[0])
        victim.write_bytes(victim.read_bytes()[:25])
        assert crashed.status() == (2, 2)  # atomicity is what makes this safe
        rows = crashed.run()
        assert len(rows) == 2
        assert list((tmp_path / "crashed").glob(f"*{CORRUPT_SUFFIX}*"))
        assert result_bytes(tmp_path / "crashed") == \
            result_bytes(tmp_path / "ref")

    def test_parallel_sweep_matches_serial(self, tmp_path):
        serial = SweepRunner(tmp_path / "serial", tiny_grid())
        parallel = SweepRunner(tmp_path / "parallel", tiny_grid())
        serial_rows = serial.run(jobs=1)
        parallel_rows = parallel.run(jobs=2)
        assert serial_rows == parallel_rows
        assert result_bytes(tmp_path / "parallel") == \
            result_bytes(tmp_path / "serial")

    def test_resume_after_partial_run_completes_grid(self, tmp_path):
        runner = SweepRunner(tmp_path / "sweep", tiny_grid())
        first_point = runner.grid.points()[0]
        runner.run_point(first_point)
        assert runner.status() == (1, 2)
        rows = runner.run(jobs=2)
        assert runner.status() == (2, 2)
        assert rows[0].key == first_point.key


class TestAggregateWithoutBaseline:
    def test_grid_without_baseline_skips_normalization(self, tmp_path):
        # A grid that legitimately omits the no-PaCRAM baseline must not
        # raise after the whole sweep already ran.
        grid = SweepGrid(mitigations=("PARA",), nrh_values=(64,),
                         pacram_vendors=("H",),
                         workload_sets=(("spec06.gcc",),), requests=400)
        runner = SweepRunner(tmp_path / "nobase", grid)
        assert runner.aggregate(runner.run()) == {}

    def test_grid_with_baseline_still_normalizes(self, tmp_path):
        runner = SweepRunner(tmp_path / "base", tiny_grid())
        aggregated = runner.aggregate(runner.run())
        assert ("PARA", "PaCRAM-H") in aggregated


class TestErrorLedger:
    def test_quarantine_is_ledgered(self, tmp_path):
        runner = SweepRunner(tmp_path / "sweep", tiny_grid())
        runner.run()
        victim = runner.row_path(runner.grid.points()[0])
        victim.write_text("garbage")
        runner.run()
        records = [json.loads(line) for line in
                   runner.execution.ledger_path().read_text().splitlines()]
        assert any(r["action"] == "quarantine" for r in records)

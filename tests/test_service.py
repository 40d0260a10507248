"""The job layer: spec identity, store state machine, manager lifecycle.

Covers the characterization-as-a-service contracts below the wire:

- :class:`JobSpec` content-digest identity and the decode allow-list
  (hostile payloads cannot name arbitrary dataclasses or smuggle
  execution-context wire tags).
- :class:`JobStore` durable namespaces and the validated
  ``queued -> running -> done/failed`` state machine.
- :class:`JobManager` end-to-end: run, streamed-event ordering,
  digest-dedup with zero recomputation, the failed path, crash-resume of
  a half-finished job, and figure-on-demand byte-identity vs batch.
- The thin-adapter lint: campaign/sweeprunner must carry no private
  scheduler/ledger/report plumbing now that ``JobExecution`` owns it.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.figures import fig6_nrh_boxes_from
from repro.analysis.sweeprunner import (
    SweepGrid,
    SweepRunner,
    load_row,
    render_aggregate,
)
from repro.characterization.campaign import (
    CampaignConfig,
    CharacterizationCampaign,
)
from repro.errors import ConfigError
from repro.runtime import ProgressReporter
from repro.service import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobManager,
    JobSpec,
    JobStateError,
    JobStore,
)
from repro.service.jobs import validate_job_id
from repro.service.manager import EventLogProgress, replay_event


def tiny_grid(**overrides) -> SweepGrid:
    options = dict(mitigations=("PARA",), nrh_values=(64,),
                   pacram_vendors=(None, "H"),
                   workload_sets=(("spec06.mcf",),), requests=200)
    options.update(overrides)
    return SweepGrid(**options)


def tiny_campaign_config() -> CampaignConfig:
    return CampaignConfig(module_ids=("S6",), tras_factors=(1.0, 0.36),
                          per_region=2)


def row_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes()
            for p in sorted(directory.glob("*.json"))
            if p.name != "run_report.json"}


# ----------------------------------------------------------------------
# JobSpec: identity and decoding
# ----------------------------------------------------------------------
class TestJobSpec:
    def test_identical_configs_share_an_id(self):
        a = JobSpec("sweep", tiny_grid())
        b = JobSpec("sweep", tiny_grid())
        assert a.job_id == b.job_id
        validate_job_id(a.job_id)

    def test_id_covers_the_config(self):
        base = JobSpec("sweep", tiny_grid())
        assert base.job_id != JobSpec("sweep",
                                      tiny_grid(requests=300)).job_id
        assert base.job_id != JobSpec(
            "sweep", tiny_grid(nrh_values=(1024,))).job_id

    def test_kinds_do_not_collide(self):
        campaign = JobSpec("campaign", tiny_campaign_config())
        sweep = JobSpec("sweep", tiny_grid())
        assert campaign.job_id != sweep.job_id

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError, match="job kind"):
            JobSpec("audit", tiny_grid())

    def test_round_trips_through_the_wire_encoding(self):
        spec = JobSpec("sweep", tiny_grid())
        clone = JobSpec.decode(spec.encoded())
        assert clone.job_id == spec.job_id
        assert clone.config == spec.config

    def test_decode_requires_the_envelope(self):
        with pytest.raises(ConfigError, match="kind"):
            JobSpec.decode({"config": {}})
        with pytest.raises(ConfigError, match="kind"):
            JobSpec.decode(["sweep"])

    def test_decode_rejects_unlisted_dataclasses(self):
        payload = JobSpec("sweep", tiny_grid()).encoded()
        payload["config"]["__dc"] = "repro.exec:ExecutionPolicy"
        with pytest.raises(ConfigError, match="disallowed type"):
            JobSpec.decode(payload)

    @pytest.mark.parametrize("tag", ["__blob", "__task_path", "__p"])
    def test_decode_rejects_execution_context_tags(self, tag):
        payload = JobSpec("sweep", tiny_grid()).encoded()
        payload["config"][tag] = "smuggled"
        with pytest.raises(ConfigError, match="wire tag"):
            JobSpec.decode(payload)

    def test_decode_scans_nested_payloads(self):
        payload = JobSpec("sweep", tiny_grid()).encoded()
        payload["config"]["workload_sets"] = [
            [{"__dc": "os:system"}]]
        with pytest.raises(ConfigError, match="disallowed type"):
            JobSpec.decode(payload)


class TestValidateJobId:
    def test_accepts_a_digest(self):
        assert validate_job_id("0123456789abcdef") == "0123456789abcdef"

    @pytest.mark.parametrize("bad", [
        "../0123456789abcd",          # path traversal
        "0123456789ABCDEF",           # uppercase
        "0123456789abcde",            # short
        "0123456789abcdef0",          # long
        "0123456789abcde/",           # separator
        "",
        1234,
        None,
    ])
    def test_rejects_everything_else(self, bad):
        with pytest.raises(ConfigError, match="malformed job id"):
            validate_job_id(bad)


# ----------------------------------------------------------------------
# JobStore: durable records + state machine
# ----------------------------------------------------------------------
class TestJobStore:
    def store(self, tmp_path) -> JobStore:
        self.now = [100.0]
        return JobStore(tmp_path / "jobs", clock=lambda: self.now[0])

    def test_submit_creates_a_queued_record(self, tmp_path):
        store = self.store(tmp_path)
        record, created = store.submit(JobSpec("sweep", tiny_grid()))
        assert created
        assert record.state == QUEUED
        assert record.history == [[QUEUED, 100.0]]
        assert store.record_path(record.job_id).exists()
        assert store.list_ids() == (record.job_id,)

    def test_resubmission_dedups(self, tmp_path):
        store = self.store(tmp_path)
        first, _ = store.submit(JobSpec("sweep", tiny_grid()))
        self.now[0] = 200.0
        second, created = store.submit(JobSpec("sweep", tiny_grid()))
        assert not created
        assert second.job_id == first.job_id
        assert second.created_at == 100.0  # nothing was rewritten

    def test_lifecycle_transitions(self, tmp_path):
        store = self.store(tmp_path)
        record, _ = store.submit(JobSpec("sweep", tiny_grid()))
        job_id = record.job_id
        assert store.transition(job_id, RUNNING).state == RUNNING
        done = store.transition(job_id, DONE)
        assert done.state == DONE
        assert [s for s, _ in done.history] == [QUEUED, RUNNING, DONE]

    def test_done_is_terminal(self, tmp_path):
        store = self.store(tmp_path)
        record, _ = store.submit(JobSpec("sweep", tiny_grid()))
        store.transition(record.job_id, RUNNING)
        store.transition(record.job_id, DONE)
        with pytest.raises(JobStateError, match="terminal"):
            store.transition(record.job_id, QUEUED)

    def test_illegal_edges_rejected(self, tmp_path):
        store = self.store(tmp_path)
        record, _ = store.submit(JobSpec("sweep", tiny_grid()))
        with pytest.raises(JobStateError, match="queued -> done"):
            store.transition(record.job_id, DONE)
        with pytest.raises(ConfigError, match="job state"):
            store.transition(record.job_id, "paused")

    def test_orphaned_running_job_can_requeue(self, tmp_path):
        store = self.store(tmp_path)
        record, _ = store.submit(JobSpec("sweep", tiny_grid()))
        store.transition(record.job_id, RUNNING)
        assert store.transition(record.job_id, QUEUED).state == QUEUED

    def test_failed_records_the_error_and_retry_clears_it(self, tmp_path):
        store = self.store(tmp_path)
        record, _ = store.submit(JobSpec("sweep", tiny_grid()))
        store.transition(record.job_id, RUNNING)
        failed = store.transition(record.job_id, FAILED,
                                  error="ValueError: boom")
        assert failed.error == "ValueError: boom"
        retried = store.transition(record.job_id, QUEUED)
        assert retried.error is None

    def test_load_unknown_job(self, tmp_path):
        store = self.store(tmp_path)
        with pytest.raises(ConfigError, match="unknown job"):
            store.load("0123456789abcdef")

    def test_load_corrupt_record(self, tmp_path):
        store = self.store(tmp_path)
        record, _ = store.submit(JobSpec("sweep", tiny_grid()))
        store.record_path(record.job_id).write_text("{ not json")
        with pytest.raises(ConfigError, match="unreadable job record"):
            store.load(record.job_id)

    def test_load_rejects_id_mismatch(self, tmp_path):
        store = self.store(tmp_path)
        record, _ = store.submit(JobSpec("sweep", tiny_grid()))
        imposter = "f" * 16
        imposter_dir = store.namespace(imposter)
        imposter_dir.mkdir(parents=True)
        (imposter_dir / "job.json").write_bytes(
            store.record_path(record.job_id).read_bytes())
        with pytest.raises(ConfigError, match="claims id"):
            store.load(imposter)

    def test_record_survives_reload(self, tmp_path):
        store = self.store(tmp_path)
        record, _ = store.submit(JobSpec("sweep", tiny_grid()))
        fresh = JobStore(tmp_path / "jobs")
        loaded = fresh.load(record.job_id)
        assert loaded.spec == record.spec
        assert loaded.spec_obj().config == tiny_grid()


# ----------------------------------------------------------------------
# Event log + replay
# ----------------------------------------------------------------------
class _Recorder(ProgressReporter):
    def __init__(self):
        self.calls = []

    def start(self, total, reused=0):
        self.calls.append(("start", total, reused))

    def task_done(self, key, *, worker=None):
        self.calls.append(("task_done", key, worker))

    def task_retry(self, key, attempt, error, *,
                   classification="transient"):
        self.calls.append(("task_retry", key, attempt, error,
                           classification))

    def finish(self):
        self.calls.append(("finish",))


class TestEventLog:
    def test_sequences_are_contiguous(self, tmp_path):
        log = EventLogProgress(tmp_path / "events.jsonl",
                               clock=lambda: 1.0)
        log.start(3, reused=1)
        log.task_done("a", worker="w0")
        log.task_retry("b", 2, "boom", classification="transient")
        log.finish()
        log.close()
        events = [json.loads(line) for line
                  in (tmp_path / "events.jsonl").read_text().splitlines()]
        assert [e["seq"] for e in events] == [0, 1, 2, 3]
        assert [e["event"] for e in events] == [
            "start", "task_done", "task_retry", "finish"]

    def test_reopening_truncates(self, tmp_path):
        path = tmp_path / "events.jsonl"
        first = EventLogProgress(path)
        first.start(5)
        first.finish()
        first.close()
        second = EventLogProgress(path)
        second.start(2)
        second.close()
        events = [json.loads(line)
                  for line in path.read_text().splitlines()]
        assert [e["seq"] for e in events] == [0]
        assert events[0]["total"] == 2

    def test_replay_maps_events_onto_hooks(self, tmp_path):
        log = EventLogProgress(tmp_path / "events.jsonl")
        log.start(2, reused=1)
        log.task_done("point-a", worker="w1")
        log.finish()
        log.close()
        recorder = _Recorder()
        for line in (tmp_path / "events.jsonl").read_text().splitlines():
            replay_event(recorder, json.loads(line))
        assert recorder.calls == [("start", 2, 1),
                                  ("task_done", "point-a", "w1"),
                                  ("finish",)]

    def test_replay_ignores_unknown_and_malformed_events(self):
        recorder = _Recorder()
        replay_event(recorder, {"event": "from_the_future", "seq": 0})
        replay_event(recorder, {"event": "task_done"})  # missing key
        replay_event(recorder, {"no_event": True})
        assert recorder.calls == []


# ----------------------------------------------------------------------
# JobManager: end-to-end lifecycle
# ----------------------------------------------------------------------
class TestJobManagerSweep:
    def test_run_and_streamed_event_ordering(self, tmp_path):
        manager = JobManager(tmp_path / "jobs")
        grid = tiny_grid()
        record, created = manager.submit(JobSpec("sweep", grid))
        assert created
        final = manager.run(record.job_id)
        assert final.state == DONE

        events = [json.loads(line) for line in
                  manager.store.events_path(record.job_id)
                  .read_text().splitlines()]
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert events[0]["event"] == "start"
        assert events[0]["total"] == len(grid.points())
        assert events[-1]["event"] == "finish"
        done_keys = {e["key"] for e in events
                     if e["event"] == "task_done"}
        assert done_keys == {p.key for p in grid.points()}

    def test_results_match_a_batch_run_byte_for_byte(self, tmp_path):
        grid = tiny_grid()
        batch = SweepRunner(tmp_path / "batch", grid)
        batch.run(jobs=1)

        manager = JobManager(tmp_path / "jobs")
        record, _ = manager.submit(JobSpec("sweep", grid))
        manager.run(record.job_id)
        served = manager.result_files(record.job_id)
        assert served == row_bytes(tmp_path / "batch")
        assert "run_report.json" not in served
        assert "errors.jsonl" not in served

    def test_dedup_recomputes_nothing(self, tmp_path):
        manager = JobManager(tmp_path / "jobs")
        record, _ = manager.submit(JobSpec("sweep", tiny_grid()))
        manager.run(record.job_id)
        results_dir = manager.store.results_dir(record.job_id)
        stamps = {p.name: p.stat().st_mtime_ns
                  for p in results_dir.glob("*.json")}
        assert stamps

        again, created = manager.submit(JobSpec("sweep", tiny_grid()))
        assert not created
        assert again.job_id == record.job_id
        final = manager.run(again.job_id)
        assert final.state == DONE
        assert {p.name: p.stat().st_mtime_ns
                for p in results_dir.glob("*.json")} == stamps

    def test_failure_is_recorded_and_retry_resumes(self, tmp_path,
                                                   monkeypatch):
        def sabotage(self, **options):
            raise RuntimeError("wired to fail")

        manager = JobManager(tmp_path / "jobs")
        record, _ = manager.submit(JobSpec("sweep", tiny_grid()))
        monkeypatch.setattr(SweepRunner, "run", sabotage)
        with pytest.raises(RuntimeError, match="wired to fail"):
            manager.run(record.job_id)
        failed = manager.status(record.job_id)
        assert failed.state == FAILED
        assert failed.error == "RuntimeError: wired to fail"

        monkeypatch.undo()
        final = manager.run(record.job_id)  # failed -> queued -> ... -> done
        assert final.state == DONE
        assert final.error is None

    def test_crash_resume_computes_only_whats_missing(self, tmp_path):
        grid = tiny_grid()
        reference = SweepRunner(tmp_path / "reference", grid)
        reference.run(jobs=1)

        manager = JobManager(tmp_path / "jobs")
        record, _ = manager.submit(JobSpec("sweep", grid))
        # Simulate a runner that crashed after finishing one point: its
        # row is on disk, the record is orphaned in ``running``.
        partial = SweepRunner(manager.store.results_dir(record.job_id),
                              grid)
        first_point = grid.points()[0]
        partial.run_point(first_point)
        manager.store.transition(record.job_id, RUNNING)
        stamp = partial.row_path(first_point).stat().st_mtime_ns

        final = manager.run(record.job_id)
        assert final.state == DONE
        # The surviving row was reused, not recomputed...
        assert partial.row_path(first_point).stat().st_mtime_ns == stamp
        # ...and the resumed job's rows match a clean batch run exactly.
        assert manager.result_files(record.job_id) \
            == row_bytes(tmp_path / "reference")

    def test_figure_matches_the_batch_renderer(self, tmp_path):
        grid = tiny_grid()
        batch = SweepRunner(tmp_path / "batch", grid)
        batch.run(jobs=1)
        expected = render_aggregate(batch.aggregate(
            [load_row(batch.row_path(p)) for p in grid.points()]))

        manager = JobManager(tmp_path / "jobs")
        record, _ = manager.submit(JobSpec("sweep", grid))
        manager.run(record.job_id)
        assert manager.figure(record.job_id, "fig17") == expected

    def test_figure_gates(self, tmp_path):
        manager = JobManager(tmp_path / "jobs")
        record, _ = manager.submit(JobSpec("sweep", tiny_grid()))
        with pytest.raises(ConfigError, match="not done"):
            manager.figure(record.job_id, "fig17")
        manager.run(record.job_id)
        with pytest.raises(ConfigError, match="render"):
            manager.figure(record.job_id, "fig6")

    def test_concurrent_claim_of_an_active_job_rejected(self, tmp_path):
        manager = JobManager(tmp_path / "jobs")
        record, _ = manager.submit(JobSpec("sweep", tiny_grid()))
        manager._active.add(record.job_id)
        try:
            with pytest.raises(ConfigError, match="already running"):
                manager.run(record.job_id)
        finally:
            manager._active.discard(record.job_id)
        assert manager.status(record.job_id).state == QUEUED


class TestJobManagerCampaign:
    def test_campaign_job_matches_batch_and_renders_fig6(self, tmp_path):
        config = tiny_campaign_config()
        batch = CharacterizationCampaign(tmp_path / "batch", config)
        batch.run(jobs=1)
        expected = repr(fig6_nrh_boxes_from(
            batch.load(), tras_factors=config.tras_factors))

        manager = JobManager(tmp_path / "jobs")
        record, _ = manager.submit(JobSpec("campaign", config))
        final = manager.run(record.job_id)
        assert final.state == DONE
        assert manager.result_files(record.job_id) \
            == row_bytes(tmp_path / "batch")
        assert manager.figure(record.job_id, "fig6") == expected
        with pytest.raises(ConfigError, match="render"):
            manager.figure(record.job_id, "fig17")


# ----------------------------------------------------------------------
# Thin-adapter lint: no private plumbing in the orchestrators
# ----------------------------------------------------------------------
SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Plumbing that now lives in ``repro.service.execution`` only.  The
#: orchestrators delegate; reintroducing any of these tokens means the
#: refactor regressed into a second copy of the execution layer.
PLUMBING_TOKENS = (
    "TaskPool",
    "make_scheduler",
    "LEDGER_NAME",
    "REPORT_NAME",
    "clear_disk(",
    "describe_run_report",
    "disk_entries(",
    "_pool(",
)

ADAPTERS = (
    SRC_ROOT / "characterization" / "campaign.py",
    SRC_ROOT / "analysis" / "sweeprunner.py",
)


class TestThinAdapters:
    @pytest.mark.parametrize(
        "path", ADAPTERS, ids=lambda p: p.name)
    def test_orchestrators_carry_no_execution_plumbing(self, path):
        text = path.read_text()
        offenders = [token for token in PLUMBING_TOKENS if token in text]
        assert not offenders, (
            f"{path.name} reaches around JobExecution via {offenders}; "
            "route scheduler/ledger/report/cache plumbing through "
            "repro.service.execution instead")

    def test_the_plumbing_does_live_in_the_execution_layer(self):
        text = (SRC_ROOT / "service" / "execution.py").read_text()
        for token in ("make_scheduler", "LEDGER_NAME", "REPORT_NAME",
                      "clear_disk(", "disk_entries("):
            assert token in text

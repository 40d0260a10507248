"""How a job runs: one :class:`RunOptions`, checked when it is made.

The CLI's run flags, the orchestrators' ``run`` keywords and the
service all build the same object, so a bad combination is refused
before any task runs, any port is bound, or ``--force`` deletes
anything.
"""

import dataclasses
import json
import re

import pytest

from repro.analysis.sweeprunner import SweepGrid, SweepRunner
from repro.characterization.campaign import (
    CampaignConfig,
    CharacterizationCampaign,
)
from repro.cli import main
from repro.errors import ConfigError
from repro.runtime import RunOptions
from repro.service.api import CharacterizationService

SWEEP_FLAGS = ["--mitigations", "PARA", "--nrh", "64", "--requests", "100"]
SWEEP_GRID = SweepGrid(mitigations=("PARA",), nrh_values=(64,),
                       requests=100)
TINY_GRID = SweepGrid(mitigations=("PARA",), nrh_values=(64,),
                      pacram_vendors=(None, "H"),
                      workload_sets=(("spec06.mcf",),), requests=100)
TINY_CAMPAIGN = CampaignConfig(module_ids=("S6",), tras_factors=(1.0,),
                               per_region=1)


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())
            if p.is_file()}


# ----------------------------------------------------------------------
# the object
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fields, message", [
    (dict(jobs=0), "jobs must be >= 1, got 0"),
    (dict(task_timeout_s=0), "timeout_s must be positive, got 0"),
    (dict(lease_batch=2), "lease_batch only apply to --scheduler fleet"),
    (dict(workers=2, serve="127.0.0.1:0"),
     "workers, serve only apply to --scheduler fleet"),
    (dict(scheduler="fleet", workers=0),
     "a fleet needs spawned loopback workers"),
    (dict(scheduler="fleet", workers=-1), "workers must be >= 0, got -1"),
    (dict(scheduler="fleet", lease_batch=0), "lease_batch must be >= 1"),
    (dict(scheduler="fleet", serve="nohost"), "expected HOST:PORT"),
    (dict(scheduler="fleet", serve="host:70000"), "port out of range"),
    (dict(scheduler="slurm"), "scheduler must be one of"),
])
def test_refused_when_made(fields, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        RunOptions(**fields)


def test_six_fields_and_a_parsed_listener():
    assert [field.name for field in dataclasses.fields(RunOptions)] == [
        "jobs", "task_timeout_s", "scheduler", "workers", "serve",
        "lease_batch"]
    assert RunOptions() == RunOptions(jobs=1, scheduler="local")
    assert RunOptions(jobs=None).jobs is None
    options = RunOptions(scheduler="fleet", workers=0, serve=":7045")
    assert options.serve == ("0.0.0.0", 7045)
    assert options.fleet_shape() == {"workers": 0,
                                     "serve": ("0.0.0.0", 7045)}
    assert RunOptions(scheduler="fleet").fleet_shape() == {}


# ----------------------------------------------------------------------
# refused before --force deletes anything
# ----------------------------------------------------------------------
@pytest.fixture
def swept(tmp_path):
    """A finished sweep whose baseline cache holds an entry."""
    out = tmp_path / "sweep"
    assert main(["sweep", "--dir", str(out), "--jobs", "1"]
                + SWEEP_FLAGS) == 0
    cache = _files(out / "baseline_cache")
    assert cache
    return out, cache


@pytest.mark.parametrize("flags", [
    ["--workers", "2"],
    ["--scheduler", "fleet", "--lease-batch", "0"],
    ["--jobs", "0"],
    ["--task-timeout", "0"],
])
def test_refused_forced_sweep_deletes_nothing(swept, flags, capsys):
    out, cache = swept
    before = _files(out)
    capsys.readouterr()
    assert main(["sweep", "--dir", str(out), "--force"] + SWEEP_FLAGS
                + flags) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert _files(out / "baseline_cache") == cache
    assert _files(out) == before


def test_orchestrator_checks_options_before_force_clears(swept):
    out, cache = swept
    with pytest.raises(ConfigError, match="workers only apply"):
        SweepRunner(out, SWEEP_GRID).run(force=True, workers=2)
    assert _files(out / "baseline_cache") == cache


# ----------------------------------------------------------------------
# serve-api: refused before it binds
# ----------------------------------------------------------------------
@pytest.mark.parametrize("flags, message", [
    (["--workers", "2"], "workers only apply to --scheduler fleet"),
    (["--fleet-serve", "127.0.0.1:0"],
     "serve only apply to --scheduler fleet"),
    (["--lease-batch", "2"], "lease_batch only apply to --scheduler fleet"),
    (["--scheduler", "fleet", "--workers", "0"],
     "a fleet needs spawned loopback workers"),
])
def test_serve_api_refuses_before_binding(tmp_path, monkeypatch, capsys,
                                          flags, message):
    def bind(self):
        raise AssertionError("serve-api started serving")

    monkeypatch.setattr(CharacterizationService, "start", bind)
    store = tmp_path / "jobs"
    assert main(["serve-api", "--dir", str(store),
                 "--serve", "127.0.0.1:0"] + flags) == 1
    assert message in capsys.readouterr().err
    assert not store.exists()


# ----------------------------------------------------------------------
# --nrh is parsed into a flag error
# ----------------------------------------------------------------------
@pytest.mark.parametrize("command", [
    ["sweep"],
    ["job", "submit", "sweep", "--connect", "127.0.0.1:9",
     "--connect-timeout", "0.1"],
])
def test_non_integer_nrh_is_a_flag_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = command + ["--mitigations", "PARA", "--nrh", "64,x"]
    if command == ["sweep"]:
        argv += ["--dir", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.strip() == (
        "error: --nrh takes comma-separated integers, got '64,x'")
    assert not out.exists()


# ----------------------------------------------------------------------
# the same calls give the same bytes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["campaign", "sweep"])
def test_run_keywords_give_the_same_bytes(tmp_path, kind):
    def build(name):
        if kind == "campaign":
            return CharacterizationCampaign(tmp_path / name, TINY_CAMPAIGN)
        return SweepRunner(tmp_path / name, TINY_GRID)

    build("default").run()
    build("inline").run(jobs=1)
    build("fleet").run(scheduler="fleet", workers=2)

    def rows(name):
        files = _files(tmp_path / name)
        return files, json.loads(files.pop("run_report.json"))

    default, report = rows("default")
    assert default and report["scheduler"] == "local"
    assert rows("inline")[0] == default
    fleet, report = rows("fleet")
    assert fleet == default
    assert report["scheduler"] == "fleet"

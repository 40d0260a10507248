"""One validation for every way a job spec is made.

:class:`SweepGrid` and :class:`CampaignConfig` check their own fields, so
CLI flags, an A.6 config file and a service submission refuse the same
values before any point runs, and :class:`JobSpec` takes only its kind's
config class.  Every hostile input ends in a spec or a
:class:`~repro.errors.ReproError`, never in another exception.
"""

import json
import math
import socket

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.sweeprunner import MAX_REQUESTS, SweepGrid
from repro.characterization.campaign import CampaignConfig
from repro.cli import main
from repro.errors import CharacterizationError, ConfigError, ReproError
from repro.runtime import RunOptions
from repro.runtime.wire import (
    PROTOCOL_VERSION,
    encode_value,
    recv_frame,
    send_frame,
)
from repro.service import JobSpec
from repro.service.api import CharacterizationService

TINY_GRID = dict(mitigations=("PARA",), nrh_values=(64,),
                 pacram_vendors=(None,), workload_sets=(("spec06.mcf",),),
                 requests=100)
TINY_CAMPAIGN = dict(module_ids=("S6",), tras_factors=(1.0,), per_region=1)

BAD_GRID_FIELDS = [
    ("requests", "x"), ("requests", 400.5), ("requests", True),
    ("requests", -5), ("requests", 10**30),
    ("mitigations", 5), ("mitigations", ("TRR",)),
    ("mitigations", ("PARA", "PARA")),
    ("nrh_values", ("a",)), ("nrh_values", (0,)),
    ("pacram_vendors", ("Q",)),
]
BAD_CAMPAIGN_FIELDS = [
    ("module_ids", ("ZZ9",)), ("tras_factors", (0.0,)),
    ("per_region", "x"), ("seed", "s"),
]


def _payload(kind: str, config, **fields) -> dict:
    """The encoded spec of ``config`` with ``fields`` replaced on the
    wire (values encoded as a client would)."""
    payload = JobSpec(kind, config).encoded()
    for name, value in fields.items():
        payload["config"]["fields"][name] = encode_value(value)
    return payload


def _bad_payloads() -> list[dict]:
    grid, campaign = SweepGrid(**TINY_GRID), CampaignConfig(**TINY_CAMPAIGN)
    unknown = _payload("sweep", grid)
    unknown["config"]["fields"]["latency_factor_vrr"] = 0.36
    return ([_payload("sweep", grid, **{f: v}) for f, v in BAD_GRID_FIELDS]
            + [_payload("campaign", campaign, **{f: v})
               for f, v in BAD_CAMPAIGN_FIELDS]
            + [{"kind": "campaign", "config": encode_value(grid)},
               {"kind": "sweep", "config": {"mitigations": ["PARA"]}},
               {"kind": "sweep", "config": 5},
               unknown])


# ----------------------------------------------------------------------
# the dataclasses
# ----------------------------------------------------------------------
@pytest.mark.parametrize("field, value", BAD_GRID_FIELDS)
def test_sweep_grid_refuses(field, value):
    with pytest.raises(ConfigError):
        SweepGrid(**dict(TINY_GRID, **{field: value}))


@pytest.mark.parametrize("field, value", BAD_CAMPAIGN_FIELDS)
def test_campaign_config_refuses(field, value):
    with pytest.raises(CharacterizationError):
        CampaignConfig(**dict(TINY_CAMPAIGN, **{field: value}))


def test_limits_and_shapes():
    assert SweepGrid(**dict(TINY_GRID, requests=MAX_REQUESTS))
    assert CampaignConfig(**dict(TINY_CAMPAIGN, tras_factors=(1, 0.18),
                                 temperatures_c=(50, 85.5), seed=-1))
    with pytest.raises(ConfigError):
        SweepGrid(**dict(TINY_GRID, requests=MAX_REQUESTS + 1))
    with pytest.raises(ConfigError, match="workload_sets"):
        SweepGrid(**dict(TINY_GRID, workload_sets=(("a",), ())))
    for field, value in (("module_ids", ("S6", "S6")),
                         ("module_ids", ["S6"]), ("n_prs", (0,)),
                         ("temperatures_c", (math.nan,))):
        with pytest.raises(CharacterizationError, match=field):
            CampaignConfig(**dict(TINY_CAMPAIGN, **{field: value}))


# ----------------------------------------------------------------------
# JobSpec
# ----------------------------------------------------------------------
@pytest.mark.parametrize("payload", _bad_payloads())
def test_decode_refuses(payload):
    with pytest.raises(ReproError):
        JobSpec.decode(payload)


def test_decode_refuses_a_config_of_the_other_kind():
    payload = {"kind": "campaign",
               "config": encode_value(SweepGrid(**TINY_GRID))}
    with pytest.raises(ConfigError, match="a campaign job takes"):
        JobSpec.decode(payload)


def test_unknown_field_is_a_config_error():
    payload = JobSpec("sweep", SweepGrid(**TINY_GRID)).encoded()
    payload["config"]["fields"]["num_cores"] = 2
    with pytest.raises(ConfigError, match="num_cores"):
        JobSpec.decode(payload)


def test_local_spec_takes_only_its_kinds_class():
    with pytest.raises(ConfigError, match="must be a"):
        JobSpec("campaign", SweepGrid(**TINY_GRID))
    with pytest.raises(ConfigError, match="must be a"):
        JobSpec("sweep", {"mitigations": ("PARA",)})


def test_decode_bounds_nesting():
    payload = JobSpec("sweep", SweepGrid(**TINY_GRID)).encoded()
    deep: list = []
    for _ in range(50):
        deep = [deep]
    payload["config"]["fields"]["mitigations"] = deep
    with pytest.raises(ConfigError, match="nests deeper"):
        JobSpec.decode(payload)


def test_submit_errors_leave_the_connection_serving(tmp_path):
    service = CharacterizationService(tmp_path / "jobs",
                                      options=RunOptions(jobs=1))
    service.start()
    try:
        with socket.create_connection(service.bound_address,
                                      timeout=30.0) as sock:
            send_frame(sock, {"type": "hello",
                              "protocol": PROTOCOL_VERSION})
            assert recv_frame(sock)["type"] == "hello"
            for payload in _bad_payloads():
                send_frame(sock, {"type": "submit", "spec": payload})
                assert recv_frame(sock)["type"] == "error"
            assert service.manager.store.list_ids() == ()
            good = JobSpec("sweep", SweepGrid(**TINY_GRID))
            send_frame(sock, {"type": "submit", "spec": good.encoded()})
            reply = recv_frame(sock)
        assert reply["type"] == "job"
        assert reply["job_id"] == good.job_id
    finally:
        service.stop()


# ----------------------------------------------------------------------
# CLI flags and the A.6 file
# ----------------------------------------------------------------------
def _rows(directory) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.json"))
            if p.name != "run_report.json"}


def test_config_file_rows_equal_the_flag_built_rows(tmp_path):
    config = tmp_path / "eval.json"
    config.write_text(json.dumps({
        "mitigations": ["PARA", "Graphene"], "nrh_values": [128],
        "workloads": ["spec06.mcf"], "requests": 200}))
    assert main(["sweep", "--dir", str(tmp_path / "file"), "--jobs", "1",
                 "--config", str(config)]) == 0
    assert main(["sweep", "--dir", str(tmp_path / "flags"), "--jobs", "1",
                 "--mitigations", "PARA,Graphene", "--nrh", "128",
                 "--requests", "200"]) == 0
    rows = _rows(tmp_path / "file")
    assert len(rows) == 8
    assert rows == _rows(tmp_path / "flags")


def test_config_file_naming_a_latency_factor_runs_nothing(tmp_path, capsys):
    config = tmp_path / "eval.json"
    config.write_text(json.dumps({"mitigations": ["PARA"],
                                  "latency_factor_vrr": 0.36}))
    out = tmp_path / "out"
    assert main(["sweep", "--dir", str(out), "--config", str(config)]) != 0
    assert "latency_factor_vrr" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--mitigations", "TRR", "--nrh", "64", "--requests", "100"],
    ["sweep", "--mitigations", "PARA,PARA", "--nrh", "64"],
    ["sweep", "--mitigations", "PARA", "--nrh", "0"],
    ["sweep", "--mitigations", "PARA", "--requests", "-5"],
    ["campaign", "--modules", "ZZ9", "--rows", "1"],
    ["campaign", "--modules", "S6,S6", "--rows", "1"],
])
def test_flags_refused_before_any_point_runs(tmp_path, argv):
    out = tmp_path / "out"
    assert main(argv + ["--dir", str(out)]) == 1
    assert not out.exists()


# ----------------------------------------------------------------------
# property: a spec or a ReproError, nothing else
# ----------------------------------------------------------------------
_SCALARS = (st.none() | st.booleans()
            | st.integers(min_value=-2**70, max_value=2**70)
            | st.floats() | st.text(max_size=6)
            | st.sampled_from(["PARA", "RFM", "H", "none", "S6", "M2",
                               "spec06.mcf", "off", "strict", "array",
                               "scalar", "__t", "__dc"]))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=3)),
    max_leaves=12)
_WIRE = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(lambda xs: {"__t": xs})
                   | st.dictionaries(
                       st.sampled_from(["__t", "__dc", "__p", "__blob",
                                        "fields", "kind", "config"])
                       | st.text(max_size=4), inner, max_size=3)),
    max_leaves=12)
_CLASSES = {"sweep": SweepGrid, "campaign": CampaignConfig}
_FIELDS = {"sweep": list(SweepGrid.__dataclass_fields__),
           "campaign": list(CampaignConfig.__dataclass_fields__)}


def _ends_in_a_spec_or_a_repro_error(build) -> None:
    try:
        build()
    except ReproError:
        pass


@st.composite
def _specs(draw):
    kind = draw(st.sampled_from(sorted(_CLASSES)))
    names = _FIELDS[kind]
    fields = draw(st.dictionaries(st.sampled_from(names), _VALUES,
                                  max_size=len(names)))
    wire_fields = draw(st.dictionaries(
        st.sampled_from(names + ["num_cores", "__dc"]), _WIRE, max_size=4))
    ref = draw(st.sampled_from([
        "repro.analysis.sweeprunner:SweepGrid",
        "repro.characterization.campaign:CampaignConfig",
        "repro.exec:ExecutionPolicy"]))
    envelope = draw(st.sampled_from(["spec", "config", "any"]))
    if envelope == "spec":
        payload = {"kind": draw(st.sampled_from(["sweep", "campaign", "x"])),
                   "config": {"__dc": ref, "fields": wire_fields}}
    elif envelope == "config":
        payload = {"kind": kind, "config": draw(_WIRE)}
    else:
        payload = draw(_WIRE)
    return kind, fields, payload


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_specs())
def test_every_input_ends_in_a_spec_or_a_repro_error(spec):
    kind, fields, payload = spec
    _ends_in_a_spec_or_a_repro_error(lambda: _CLASSES[kind](**fields))
    _ends_in_a_spec_or_a_repro_error(lambda: JobSpec.decode(payload))

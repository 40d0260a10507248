"""The execution policy: the repository's single kernel-resolution site.

Covers the resolution precedence matrix, the once-per-invocation "oracle
forced" note, the one rule at every stage (a layer handed no kernel
resolves under the policy's mode; a concrete kernel from a task builder
runs as given), the CLI's policy wiring, and a lint test that keeps
kernel selection from leaking back into individual layers.
"""

import re
from pathlib import Path

import pytest

from repro.analysis.figures import fig19_periodic
from repro.analysis.runner import run_simulation
from repro.bender.host import DRAMBenderHost
from repro.characterization import sweeps
from repro.characterization.campaign import (
    CampaignConfig,
    CharacterizationCampaign,
)
from repro.cli import main
from repro.errors import ConfigError
from repro.exec import (
    AUTO_KERNELS,
    KERNEL_POLICIES,
    STAGE_KERNELS,
    ExecutionPolicy,
    default_policy,
    resolve_kernel,
    set_default_policy,
    validate_stage_kernel,
)
from repro.sim import arraykernel
from repro.sim.config import SystemConfig
from repro.sim.system import MemorySystem
from repro.validation.checker import ProtocolChecker
from repro.workloads.suites import workload_by_name

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


class TestResolutionMatrix:
    def test_auto_preserves_pre_policy_defaults(self):
        policy = ExecutionPolicy()
        for stage in STAGE_KERNELS:
            assert policy.kernel_for(stage) == AUTO_KERNELS[stage]

    def test_auto_runs_the_array_tier(self):
        policy = ExecutionPolicy()
        assert policy.kernel_for("device") == "array"
        assert policy.kernel_for("sim") == "array"
        assert policy.kernel_for("host") == "stepping"

    def test_scalar_policy_runs_every_oracle(self):
        policy = ExecutionPolicy(kernel_policy="scalar")
        for stage, names in STAGE_KERNELS.items():
            assert policy.kernel_for(stage) == names[0]

    def test_array_policy_picks_array_tier_or_fastest(self):
        policy = ExecutionPolicy(kernel_policy="array")
        assert policy.kernel_for("device") == "array"
        assert policy.kernel_for("sim") == "array"
        # The host stage has no array tier; the fastest kernel stands in.
        assert policy.kernel_for("host") == "compiled"

    def test_explicit_beats_override_and_policy(self):
        # An explicit call-site kernel beats the policy; a layer handed a
        # concrete kernel resolves nothing, so the check override leaves
        # it alone too.
        policy = ExecutionPolicy(kernel_policy="scalar")
        assert policy.kernel_for("device", "vectorized") == "vectorized"
        set_default_policy(ExecutionPolicy(kernel_policy="scalar",
                                           check_protocol="strict"))
        assert DRAMBenderHost("S6", kernel="compiled").kernel == "compiled"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError, match="kernel policy"):
            ExecutionPolicy(kernel_policy="ludicrous")

    def test_unknown_stage_rejected(self):
        with pytest.raises(ConfigError, match="unknown execution stage"):
            validate_stage_kernel("gpu", "scalar")

    def test_policies_cover_stage_kernels(self):
        assert KERNEL_POLICIES == ("scalar", "array", "auto")
        assert STAGE_KERNELS["sim"] == ("scalar", "array")
        for stage, names in STAGE_KERNELS.items():
            assert len(names) in (2, 3)
            assert AUTO_KERNELS[stage] in names


class TestCheckedResolution:
    @pytest.mark.parametrize("mode", ("tolerant", "strict"))
    def test_checking_forces_every_oracle(self, mode):
        policy = ExecutionPolicy(kernel_policy="array", check_protocol=mode)
        for stage, names in STAGE_KERNELS.items():
            assert policy.kernel_for(stage) == names[0]
            # Even an explicit fast-tier request is overridden.
            for fast in names[1:]:
                assert policy.kernel_for(stage, fast) == names[0]

    def test_off_leaves_resolution_alone(self):
        policy = ExecutionPolicy(kernel_policy="array")
        assert policy.kernel_for("sim") == "array"

    def test_per_call_mode_overrides_policy_mode(self):
        policy = ExecutionPolicy(kernel_policy="array", check_protocol="off")
        assert policy.kernel_for("sim", check_protocol="strict") == "scalar"
        checked = ExecutionPolicy(check_protocol="strict")
        assert checked.kernel_for("sim", check_protocol="off") == "array"

    def test_note_emitted_exactly_once_per_policy(self, capsys):
        policy = ExecutionPolicy(kernel_policy="array",
                                 check_protocol="strict")
        for _ in range(3):
            policy.kernel_for("sim")
            policy.kernel_for("device")
        err = capsys.readouterr().err
        assert err.count("oracle") == 1

    def test_no_note_when_oracle_already_chosen(self, capsys):
        policy = ExecutionPolicy(kernel_policy="scalar",
                                 check_protocol="strict")
        policy.kernel_for("sim")
        assert capsys.readouterr().err == ""

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError, match="check-protocol"):
            ExecutionPolicy(check_protocol="paranoid")
        with pytest.raises(ConfigError, match="check-protocol"):
            ExecutionPolicy().kernel_for("sim", check_protocol="paranoid")


class TestDefaultPolicy:
    def test_module_shorthands_use_the_default(self):
        set_default_policy(ExecutionPolicy(kernel_policy="scalar"))
        assert resolve_kernel("sim") == "scalar"
        assert resolve_kernel("device", check_protocol="off") == "scalar"
        assert resolve_kernel("device", "array",
                              check_protocol="strict") == "scalar"

    def test_install_aligns_check_mode(self):
        set_default_policy(ExecutionPolicy(check_protocol="tolerant"))
        assert default_policy().check_protocol == "tolerant"

    def test_non_policy_rejected(self):
        with pytest.raises(ConfigError):
            set_default_policy("array")


#: What ``run --check-protocol strict --kernel-policy array`` installs.
STRICT_ARRAY = dict(kernel_policy="array", check_protocol="strict")


@pytest.fixture
def ran(monkeypatch):
    """The kernels the device and sim stages actually ran, in order."""
    ran = []

    def spy(owner, name, kernel):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            ran.append(kernel)
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    spy(sweeps, "measure_row", "device:scalar")
    spy(sweeps, "measure_rows_array", "device:array")
    spy(MemorySystem, "_run_scalar", "sim:scalar")
    spy(arraykernel, "run_array", "sim:array")
    return ran


def _short_system() -> MemorySystem:
    config = SystemConfig(num_cores=1)
    return MemorySystem(config, [workload_by_name("spec06.mcf",
                                                  requests=50, seed=7)])


class TestEveryStageUnderChecking:
    """Under a non-``off`` policy every layer handed no kernel runs its
    stage's oracle, with one note per policy; a concrete kernel a task
    builder hands down runs as given."""

    def test_host_handed_none_runs_stepping(self):
        set_default_policy(ExecutionPolicy(**STRICT_ARRAY))
        assert DRAMBenderHost("S6").kernel == "stepping"

    def test_layers_handed_none_run_oracles_with_one_note(self, ran, capsys):
        set_default_policy(ExecutionPolicy(**STRICT_ARRAY))
        sweeps.characterize_module("S6", tras_factors=(1.0,), rows=(500,))
        _short_system().run()
        assert DRAMBenderHost("S6").kernel == "stepping"
        assert ran == ["device:scalar", "sim:scalar"]
        assert capsys.readouterr().err.count("oracle") == 1

    def test_layers_handed_none_follow_an_off_policy(self, ran):
        set_default_policy(ExecutionPolicy(kernel_policy="array"))
        sweeps.characterize_module("S6", tras_factors=(1.0,), rows=(500,))
        _short_system().run()
        assert ran == ["device:array", "sim:array"]
        assert DRAMBenderHost("S6").kernel == "compiled"

    def test_builder_kernel_runs_as_given(self, ran, capsys):
        set_default_policy(ExecutionPolicy(**STRICT_ARRAY))
        result = run_simulation(("spec06.mcf",), mitigation="PRAC",
                                requests=200, check_protocol="off",
                                sim_kernel="array")
        assert ran == ["sim:array"]
        assert result.protocol_violations == []
        assert capsys.readouterr().err == ""

    def test_campaign_task_still_resolves_to_the_oracle(self, tmp_path):
        set_default_policy(ExecutionPolicy(**STRICT_ARRAY))
        campaign = CharacterizationCampaign(
            tmp_path, CampaignConfig(module_ids=("S6",), per_region=1,
                                     kernel="array"))
        assert campaign._task("S6").args[3] == "scalar"

    def test_fig19_runs_are_checked_on_the_oracle(self, ran, monkeypatch):
        built = []
        original = ProtocolChecker.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("mode"))
            original(self, *args, **kwargs)
        monkeypatch.setattr(ProtocolChecker, "__init__", counting)
        set_default_policy(ExecutionPolicy(**STRICT_ARRAY))
        fig19_periodic(densities_gbit=(8,), latency_factors=(0.36,),
                       requests=200)
        # The no-refresh baseline and the one latency factor.
        assert built == ["strict", "strict"]
        assert ran == ["sim:scalar", "sim:scalar"]


class TestCliPolicyWiring:
    def test_check_protocol_notes_once_per_invocation(self, tmp_path, capsys):
        out = tmp_path / "checked"
        assert main(["sweep", "--dir", str(out), "--jobs", "1",
                     "--mitigations", "Graphene,PARA", "--nrh", "128",
                     "--requests", "300", "--kernel-policy", "array",
                     "--check-protocol", "tolerant"]) == 0
        err = capsys.readouterr().err
        assert err.count("oracle") == 1

    def test_sweep_prints_cache_summary(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--dir", str(out), "--jobs", "1",
                     "--mitigations", "Graphene", "--nrh", "128",
                     "--requests", "300"]) == 0
        stdout = capsys.readouterr().out
        assert "cache baseline:" in stdout
        assert "persisted=" in stdout

    def test_campaign_summary_prints_no_cache_line(self, tmp_path, capsys):
        # A campaign persists no cache, so its summary names none.
        out = tmp_path / "camp"
        assert main(["campaign", "--dir", str(out), "--jobs", "1",
                     "--modules", "M2", "--rows", "4"]) == 0
        stdout = capsys.readouterr().out
        assert "computed 1" in stdout and "cache" not in stdout


class TestSingleResolutionSite:
    """Lint: kernel selection must not leak back into individual layers.

    Dispatching on an already-resolved name (``if kernel == "array":``)
    is fine; *choosing* a kernel — forced-scalar assignments, check-mode
    conditionals picking kernel literals, or consulting the auto defaults
    — is only legal inside :mod:`repro.exec`.
    """

    BANNED = (
        # forced-oracle assignments (the old CLI/_apply_sim_kernel pattern)
        r'kernel\s*=\s*"scalar"',
        r"kernel\s*=\s*'scalar'",
        # per-layer auto defaults
        r"\bAUTO_KERNELS\b",
        # hardcoded fast-path defaults in signatures
        r'kernel:\s*str\s*=\s*"(vectorized|array|compiled|stepping)"',
    )

    ALLOWED_DIRS = ("exec",)

    def test_no_kernel_selection_outside_the_policy(self):
        offenders = []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            rel = path.relative_to(SRC_ROOT).as_posix()
            if rel.split("/")[0] in self.ALLOWED_DIRS:
                continue
            text = path.read_text()
            for pattern in self.BANNED:
                for match in re.finditer(pattern, text):
                    line = text.count("\n", 0, match.start()) + 1
                    offenders.append(f"{rel}:{line}: {pattern}")
        assert not offenders, (
            "kernel selection leaked outside repro.exec:\n"
            + "\n".join(offenders))

    def test_both_caches_are_the_shared_implementation(self):
        from repro.analysis.baselines import BaselineCache
        from repro.characterization.probecache import ProbeCache
        from repro.runtime.cache import DigestCache

        assert issubclass(ProbeCache, DigestCache)
        assert issubclass(BaselineCache, DigestCache)
        for path in ("characterization/probecache.py",
                     "analysis/baselines.py"):
            text = (SRC_ROOT / path).read_text()
            assert "OrderedDict" not in text, (
                f"{path} regrew its own LRU implementation")

"""The execution policy: the repository's single kernel-resolution site.

Covers the resolution precedence matrix, the once-per-invocation "oracle
forced" note, the CLI's policy wiring, and a lint test that keeps kernel
selection from leaking back into individual layers.
"""

import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.exec import (
    AUTO_KERNELS,
    KERNEL_POLICIES,
    STAGE_KERNELS,
    ExecutionPolicy,
    checked_kernel,
    default_policy,
    resolve_kernel,
    set_default_policy,
    validate_stage_kernel,
)

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
        # The attached-observer default overrides the policy; an explicit
        # call-site kernel beats both.
        policy = ExecutionPolicy(kernel_policy="scalar")
        assert policy.kernel_for("device", "vectorized") == "vectorized"
        assert policy.kernel_for("sim", "array", observer=True) == "array"

    def test_observer_forces_oracle_unless_explicit(self):
        policy = ExecutionPolicy(kernel_policy="array")
        assert policy.kernel_for("sim", observer=True) == "scalar"
        assert policy.kernel_for("sim", "array", observer=True) == "array"

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
            assert policy.checked_kernel_for(stage) == names[0]
            # Even an explicit fast-tier request is overridden.
            for fast in names[1:]:
                assert policy.checked_kernel_for(stage, fast) == names[0]

    def test_off_leaves_resolution_alone(self):
        policy = ExecutionPolicy(kernel_policy="array")
        assert policy.checked_kernel_for("sim") == "array"

    def test_per_call_mode_overrides_policy_mode(self):
        policy = ExecutionPolicy(kernel_policy="array", check_protocol="off")
        assert policy.checked_kernel_for(
            "sim", check_protocol="strict") == "scalar"
        checked = ExecutionPolicy(check_protocol="strict")
        assert checked.checked_kernel_for(
            "sim", check_protocol="off") == "array"

    def test_note_emitted_exactly_once_per_policy(self, capsys):
        policy = ExecutionPolicy(kernel_policy="array",
                                 check_protocol="strict")
        for _ in range(3):
            policy.checked_kernel_for("sim")
            policy.checked_kernel_for("device")
        err = capsys.readouterr().err
        assert err.count("oracle") == 1

    def test_no_note_when_oracle_already_chosen(self, capsys):
        policy = ExecutionPolicy(kernel_policy="scalar",
                                 check_protocol="strict")
        policy.checked_kernel_for("sim")
        assert capsys.readouterr().err == ""

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError, match="check-protocol"):
            ExecutionPolicy(check_protocol="paranoid")
        with pytest.raises(ConfigError, match="check-protocol"):
            ExecutionPolicy().checked_kernel_for(
                "sim", check_protocol="paranoid")


class TestDefaultPolicy:
    def test_module_shorthands_use_the_default(self):
        set_default_policy(ExecutionPolicy(kernel_policy="scalar"))
        assert resolve_kernel("sim") == "scalar"
        assert checked_kernel("device", check_protocol="off") == "scalar"

    def test_install_aligns_check_mode(self):
        set_default_policy(ExecutionPolicy(check_protocol="tolerant"))
        assert default_policy().check_protocol == "tolerant"

    def test_non_policy_rejected(self):
        with pytest.raises(ConfigError):
            set_default_policy("array")


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
        # the forcing *decision* (the reason lives in validation.checker,
        # the decision in the policy)
        r"\brequires_scalar_oracle\b",
        # hardcoded fast-path defaults in signatures
        r'kernel:\s*str\s*=\s*"(vectorized|array|compiled|stepping)"',
    )

    ALLOWED_DIRS = ("exec",)
    ALLOWED_FILES = {
        # the reason-side definition and its re-export
        "validation/checker.py": (r"\brequires_scalar_oracle\b",),
        "validation/__init__.py": (r"\brequires_scalar_oracle\b",),
    }

    def test_no_kernel_selection_outside_the_policy(self):
        offenders = []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            rel = path.relative_to(SRC_ROOT).as_posix()
            if rel.split("/")[0] in self.ALLOWED_DIRS:
                continue
            text = path.read_text()
            for pattern in self.BANNED:
                if pattern in self.ALLOWED_FILES.get(rel, ()):
                    continue
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

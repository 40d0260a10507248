"""The single kernel-resolution site of the repository.

An :class:`ExecutionPolicy` is built once per invocation (CLI) or once
per process (library default), and every layer asks its one resolver,
:meth:`ExecutionPolicy.kernel_for`, which concrete kernel to run.

Stages and their kernels::

    stage     scalar oracle   fast kernel  explicit only
    device    scalar          array        vectorized   (repro.dram.kernels)
    sim       scalar          array        -            (repro.sim.arraykernel)
    host      stepping        compiled     -            (repro.bender.compile)

The sim stage's array tier additionally switches mitigation dispatch
from per-activation calls to the epoch protocol
(:meth:`repro.mitigations.base.MitigationMechanism.on_activation_epoch`)
— a kernel-level change only; the policy still just names the kernel.

``kernel_policy`` selects per stage: ``"scalar"`` runs every oracle,
``"array"`` the numpy structure-of-arrays tier (falling back to the
fastest kernel on stages without one — the host stage's compiled fold),
and ``"auto"`` (default) the array tier on the device and sim stages and
the stepping executor on the host stage.  An explicit kernel passed at a
call site beats the policy; it is the only way to reach the device
stage's ``vectorized`` tier.

One rule covers protocol checking: a call that resolves under any
``check_protocol`` mode but ``off`` runs the stage's oracle, whatever
was picked, and the "oracle" note goes out once per policy (i.e. once
per CLI invocation) when that overrides the pick.  Task builders and
:func:`repro.analysis.runner.run_simulation` resolve under the mode that
applies to them (their grid's or call's, else the policy's) and hand the
concrete kernel down; a layer handed a concrete kernel runs it as given,
and only a layer handed ``None`` resolves, under the policy's own mode.
The oracle runs by rule: only the sim stage is observed (the
:class:`~repro.validation.checker.ProtocolChecker` on its command
stream); the device and host stages run their oracles so that a checked
run exercises the reference implementations end to end.  A lint test
(``tests/test_exec_policy.py``) asserts no other module grows its own
kernel-selection branching again.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from repro.errors import ConfigError

#: Per-stage kernel names: stage -> (scalar oracle, ..., fastest kernel).
#: The first name is always the oracle and the last the kernel the
#: ``array`` policy picks; the device stage keeps its ``vectorized`` tier
#: in between, reachable only by an explicit ``kernel=``.
STAGE_KERNELS: dict[str, tuple[str, ...]] = {
    "device": ("scalar", "vectorized", "array"),
    "sim": ("scalar", "array"),
    "host": ("stepping", "compiled"),
}

#: What ``auto`` resolves to per stage: the array tier wherever one
#: exists, since it is bit-identical to the oracle and the fastest kernel
#: on every measured workload.  The host stage, which has no array tier,
#: keeps the stepping executor as the safe default; ``array`` opts into
#: the compiled fold.
AUTO_KERNELS: dict[str, str] = {
    "device": "array",
    "sim": "array",
    "host": "stepping",
}

#: The selectable policies (``--kernel-policy``).  ``array`` picks each
#: stage's structure-of-arrays tier where one exists and the fastest
#: remaining kernel elsewhere.
KERNEL_POLICIES = ("scalar", "array", "auto")


def _check_modes() -> tuple[str, ...]:
    from repro.validation.checker import CHECK_MODES
    return CHECK_MODES


def fallback_kernel(stage: str, kernel: str) -> str | None:
    """The degradation target if ``kernel`` fails at runtime, or ``None``.

    Graceful degradation always lands on the stage's scalar oracle — the
    reference implementation every fast path is parity-tested against —
    so a numpy edge case in a fast kernel costs one point's speed, never
    its correctness.  Returns ``None`` when ``kernel`` already *is* the
    oracle (there is nothing safer to fall back to).
    """
    validate_stage_kernel(stage, kernel)
    oracle = STAGE_KERNELS[stage][0]
    return None if kernel == oracle else oracle


def validate_stage_kernel(stage: str, kernel: str) -> str:
    """Validate a concrete kernel name for ``stage``."""
    try:
        names = STAGE_KERNELS[stage]
    except KeyError:
        raise ConfigError(
            f"unknown execution stage {stage!r} "
            f"(choose from {', '.join(STAGE_KERNELS)})") from None
    if kernel not in names:
        raise ConfigError(
            f"{stage} kernel must be one of {names}, got {kernel!r}")
    return kernel


@dataclass
class ExecutionPolicy:
    """How one invocation executes: kernels and oracle forcing."""

    kernel_policy: str = "auto"
    check_protocol: str = "off"

    def __post_init__(self) -> None:
        #: Whether the once-per-invocation "oracle forced" note went out.
        self._oracle_noted = False
        if self.kernel_policy not in KERNEL_POLICIES:
            raise ConfigError(
                f"kernel policy must be one of {KERNEL_POLICIES}, "
                f"got {self.kernel_policy!r}")
        if self.check_protocol not in _check_modes():
            raise ConfigError(
                f"check-protocol mode must be one of {_check_modes()}, "
                f"got {self.check_protocol!r}")

    # ------------------------------------------------------------------
    # resolution (the one place kernels are chosen)
    # ------------------------------------------------------------------
    def kernel_for(self, stage: str, explicit: str | None = None, *,
                   check_protocol: str | None = None) -> str:
        """The concrete kernel ``stage`` runs.

        ``explicit`` is the caller's kernel (a config's ``kernel`` field),
        else ``kernel_policy`` picks.  ``check_protocol`` is the mode the
        call runs under, ``None`` meaning the policy's own: under any mode
        but ``off`` the stage's oracle runs instead, and the note goes
        out once per policy when that overrides the pick.
        """
        mode = (self.check_protocol if check_protocol is None
                else check_protocol)
        if mode not in _check_modes():
            raise ConfigError(
                f"check-protocol mode must be one of {_check_modes()}, "
                f"got {mode!r}")
        names = STAGE_KERNELS[stage]
        if explicit is not None:
            pick = validate_stage_kernel(stage, explicit)
        elif self.kernel_policy == "scalar":
            pick = names[0]
        elif self.kernel_policy == "array":
            # The stage's array tier, or the fastest kernel it has (the
            # host stage folds doses analytically either way).
            pick = names[-1]
        else:
            pick = AUTO_KERNELS[stage]
        if mode == "off" or pick == names[0]:
            return pick
        self._note_oracle_forced()
        return names[0]

    def _note_oracle_forced(self) -> None:
        if self._oracle_noted:
            return
        self._oracle_noted = True
        print("note: --check-protocol requires the scalar oracle kernels; "
              "overriding the requested fast path", file=sys.stderr)


# ---------------------------------------------------------------------------
# process-wide default policy
# ---------------------------------------------------------------------------
_default_policy = ExecutionPolicy()


def default_policy() -> ExecutionPolicy:
    """The policy layers consult when no explicit kernel/policy is given."""
    return _default_policy


def set_default_policy(policy: ExecutionPolicy) -> ExecutionPolicy:
    """Install the process-wide default policy (the CLI's one resolution)."""
    global _default_policy
    if not isinstance(policy, ExecutionPolicy):
        raise ConfigError(f"expected an ExecutionPolicy, got {policy!r}")
    _default_policy = policy
    return policy


def reset_default_policy() -> None:
    """Restore the built-in default policy (test isolation)."""
    set_default_policy(ExecutionPolicy())


def resolve_kernel(stage: str, explicit: str | None = None, *,
                   check_protocol: str | None = None) -> str:
    """Default-policy shorthand for :meth:`ExecutionPolicy.kernel_for`."""
    return _default_policy.kernel_for(stage, explicit,
                                      check_protocol=check_protocol)

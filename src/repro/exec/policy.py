"""The single kernel-resolution site of the repository.

Every execution layer used to pick its kernel on its own: the CLI forced
the scalar oracle under ``--check-protocol`` in two places, and
:meth:`MemorySystem.run` special-cased observers.  An
:class:`ExecutionPolicy` replaces all of that: it is built once per
invocation (CLI) or once per process (library default), and every layer
asks it which concrete kernel to run.

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
stage's ``vectorized`` tier.  Protocol checking (``check_protocol !=
"off"``) beats everything: the checker observes the instruction-level
oracles, so the scalar kernel is forced and the "oracle forced" note is
emitted exactly once per policy (i.e. once per CLI invocation).

The forcing *reason* lives with the checker
(:func:`repro.validation.checker.requires_scalar_oracle`); the *decision*
lives here, and a lint test (``tests/test_exec_policy.py``) asserts no
other module grows its own kernel-selection branching again.
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


def _requires_oracle(mode: str) -> bool:
    from repro.validation.checker import requires_scalar_oracle
    return requires_scalar_oracle(mode)


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
                   observer: bool = False) -> str:
        """The concrete kernel ``stage`` should run, checking aside.

        Precedence: an ``explicit`` call-site kernel, then (for the sim
        stage) the attached-observer safety default, then
        ``kernel_policy``.
        """
        names = STAGE_KERNELS[stage]
        scalar = names[0]
        if explicit is not None:
            return validate_stage_kernel(stage, explicit)
        if observer:
            # An attached observer re-validates the per-request command
            # stream; the oracle is the safe default unless a kernel was
            # requested explicitly.
            return scalar
        if self.kernel_policy == "scalar":
            return scalar
        if self.kernel_policy == "array":
            # The stage's array tier, or the fastest kernel it has (the
            # host stage folds doses analytically either way).
            return names[-1]
        return AUTO_KERNELS[stage]

    def checked_kernel_for(self, stage: str, explicit: str | None = None, *,
                           check_protocol: str | None = None) -> str:
        """Like :meth:`kernel_for`, but protocol checking forces the oracle.

        ``check_protocol`` overrides the policy's own mode (e.g. a
        per-call ``check_protocol=`` argument); the "oracle forced" note
        is emitted at most once per policy, and only when the forcing
        actually changed the outcome.
        """
        mode = (check_protocol if check_protocol is not None
                else self.check_protocol)
        if mode not in _check_modes():
            raise ConfigError(
                f"check-protocol mode must be one of {_check_modes()}, "
                f"got {mode!r}")
        scalar = STAGE_KERNELS[stage][0]
        if not _requires_oracle(mode):
            return self.kernel_for(stage, explicit)
        if self.kernel_for(stage, explicit) != scalar:
            self._note_oracle_forced()
        return scalar

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
                   observer: bool = False) -> str:
    """Default-policy shorthand for :meth:`ExecutionPolicy.kernel_for`."""
    return _default_policy.kernel_for(stage, explicit, observer=observer)


def checked_kernel(stage: str, explicit: str | None = None, *,
                   check_protocol: str | None = None) -> str:
    """Default-policy shorthand for
    :meth:`ExecutionPolicy.checked_kernel_for`."""
    return _default_policy.checked_kernel_for(
        stage, explicit, check_protocol=check_protocol)

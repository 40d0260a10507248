"""Cross-cutting execution policy: kernels, oracle forcing, parity.

``repro.exec`` is the single place the repository decides *how* to run:

* :class:`ExecutionPolicy` (:mod:`repro.exec.policy`) — which kernel each
  stage (device characterization, system simulation, program execution)
  uses.  One resolver, :meth:`ExecutionPolicy.kernel_for` (or its
  default-policy shorthand :func:`resolve_kernel`), answers every layer,
  and under any ``check_protocol`` mode but ``off`` it answers with the
  stage's scalar oracle.
* :func:`assert_parity` (:mod:`repro.exec.parity`) — the one
  oracle-comparison harness all parity test suites share.

The companion cache implementation lives in
:mod:`repro.runtime.cache` (one :class:`~repro.runtime.cache.DigestCache`
behind both the probe and baseline caches).
"""

from repro.exec.parity import assert_all_parity, assert_parity, parity_diff
from repro.exec.policy import (
    AUTO_KERNELS,
    KERNEL_POLICIES,
    STAGE_KERNELS,
    ExecutionPolicy,
    default_policy,
    fallback_kernel,
    reset_default_policy,
    resolve_kernel,
    set_default_policy,
    validate_stage_kernel,
)

__all__ = [
    "AUTO_KERNELS",
    "KERNEL_POLICIES",
    "STAGE_KERNELS",
    "ExecutionPolicy",
    "assert_all_parity",
    "assert_parity",
    "default_policy",
    "fallback_kernel",
    "parity_diff",
    "reset_default_policy",
    "resolve_kernel",
    "set_default_policy",
    "validate_stage_kernel",
]

"""Runtime validation: protocol checking, physics guards, fault injection.

Three pillars (see ``README.md`` — "Validating a run"):

* :class:`ProtocolChecker` — an observer on the memory controller's command
  stream that re-validates JEDEC timings, refresh deadlines, and PaCRAM's
  N_PCR envelope while a simulation runs (:mod:`repro.validation.checker`);
* physics guards and model-drift digests for the device model
  (:mod:`repro.validation.physics`);
* a deterministic fault injector with a mutation-testing matrix proving
  every fault class is detected or absorbed
  (:mod:`repro.validation.faults`, :mod:`repro.validation.matrix`).

The CLI turns checking on for every simulation a command starts through
the process-wide :class:`repro.exec.ExecutionPolicy`'s ``check_protocol``;
library callers normally pass ``check_protocol=`` explicitly.
"""

from __future__ import annotations

from repro.validation.checker import (
    CHECK_MODES,
    EPSILON_NS,
    ProtocolChecker,
    Violation,
    make_checker,
)
from repro.validation.physics import (
    MODEL_VERSION,
    check_physics,
    model_digest,
    physics_problems,
)

__all__ = [
    "CHECK_MODES",
    "EPSILON_NS",
    "MODEL_VERSION",
    "ProtocolChecker",
    "Violation",
    "check_physics",
    "make_checker",
    "model_digest",
    "physics_problems",
]

"""Exception hierarchy for the repro library.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors like :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration was supplied."""


class DeviceError(ReproError):
    """An operation was attempted on a DRAM device in an invalid state."""


class ProgramError(ReproError):
    """A DRAM-Bender test program is malformed or used incorrectly."""


class CharacterizationError(ReproError):
    """A characterization routine was invoked with invalid parameters."""


class SimulationError(ReproError):
    """The memory-system simulator reached an inconsistent state."""


class ExecutionError(ReproError):
    """A campaign or sweep finished with permanently failed points.

    Raised by the parallel execution engine after every point has been
    attempted; the per-point error ledger (``errors.jsonl``) holds the
    details of each failed attempt.
    """


class ProtocolViolation(ReproError):
    """A runtime invariant of the DRAM protocol or device physics was broken.

    Raised by :class:`repro.validation.ProtocolChecker` in ``strict`` mode
    when an issued command violates a JEDEC timing constraint, a refresh
    deadline is missed, or PaCRAM's N_PCR/t_FCRI safety envelope is
    exceeded.  In ``tolerant`` mode the same events are appended to a
    ``violations.jsonl`` ledger instead.
    """

    def __init__(self, message: str, *, rule: str = "",
                 time_ns: float = 0.0) -> None:
        super().__init__(message)
        self.rule = rule
        self.time_ns = time_ns


class UnknownModuleError(ReproError):
    """A module id was requested that is not in the tested-module catalog."""

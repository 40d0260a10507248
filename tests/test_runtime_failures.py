"""Unit tests for the failure taxonomy (repro.runtime.failures)."""

from __future__ import annotations

import errno
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import ConfigError, ProgramError
from repro.runtime.failures import (
    FAILURE_CLASSES,
    INFRASTRUCTURE,
    PERMANENT,
    TIMEOUT,
    TRANSIENT,
    TaskTimeout,
    classify_failure,
)


class TestBuiltinClassification:
    def test_timeout(self):
        assert classify_failure(TaskTimeout("deadline")) == TIMEOUT

    def test_broken_pool_is_infrastructure(self):
        assert classify_failure(BrokenProcessPool("died")) == INFRASTRUCTURE

    def test_memory_pressure_is_infrastructure(self):
        assert classify_failure(MemoryError()) == INFRASTRUCTURE
        assert classify_failure(BlockingIOError()) == INFRASTRUCTURE

    @pytest.mark.parametrize("code", [errno.ENOSPC, errno.EROFS, errno.EIO,
                                      errno.EMFILE, errno.ENOMEM])
    def test_resource_oserrors_are_infrastructure(self, code):
        assert classify_failure(OSError(code, "resource")) == INFRASTRUCTURE

    def test_plain_oserror_is_transient(self):
        # No errno, or an errno outside the resource set: worth retrying.
        assert classify_failure(OSError("vague")) == TRANSIENT
        assert classify_failure(OSError(errno.ENOENT, "gone")) == TRANSIENT

    @pytest.mark.parametrize("exc", [ConfigError("bad"), ProgramError("bad")])
    def test_domain_errors_are_permanent(self, exc):
        assert classify_failure(exc) == PERMANENT

    def test_unknown_exception_defaults_to_transient(self):
        assert classify_failure(RuntimeError("??")) == TRANSIENT
        assert classify_failure(ValueError("??")) == TRANSIENT

    def test_taxonomy_is_closed(self):
        assert FAILURE_CLASSES == (TRANSIENT, PERMANENT, TIMEOUT,
                                   INFRASTRUCTURE)

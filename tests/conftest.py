"""Shared fixtures: small hosts, configs, and traces for fast tests."""

from __future__ import annotations

import errno
from pathlib import Path

import pytest

from repro.bender.host import DRAMBenderHost
from repro.exec import reset_default_policy
from repro.sim.config import SystemConfig
from repro.workloads.synth import TraceSpec, generate_trace


@pytest.fixture(autouse=True)
def _fresh_execution_state():
    """Isolate the process-wide execution policy."""
    reset_default_policy()
    yield
    reset_default_policy()


@pytest.fixture()
def coordinator_disk_full_once(monkeypatch):
    """Arms a one-shot ``ENOSPC`` on the fleet coordinator's publish of a
    named result file; call the fixture's value with the file name.

    Arming patches this process's ``repro.runtime.distributed.write_atomic``
    from then on: fleet workers forked earlier keep the real one, and a
    local pool never publishes, so it is untouched.
    """
    from repro.runtime import distributed
    write = distributed.write_atomic
    armed: set[str] = set()

    def full_once(path, text, **options):
        if Path(path).name in armed:
            armed.discard(Path(path).name)
            raise OSError(errno.ENOSPC, "No space left on device", str(path))
        return write(path, text, **options)

    def arm(name: str) -> None:
        armed.add(name)
        monkeypatch.setattr(distributed, "write_atomic", full_once)

    return arm


@pytest.fixture(scope="session")
def host_s6() -> DRAMBenderHost:
    """A host connected to module S6 (the PaCRAM-S reference module)."""
    return DRAMBenderHost("S6", seed=2025)


@pytest.fixture(scope="session")
def host_h5() -> DRAMBenderHost:
    """A host connected to module H5 (the PaCRAM-H reference module)."""
    return DRAMBenderHost("H5", seed=2025)


@pytest.fixture()
def single_core_config() -> SystemConfig:
    return SystemConfig(num_cores=1)


@pytest.fixture()
def quad_core_config() -> SystemConfig:
    return SystemConfig(num_cores=4)


@pytest.fixture(scope="session")
def small_trace():
    """A short, memory-intensive trace for simulator tests."""
    spec = TraceSpec(name="test.intense", mpki=30.0, locality=0.5,
                     footprint_lines=4096, write_fraction=0.3)
    return generate_trace(spec, requests=1500, seed=3)


@pytest.fixture(scope="session")
def hot_trace():
    """A trace with strong hot-row skew (exercises row trackers)."""
    spec = TraceSpec(name="test.hot", mpki=25.0, locality=0.2,
                     footprint_lines=8192, write_fraction=0.2,
                     hot_fraction=0.5, hot_lines=64)
    return generate_trace(spec, requests=1500, seed=5)

"""Memoization of no-PaCRAM baseline simulation results.

The evaluation figures normalize against baseline runs that do not depend
on the swept axis: Fig. 16 divides each tRAS factor's IPC by the same
mitigation's no-PaCRAM IPC, and Figs. 17/18 divide each PaCRAM point by
the same mitigation's no-PaCRAM point at the same N_RH.  Those baselines
are pure functions of (workloads, trace content, request count, seed,
mitigation, N_RH, system config) — so, like the characterization
:class:`~repro.characterization.probecache.ProbeCache`, they can be
memoized with zero behavior change.

The cache is a thin instantiation of
:class:`repro.runtime.cache.DigestCache` (one shared implementation with
the characterization probe cache), bound to a *code digest*
(:func:`baseline_code_digest`) that hashes every constant of the
timing/energy/mitigation model that shapes a result without appearing in
the key.  :meth:`~DigestCache.ensure` drops all entries when the digest
drifts, so editing the simulator can never serve stale statistics.

Entries optionally persist to disk, one atomic JSON file per key.  A
sweep keeps them in its own directory
(:meth:`~repro.analysis.sweeprunner.SweepRunner.cache_dir`), and
``sweep --force`` clears them.  Every no-PaCRAM point of a grid is a
distinct baseline, so a sweep's first run misses on every lookup; the
entries serve a later reader of the same directory — Fig. 16 pointed at
the sweep's cache, or the rerun of a lost row.

Only *unchecked, no-PaCRAM* runs are cached (:func:`cacheable`): PaCRAM
runs depend on the swept latency factor, and checked runs must actually
execute to observe violations.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.errors import SimulationError
from repro.runtime.cache import DigestCache
from repro.sim.config import SystemConfig
from repro.sim.stats import ControllerStats, CoreStats, LatencySummary
from repro.sim.system import SimulationResult
from repro.workloads.trace import Trace

#: Bump when the cached-result schema or any hashed semantics change in a
#: way the constant digest cannot see (e.g. a control-flow fix).
SCHEMA_VERSION = 2

#: In-memory entry bound; a full fig17-style grid holds well under this.
DEFAULT_MAXSIZE = 512


def baseline_code_digest() -> str:
    """Digest of every model constant that shapes a baseline result.

    The cache key captures the *inputs* (workloads, traces, config); this
    digest captures the *simulator*: timing-independent energy constants,
    controller behavior knobs, and each mitigation's tuning constants.
    Editing any of them invalidates every cached baseline on next use.
    """
    from repro.mitigations import graphene, hydra, para, prac, rfm
    from repro.sim import energy
    from repro.sim.controller import MemoryController

    constants = {
        "schema": SCHEMA_VERSION,
        "energy": {
            "act_base": energy.E_ACT_BASE_NJ,
            "restore_per_ns": energy.E_RESTORE_PER_NS,
            "read": energy.E_READ_NJ,
            "write": energy.E_WRITE_NJ,
            "background_w": energy.P_BACKGROUND_W_PER_RANK,
        },
        "controller": {
            "forward_latency_ns": MemoryController.FORWARD_LATENCY_NS,
        },
        "mitigations": {
            "para_strength": para.PARA_STRENGTH,
            "graphene": [graphene.THRESHOLD_FRACTION,
                         graphene.ACTS_PER_WINDOW],
            "hydra": [hydra.GROUP_SIZE, hydra.RCC_ENTRIES,
                      hydra.GROUP_FRACTION, hydra.ROW_FRACTION],
            "rfm_divisor": rfm.RAAIMT_DIVISOR,
            "prac": [prac.ACT_PENALTY_NS, prac.BACKOFF_FRACTION],
        },
    }
    blob = json.dumps(constants, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def trace_digest(trace: Trace) -> str:
    """Content digest of one trace's arrays (name excluded on purpose:
    identical streams under different labels are the same workload)."""
    h = hashlib.sha256()
    h.update(trace.bubbles.tobytes())
    h.update(trace.is_write.tobytes())
    h.update(trace.addresses.tobytes())
    return h.hexdigest()[:16]


def baseline_key(workloads: tuple[str, ...], traces: list[Trace], *,
                 mitigation: str, nrh: int, requests: int, seed: int,
                 config: SystemConfig) -> str:
    """Identity of one baseline run: every input the result depends on.

    The simulation kernel is deliberately *not* part of the key — the
    array kernel is bit-exact with the scalar oracle, so either may
    populate an entry the other consumes (the parity suite enforces this).
    """
    from dataclasses import asdict

    raw = {
        "workloads": list(workloads),
        "traces": [trace_digest(t) for t in traces],
        "mitigation": mitigation,
        "nrh": nrh,
        "requests": requests,
        "seed": seed,
        "config": asdict(config),
    }
    return json.dumps(raw, sort_keys=True)


def cacheable(*, pacram, checker) -> bool:
    """Whether a run's result may be served from / stored in the cache."""
    return pacram is None and checker is None


# ---------------------------------------------------------------------------
# SimulationResult <-> JSON (exact float round trip via repr)
# ---------------------------------------------------------------------------
def result_to_json(result: SimulationResult) -> dict:
    from dataclasses import asdict

    if result.protocol_violations:
        raise SimulationError("refusing to cache a checked run's result")
    payload = asdict(result)
    payload.pop("protocol_violations")
    return payload


def result_from_json(payload: dict) -> SimulationResult:
    return SimulationResult(
        core_stats=[CoreStats(**s) for s in payload["core_stats"]],
        controller_stats=ControllerStats(**payload["controller_stats"]),
        elapsed_ns=payload["elapsed_ns"],
        preventive_busy_fraction=payload["preventive_busy_fraction"],
        energy_nj=payload["energy_nj"],
        energy_breakdown=dict(payload["energy_breakdown"]),
        read_latency=LatencySummary(**payload["read_latency"]),
    )


class BaselineCache(DigestCache):
    """Digest-bound LRU memo of baseline :class:`SimulationResult`\\ s.

    ``disk_dir`` adds the repository's one persisted cache (a sweep's,
    under its results directory): entries are written as one atomic JSON
    file each (safe under parallel sweep workers) and read back on
    in-memory misses; files bound to a stale digest are ignored.  Every
    :meth:`get` returns a *fresh* result object so callers can mutate
    their copy freely.
    """

    name = "baseline"
    file_prefix = "baseline"

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE,
                 disk_dir: str | Path | None = None) -> None:
        super().__init__(maxsize, disk_dir)

    def encode(self, result: SimulationResult) -> dict:
        return result_to_json(result)

    def decode(self, payload: dict) -> SimulationResult:
        return result_from_json(payload)

    def valid_payload(self, payload: object) -> bool:
        return isinstance(payload, dict)

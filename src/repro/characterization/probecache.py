"""Deterministic probe cache for Algorithm 1 RowHammer tests.

The device model is deterministic: a ``perform_rh`` probe is a pure
function of the calibrated charge model plus the probe coordinates
``(bank, victim, pattern, hammer_count, tras_red_ns, n_pr, temperature)``.
Algorithm 1 re-runs identical probes constantly — five iterations per test
point, the worst-case-pattern search repeating the ``hc_high`` probe, and
bisection revisiting hammer counts across iterations — so memoizing them
is free speedup with zero behavior change.

The cache is a thin instantiation of
:class:`repro.runtime.cache.DigestCache` (one shared implementation with
the sweep :class:`~repro.analysis.baselines.BaselineCache`), bound to a
*model digest* (:func:`repro.validation.physics.model_digest`) that hashes
the module's calibrated spec, vendor charge profile, anchor curves, and
retention parameters.  :meth:`~DigestCache.ensure` compares the current
digest against the bound one and drops every entry when they differ, so
recalibration (or any drift in the physics tables) can never serve stale
flip counts.  The cache lives in memory only: one instance per module
characterization, so nothing persists under a campaign directory.
"""

from __future__ import annotations

from repro.runtime.cache import DigestCache

#: Probe key: (bank, victim, pattern, hammer_count, tras_red_ns, n_pr,
#: temperature_c).  Everything a probe's outcome depends on besides the
#: calibrated model itself (which the digest covers).
ProbeKey = tuple

#: Default entry bound.  A full-bank sweep probes ~15 points per row per
#: test point; 2^18 entries hold several banks' worth of sweeps.
DEFAULT_MAXSIZE = 1 << 18


class ProbeCache(DigestCache):
    """Bounded LRU memo of ``perform_rh`` outcomes, keyed by probe
    coordinates and bound to a calibrated-model digest."""

    name = "probe"

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE) -> None:
        super().__init__(maxsize)

    def key_text(self, key: ProbeKey) -> str:
        # Pattern enums stringify through their name; everything else in a
        # probe key is a primitive with a stable repr.
        return repr(tuple(getattr(part, "name", part) for part in key))

    def encode(self, value: int) -> int:
        return int(value)

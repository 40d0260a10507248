"""Device-physics invariant guards and model-drift digests.

Two complementary defenses for the device model:

* :func:`check_physics` runs :meth:`repro.dram.charge.ChargeModel.
  check_invariants` for a module — charge proxies in [0, 1], monotone
  restoration-margin and N_PCR curves, non-negative leakage — raising
  :class:`ProtocolViolation` in strict mode.
* :func:`model_digest` fingerprints everything that determines a module's
  simulated physics: the catalog's published measurements, the *live*
  vendor profile, the calibrated interpolation anchors, the retention
  parameters, and the campaign seed.  Characterization results carry this
  digest (``ModuleCharacterization.model_digest``), so a campaign resumed
  after the model or its calibration changed detects the drift instead of
  silently mixing results from two different models.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any

from repro.dram.catalog import module_spec
from repro.dram.charge import _MARGIN_ANCHORS, _RETENTION, ChargeModel
from repro.dram.vendor import vendor_profile
from repro.errors import ProtocolViolation

#: Bump when the physics equations change shape (not just calibration) so
#: old characterization results are flagged as drifted.
MODEL_VERSION = 1


def physics_problems(module_id: str) -> list[str]:
    """All physics-invariant problems for one module (empty = clean)."""
    spec = module_spec(module_id)
    return ChargeModel(spec).check_invariants()


def check_physics(module_id: str, *, mode: str = "strict") -> list[str]:
    """Validate one module's device physics.

    Returns the problem list in ``tolerant`` mode; raises
    :class:`ProtocolViolation` on the first problem in ``strict`` mode.
    """
    problems = physics_problems(module_id)
    if problems and mode == "strict":
        raise ProtocolViolation(
            f"{module_id}: {len(problems)} physics invariant problem(s); "
            f"first: {problems[0]}", rule="physics.invariant")
    return problems


def _canon(value: Any) -> Any:
    """Convert calibration structures to a JSON-stable canonical form."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _canon(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return [[_canon(k), _canon(v)] for k, v in sorted(value.items())]
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


#: Digests computed in this process: ``(module_id, seed's type, seed,
#: MODEL_VERSION, id of each calibration object)`` -> ``(digest, the
#: objects)``.  Holding the objects keeps their ids from being recycled.
#: Threads that race on it can only compute a digest twice.
_DIGESTS: dict[tuple, tuple[str, tuple]] = {}
#: Entries kept before the memo starts over (a campaign uses one per
#: module and seed: 30 for the whole catalog).
_DIGESTS_BOUND = 256


def model_digest(module_id: str, seed: int | None = None) -> str:
    """Deterministic fingerprint of one module's simulated physics.

    Covers the published catalog numbers, the live vendor profile (so a
    monkeypatched profile changes the digest), the calibrated anchor
    curves, the retention parameters, and the model version.  A campaign
    ``seed`` may be folded in so results from different seed trees never
    mix.

    Computed once per process for each ``(module_id, seed,
    MODEL_VERSION)`` and set of calibration objects: the catalog spec,
    ``vendor_profile(...)``, ``_RETENTION[...]`` and
    ``_MARGIN_ANCHORS[...]``, looked up live on every call and told apart
    by identity.  Putting a new object in any of those tables (as the
    ``vendor-profile-drift`` fault scenario does) recomputes; an in-place
    edit of a calibration object, such as a new key in a shared anchor
    dict, is not seen.
    """
    spec = module_spec(module_id)
    manufacturer = spec.manufacturer
    calibration = (spec, vendor_profile(manufacturer),
                   _RETENTION[manufacturer], _MARGIN_ANCHORS[manufacturer])
    key = (module_id, type(seed), seed, MODEL_VERSION,
           *map(id, calibration))
    known = _DIGESTS.get(key)
    if known is not None:
        return known[0]
    digest = _compute_digest(calibration, seed)
    if len(_DIGESTS) >= _DIGESTS_BOUND:
        _DIGESTS.clear()
    _DIGESTS[key] = (digest, calibration)
    return digest


def _compute_digest(calibration: tuple, seed: int | None) -> str:
    """Build and hash the digest payload (:func:`model_digest`'s miss)."""
    spec, profile, retention, margin_anchors = calibration
    model = ChargeModel(spec, profile)
    payload = {
        "model_version": MODEL_VERSION,
        "module": _canon(spec),
        "vendor_profile": _canon(profile),
        "single_ratio_anchors": _canon(model._single_ratio_anchors),
        "repeated_ratio_anchors": _canon(model._repeated_ratio_anchors),
        "npcr_anchors": _canon(model._npcr_anchors),
        "margin_anchors": _canon(margin_anchors),
        "retention": _canon(retention),
        "seed": seed,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()

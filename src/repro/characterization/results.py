"""Result containers for characterization runs, with JSON round-tripping."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import CharacterizationError
from repro.runtime.persist import write_atomic


@dataclass(frozen=True)
class RowMeasurement:
    """One row's measured RowHammer characteristics at one test point.

    ``nrh`` semantics follow the paper: ``0`` means the row exhibited
    bitflips without hammering (retention failure); ``None`` means no
    bitflips were observed up to the search bound (the row — or whole module,
    e.g. H0 — is not vulnerable at this test point).
    """

    bank: int
    row: int
    tras_factor: float
    n_pr: int
    temperature_c: float
    wcdp: str  #: short name of the worst-case data pattern
    nrh: int | None
    ber: float

    def vulnerable(self) -> bool:
        return self.nrh is not None and self.nrh > 0

    def retention_failed(self) -> bool:
        return self.nrh == 0


@dataclass
class ModuleCharacterization:
    """All measurements taken on one module in one campaign."""

    module_id: str
    seed: int
    measurements: list[RowMeasurement] = field(default_factory=list)
    #: Fingerprint of the device-model calibration that produced these
    #: measurements (:func:`repro.validation.model_digest`).  Campaign
    #: resumes compare it against the live model to detect silent model
    #: drift, and refuse a result that carries none.
    model_digest: str | None = None

    def add(self, measurement: RowMeasurement) -> None:
        self.measurements.append(measurement)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def at(self, *, tras_factor: float | None = None, n_pr: int | None = None,
           temperature_c: float | None = None) -> list[RowMeasurement]:
        """Measurements matching the given test point (None = any)."""
        out = []
        for m in self.measurements:
            if tras_factor is not None and abs(m.tras_factor - tras_factor) > 1e-9:
                continue
            if n_pr is not None and m.n_pr != n_pr:
                continue
            if temperature_c is not None and abs(m.temperature_c - temperature_c) > 0.75:
                continue
            out.append(m)
        return out

    def lowest_nrh(self, tras_factor: float, n_pr: int = 1) -> int | None:
        """Lowest measured N_RH across rows at a test point (Table 3 cell).

        Returns 0 if any row shows retention bitflips, None if no row shows
        any bitflips at all.
        """
        rows = self.at(tras_factor=tras_factor, n_pr=n_pr)
        if not rows:
            raise CharacterizationError(
                f"no measurements at factor={tras_factor}, n_pr={n_pr}")
        if any(m.retention_failed() for m in rows):
            return 0
        values = [m.nrh for m in rows if m.nrh is not None]
        if not values:
            return None
        return min(values)

    def normalized_nrh(self, tras_factor: float, n_pr: int = 1) -> list[float]:
        """Per-row N_RH at a test point normalized to the same row's N_RH at
        nominal latency with a single restoration (Fig. 6 data points)."""
        baseline = {(m.bank, m.row): m.nrh
                    for m in self.at(tras_factor=1.00, n_pr=1)
                    if m.vulnerable()}
        out = []
        for m in self.at(tras_factor=tras_factor, n_pr=n_pr):
            base = baseline.get((m.bank, m.row))
            if base:
                out.append((m.nrh or 0) / base)
        return out

    def normalized_ber(self, tras_factor: float, n_pr: int = 1) -> list[float]:
        """Per-row BER normalized to nominal latency (Fig. 9 data points)."""
        baseline = {(m.bank, m.row): m.ber
                    for m in self.at(tras_factor=1.00, n_pr=1) if m.ber > 0}
        out = []
        for m in self.at(tras_factor=tras_factor, n_pr=n_pr):
            base = baseline.get((m.bank, m.row))
            if base:
                out.append(m.ber / base)
        return out

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        payload = {
            "module_id": self.module_id,
            "seed": self.seed,
            "model_digest": self.model_digest,
            # RowMeasurement's fields are flat scalars, so its instance
            # dict (in field order) encodes to the same bytes as
            # ``asdict`` without deep-copying every measurement.
            "measurements": [vars(m) for m in self.measurements],
        }
        return json.dumps(payload, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "ModuleCharacterization":
        """Parse and validate a persisted characterization.

        Truncated or schema-invalid payloads (e.g. a file cut short by a
        crash mid-write before saves were atomic) raise
        :class:`~repro.errors.CharacterizationError` so callers can
        quarantine and re-run instead of dying on a raw ``KeyError`` /
        ``JSONDecodeError``.
        """
        try:
            payload = json.loads(text)
            result = cls(module_id=payload["module_id"], seed=payload["seed"],
                         model_digest=payload.get("model_digest"))
            for raw in payload["measurements"]:
                result.add(RowMeasurement(**raw))
        except (ValueError, KeyError, TypeError) as error:
            raise CharacterizationError(
                f"invalid characterization payload: {error}") from error
        if not isinstance(result.module_id, str):
            raise CharacterizationError(
                f"invalid module_id: {result.module_id!r}")
        return result

    def save(self, path: str | Path, *, durable: bool = False) -> None:
        """Persist atomically; ``durable`` fsyncs through to stable storage.

        Campaign workers save durably.  Resume validates a file before
        reusing it, so one that a power loss empties is quarantined and
        recomputed, never trusted; the fsync spares that recompute of the
        most expensive artifact in the repo.
        """
        write_atomic(path, self.to_json(), durable=durable)

    @classmethod
    def load(cls, path: str | Path) -> "ModuleCharacterization":
        return cls.from_json(Path(path).read_text())

"""Result containers for characterization runs, with JSON round-tripping."""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, NamedTuple

from repro.errors import CharacterizationError
from repro.runtime.persist import write_atomic


class RowMeasurement(NamedTuple):
    """One row's measured RowHammer characteristics at one test point.

    ``nrh`` semantics follow the paper: ``0`` means the row exhibited
    bitflips without hammering (retention failure); ``None`` means no
    bitflips were observed up to the search bound (the row — or whole module,
    e.g. H0 — is not vulnerable at this test point).

    A named tuple, so a reloaded result builds each measurement with one
    ``tuple.__new__`` call and no per-field attribute writes.
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


#: The JSON types each persisted measurement field may hold, in field
#: order: what :meth:`ModuleCharacterization.to_json` writes.  ``json``
#: parses to exact types, so a ``bool`` is no ``int`` here.
_FIELD_TYPES: dict[str, frozenset[type]] = {
    "bank": frozenset({int}), "row": frozenset({int}),
    "tras_factor": frozenset({float}), "n_pr": frozenset({int}),
    "temperature_c": frozenset({float}), "wcdp": frozenset({str}),
    "nrh": frozenset({int, type(None)}), "ber": frozenset({float}),
}
_KEYS = frozenset({RowMeasurement._fields})
_new_measurement = functools.partial(tuple.__new__, RowMeasurement)

#: ``json.dumps(..., indent=1)`` runs the pure-Python encoder.  This C
#: encoder writes each measurement as an array of its values, one value
#: per line at the depth ``indent=1`` puts them; :data:`_RECORD` is one
#: measurement as ``indent=1`` writes it, with a slot per value.
_ITEM = ",\n   "
_encode = json.JSONEncoder(separators=(_ITEM, ": ")).encode
_RECORD = "{\n   " + _ITEM.join(
    f'"{name}": %s' for name in RowMeasurement._fields) + "\n  }"


def _measurements(raws: Any) -> list[RowMeasurement]:
    """Build a parsed payload's measurements, checked column by column:
    each must be an object with the fields as keys, in order, and values
    of the :data:`_FIELD_TYPES`."""
    try:
        if type(raws) is list and set(map(tuple, raws)) <= _KEYS:
            values = list(map(dict.values, raws))
            if all(set(map(type, column)) <= types for column, types
                   in zip(zip(*values), _FIELD_TYPES.values())):
                return list(map(_new_measurement, values))
    except TypeError:  # an element that is no object
        pass
    raise CharacterizationError(
        f"invalid characterization payload: {_refusal(raws)}")


def _refusal(raws: Any) -> str:
    """Name the first thing :func:`_measurements` refused."""
    if type(raws) is not list:
        return f"measurements is a {type(raws).__name__}, not a list"
    for index, raw in enumerate(raws):
        if type(raw) is not dict:
            return f"measurement {index} is a {type(raw).__name__}"
        if tuple(raw) != RowMeasurement._fields:
            return (f"measurement {index} has the keys {list(raw)}, not "
                    f"{list(RowMeasurement._fields)}")
        for (name, value), types in zip(raw.items(), _FIELD_TYPES.values()):
            if type(value) not in types:
                expected = " or ".join(sorted(
                    "null" if t is type(None) else t.__name__
                    for t in types))
                return (f"measurement {index}: {name} is {value!r}, not "
                        f"{expected}")
    return "measurements refused"


@dataclass
class ModuleCharacterization:
    """All measurements taken on one module in one campaign.

    Persisted as ``json.dumps(..., indent=1)`` of its fields, which
    :meth:`to_json` writes through the C encoder.  :meth:`from_json`
    type-checks every field it reads back, and a campaign resume compares
    :attr:`model_digest` with the live model's, which
    :func:`repro.validation.model_digest` computes once per process for a
    module, seed and set of calibration objects.
    """

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

    def normalized(self, metric: str, tras_factor: float, n_pr: int = 1,
                   temperature_c: float | None = None,
                   ) -> list[tuple[float, float]]:
        """``(nominal, ratio)`` per row at a test point (Figs. 6 and 8-11).

        ``nominal`` is the row's ``metric`` (``"nrh"`` or ``"ber"``) at
        nominal latency with a single restoration, and ``ratio`` its value
        at the test point over that; a row without bitflips there (``nrh``
        ``None``) counts as 0.  Rows whose nominal value is not positive
        are left out.  ``temperature_c`` (``None`` = any) selects both
        measurements.
        """
        nominal = {}
        for m in self.at(tras_factor=1.00, n_pr=1,
                         temperature_c=temperature_c):
            value = getattr(m, metric)
            if value is not None and value > 0:
                nominal[(m.bank, m.row)] = value
        out = []
        for m in self.at(tras_factor=tras_factor, n_pr=n_pr,
                         temperature_c=temperature_c):
            base = nominal.get((m.bank, m.row))
            if base:
                value = getattr(m, metric)
                out.append((base, (0 if value is None else value) / base))
        return out

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """The result as ``json.dumps(payload, indent=1)`` writes it, byte
        for byte, at C-encoder speed."""
        head = json.dumps({"module_id": self.module_id, "seed": self.seed,
                           "model_digest": self.model_digest,
                           "measurements": []}, indent=1)
        if not self.measurements:
            return head
        # An encoded string holds no raw newline, so the item separator
        # splits the encoded arrays into exactly their values, which fill
        # one record slot each.
        values = _encode(self.measurements)[2:-2].replace(
            f"]{_ITEM}[", _ITEM).split(_ITEM)
        body = ",\n  ".join([_RECORD] * len(self.measurements)) \
            % tuple(values)
        # ``head`` ends in the empty list's ``[]\n}``.
        return head[:-4] + "[\n  " + body + "\n ]\n}"

    @classmethod
    def from_json(cls, text: str) -> "ModuleCharacterization":
        """Parse and validate a persisted characterization.

        A truncated or schema-invalid payload (e.g. a file cut short by a
        crash mid-write before saves were atomic), a measurement whose
        keys are not the fields in order, and a value of another type than
        the writer writes (a string or ``bool`` ``nrh``, a ``null`` BER, a
        float in an int field) raise
        :class:`~repro.errors.CharacterizationError`, so callers
        quarantine and re-run instead of dying on a raw ``KeyError`` /
        ``JSONDecodeError`` or reusing a value the analysis cannot read.
        """
        try:
            payload = json.loads(text)
            module_id, seed = payload["module_id"], payload["seed"]
            digest = payload.get("model_digest")
            raws = payload["measurements"]
        except (ValueError, KeyError, TypeError, RecursionError) as error:
            raise CharacterizationError(
                f"invalid characterization payload: {error}") from error
        if type(module_id) is not str:
            raise CharacterizationError(f"invalid module_id: {module_id!r}")
        if type(seed) is not int:
            raise CharacterizationError(f"invalid seed: {seed!r}")
        if digest is not None and type(digest) is not str:
            raise CharacterizationError(f"invalid model_digest: {digest!r}")
        return cls(module_id, seed, _measurements(raws), digest)

    def save(self, path: str | Path) -> None:
        """Persist atomically, without an fsync.

        A campaign task saves here and the engine commits the file once
        it has loaded it back (:func:`repro.runtime.persist.commit`).
        Resume validates a file before reusing it, so one that a power
        loss before the commit empties is quarantined and recomputed,
        never trusted.
        """
        write_atomic(path, self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "ModuleCharacterization":
        return cls.from_json(Path(path).read_text())

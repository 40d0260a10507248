"""RowHammer mitigation mechanisms evaluated by the paper (§9.1).

Five state-of-the-art preventive-refresh mechanisms, each implemented as a
memory-controller plugin:

* :class:`~repro.mitigations.para.PARA` — probabilistic adjacent-row
  activation (high-performance-overhead, near-zero area);
* :class:`~repro.mitigations.rfm.RFM` — DDR5 refresh management with
  per-bank rolling activation counters;
* :class:`~repro.mitigations.prac.PRAC` — per-row activation counters in
  DRAM with back-off;
* :class:`~repro.mitigations.hydra.Hydra` — hybrid tracking with group
  counters, a row-counter cache, and counter metadata stored in DRAM;
* :class:`~repro.mitigations.graphene.Graphene` — Misra-Gries frequent-item
  tracking (high-area-overhead, lowest performance overhead).

All mechanisms use a blast radius of 2 (preventive refreshes cover the four
rows within +/- 2 of an aggressor) to account for Half-Double (§9.1).
"""

from repro.mitigations.base import (
    BLAST_ROWS,
    MetadataAccess,
    MitigationMechanism,
    NoMitigation,
    PreventiveRefresh,
    RfmCommand,
)
from repro.mitigations.para import PARA
from repro.mitigations.rfm import RFM
from repro.mitigations.prac import PRAC
from repro.mitigations.hydra import Hydra
from repro.mitigations.graphene import Graphene

MITIGATION_CLASSES = {
    "None": NoMitigation,
    "PARA": PARA,
    "RFM": RFM,
    "PRAC": PRAC,
    "Hydra": Hydra,
    "Graphene": Graphene,
}


def make_mitigation(name: str, nrh: int, *, batched: bool = False,
                    config=None, **kwargs) -> MitigationMechanism:
    """Instantiate a mitigation by name, configured for a RowHammer threshold.

    With ``batched=True``, mechanisms that have a flattened variant in
    :mod:`repro.mitigations.batched` use it (decisions stay bit-identical);
    the rest fall back to their scalar class.  ``config`` (a
    :class:`~repro.sim.config.SystemConfig`) sizes the flattened tables —
    without it the batched variants use safe defaults.
    """
    try:
        cls = MITIGATION_CLASSES[name]
    except KeyError:
        raise ValueError(
            f"unknown mitigation {name!r}; known: {sorted(MITIGATION_CLASSES)}"
        ) from None
    if batched:
        from repro.mitigations.batched import BATCHED_CLASSES
        batched_cls = BATCHED_CLASSES.get(name)
        if batched_cls is not None:
            cls = batched_cls
            if config is not None:
                if name in ("Graphene", "Hydra"):
                    kwargs.setdefault("total_banks", config.total_banks)
                if name == "Hydra":
                    kwargs.setdefault("rows_per_bank", config.rows_per_bank)
    return cls(nrh=nrh, **kwargs)


__all__ = [
    "BLAST_ROWS",
    "MitigationMechanism",
    "NoMitigation",
    "PreventiveRefresh",
    "RfmCommand",
    "MetadataAccess",
    "PARA",
    "RFM",
    "PRAC",
    "Hydra",
    "Graphene",
    "MITIGATION_CLASSES",
    "make_mitigation",
]

"""Data-retention characterization under partial restoration (§7, Fig. 14).

:func:`retention_failure_fractions` derives the bank-scale fraction of rows
with retention failures from the device physics.  Fig. 14's fractions
(1e-6 .. 1e-2) are too small for row sampling to resolve without testing
every row of every bank.
"""

from __future__ import annotations

from repro.dram.catalog import module_spec
from repro.dram.charge import ChargeModel
from repro.units import MS

#: The retention times the paper tests (§7).
RETENTION_TIMES_NS: tuple[float, ...] = (
    64 * MS, 96 * MS, 128 * MS, 256 * MS, 512 * MS, 1024 * MS)


def retention_failure_fractions(module_id: str, *,
                                tras_factors: tuple[float, ...],
                                n_restorations: tuple[int, ...] = (1, 10),
                                retention_times_ns: tuple[float, ...] = RETENTION_TIMES_NS,
                                temperature_c: float = 80.0,
                                ) -> dict[tuple[float, int, float], float]:
    """Bank-scale fraction of rows with retention failures (Fig. 14).

    Keys are ``(tras_factor, n_pr, retention_time_ns)``.
    """
    charge = ChargeModel(module_spec(module_id))
    out: dict[tuple[float, int, float], float] = {}
    for factor in tras_factors:
        for n_pr in n_restorations:
            for wait_ns in retention_times_ns:
                out[(factor, n_pr, wait_ns)] = charge.retention_fail_fraction(
                    factor, n_pr, wait_ns, temperature_c=temperature_c)
    return out

"""RowHammer attack traces for the full-system simulator.

A synthetic memory trace that implements the double-sided access pattern
of the paper's threat model *as seen by the memory controller* — useful for
observing mitigation mechanisms trigger inside the system simulator (the
characterization stack attacks the device model directly; this attacks the
simulated *system*).

The generator emits cache-line addresses that decode (through the MOP
mapping) to alternating rows of one bank, maximizing per-row activation
rates the way a real attacker's access pattern would.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.sim.addrmap import AddressMapper, DecodedAddress
from repro.sim.config import SystemConfig
from repro.workloads.trace import Trace


def _line_of_row(mapper: AddressMapper, row: int, *, bank: int = 0,
                 bank_group: int = 0, column_run: int = 0) -> int:
    decoded = DecodedAddress(channel=0, rank=0, bank_group=bank_group,
                             bank=bank, row=row,
                             column=column_run * AddressMapper.MOP_RUN)
    return mapper.encode(decoded)


def _attack_bubbles(config: SystemConfig, count: int,
                    serialized: bool) -> np.ndarray:
    """Attack code chains its loads through data dependencies (and memory
    barriers) so the scheduler cannot coalesce same-row accesses; in trace
    form that is one load per instruction window."""
    if not serialized:
        return np.zeros(count, dtype=np.int64)
    return np.full(count, config.instruction_window - 1, dtype=np.int64)


def double_sided_trace(config: SystemConfig, *, victim_row: int = 1000,
                       hammers: int = 20_000, serialized: bool = True,
                       name: str = "attack.double_sided") -> Trace:
    """Alternating accesses to the victim's two neighbor rows.

    Each access targets a different column run and the loads are serialized
    (dependent), so every access misses the row buffer and forces one ACT —
    the max-rate hammering of §4.3 expressed as a memory trace.
    """
    if hammers <= 0:
        raise ConfigError("hammer count must be positive")
    if not 1 <= victim_row < config.rows_per_bank - 1:
        raise ConfigError("victim row needs two neighbors")
    mapper = AddressMapper(config)
    aggressors = (victim_row - 1, victim_row + 1)
    runs = config.columns_per_row // AddressMapper.MOP_RUN
    addresses = np.empty(2 * hammers, dtype=np.int64)
    for i in range(2 * hammers):
        row = aggressors[i % 2]
        addresses[i] = _line_of_row(mapper, row,
                                    column_run=(i // 2) % runs)
    return Trace(
        name=name,
        bubbles=_attack_bubbles(config, 2 * hammers, serialized),
        is_write=np.zeros(2 * hammers, dtype=bool),
        addresses=addresses,
    )

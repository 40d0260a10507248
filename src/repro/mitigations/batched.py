"""Batched/flattened variants of the mitigation hot paths.

Per-activation mitigation work is the second-largest Python cost after the
controller loop itself.  These subclasses keep the *decisions* bit-identical
to their scalar parents while restructuring the state they consult:

* :class:`BatchedPARA` draws its Bernoulli randomness in blocks of
  ``DRAW_BLOCK`` per epoch instead of one ``Generator.random()`` call per
  activation.  NumPy's Generator produces the identical stream for
  ``rng.random(n)`` and ``n`` successive ``rng.random()`` calls, so the
  trigger decisions (and the side-selection draws interleaved with them)
  are exactly those of the scalar PARA with the same seed.
* :class:`BatchedGraphene` stores its per-bank Misra-Gries tables in a
  flat list indexed by flat bank id (the scalar version hashes the bank id
  into a dict on every activation).
* :class:`BatchedHydra` flattens the Group Count Table into one
  preallocated counter array indexed by ``flat_bank * groups_per_bank +
  group`` and keys the RCC/RCT by a single packed integer, eliminating the
  per-activation tuple allocations of the scalar version.

All three also implement the epoch protocol from
:mod:`repro.mitigations.base` with vectorized state updates:
:meth:`~repro.mitigations.base.MitigationMechanism.epoch_credit` is exact
(PARA scans its pre-drawn Bernoulli block for the next trigger draw;
Graphene/Hydra bound it by ``threshold - 1 - max(counter)``), and
:meth:`~repro.mitigations.base.MitigationMechanism.on_activation_epoch`
aggregates the epoch's per-(bank, row) activation runs with ``np.unique``
and merges them into the counter tables in bulk — preserving dict
insertion order (first-occurrence sorted), counter values, and rng
consumption exactly, so the state after a bulk epoch is indistinguishable
from the sequential replay.  Epochs that exceed the credited length fall
back to the base class's sequential replay.

``make_mitigation(..., batched=True)`` in :mod:`repro.mitigations` selects
these classes (every array-kernel simulation does); mechanisms without a
batched variant fall back to their scalar implementation (which is
already allocation-free).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from itertools import repeat

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.mitigations.base import (
    EPOCH_BULK_MIN,
    Action,
    MetadataAccess,
    PreventiveRefresh,
)
from repro.mitigations.graphene import Graphene, _BankTable
from repro.mitigations.hydra import GROUP_SIZE, RCC_ENTRIES, Hydra
from repro.mitigations.para import PARA, PARA_STRENGTH

#: Uniform draws fetched per refill of BatchedPARA's buffer.
DRAW_BLOCK = 4096

#: Shared do-nothing result for the (dominant) no-action path: one list
#: allocation per activation adds up over million-activation sweeps.
#: A tuple, not a list: the instance is shared across every activation of
#: every mechanism in the process, so a caller that mutated it (e.g.
#: ``actions.append(...)`` on a "fresh" result) would silently replay the
#: appended action on all later activations.  Callers only iterate /
#: truth-test action sequences; the tuple makes mutation a hard error.
_NO_ACTIONS: tuple[Action, ...] = ()

#: Epoch size below which the bulk table merges use a plain Python loop:
#: ``np.unique`` costs a fixed couple dozen microseconds per call, which
#: beats direct dict updates only once the epoch amortizes it (see the
#: measured crossover note on :data:`repro.mitigations.base.EPOCH_BULK_MIN`).
_BULK_MIN = EPOCH_BULK_MIN

#: Occurrence column for the direct (small-epoch) merge passes: zipping
#: against an endless stream of ones lets one loop serve both the
#: np.unique-aggregated and the per-activation form.
_ONES = repeat(1)

#: Default row-address space for BatchedHydra's packed integer keys; any
#: bound >= the system's rows_per_bank keeps the packing collision-free.
DEFAULT_ROWS_PER_BANK = 65_536


class BatchedPARA(PARA):
    """PARA with epoch-batched Bernoulli draws (identical stream)."""

    epoch_needs_trace = False

    def __init__(self, nrh: int, *, strength: float = PARA_STRENGTH,
                 seed: int = 1) -> None:
        super().__init__(nrh, strength=strength, seed=seed)
        self._buffer: list[float] = []
        self._buffer_pos = 0
        self._buffer_len = 0
        #: Positions within the current block whose draw is below the
        #: trigger probability, ascending; consumed through
        #: ``_trigger_i``.  ``epoch_credit`` reads the next one to know
        #: exactly how many upcoming draws are non-triggers.
        self._trigger_positions: list[int] = []
        self._trigger_i = 0

    def _refill(self) -> None:
        """Fetch the next ``DRAW_BLOCK`` draws (the one refill site).

        The block is converted to Python floats once per refill: float64
        -> float is exact, and both the indexing and the comparison in
        ``on_activation`` then skip the numpy scalar machinery.  The
        trigger-position index is computed from the same block — no extra
        rng consumption — so the stream stays identical to scalar PARA's
        one-``random()``-per-activation order.
        """
        block = self._rng.random(DRAW_BLOCK)
        self._buffer = block.tolist()
        self._buffer_len = DRAW_BLOCK
        self._buffer_pos = 0
        self._trigger_positions = np.nonzero(
            block < self.probability)[0].tolist()
        self._trigger_i = 0

    def on_activation(self, flat_bank: int, row: int,
                      now_ns: float) -> Sequence[Action]:
        self.counters.activations_observed += 1
        pos = self._buffer_pos
        if pos >= self._buffer_len:
            self._refill()
            pos = 0
        self._buffer_pos = pos + 1
        if self._buffer[pos] >= self.probability:
            return _NO_ACTIONS
        self.counters.triggers += 1
        pos = self._buffer_pos
        if pos >= self._buffer_len:
            self._refill()
            pos = 0
        self._buffer_pos = pos + 1
        side = (1, 2) if self._buffer[pos] < 0.5 else (-1, -2)
        return [PreventiveRefresh(flat_bank, row, victim_offsets=side)]

    def epoch_credit(self) -> int:
        pos = self._buffer_pos
        if pos >= self._buffer_len:
            return 0  # empty buffer: the boundary step refills it
        trigs = self._trigger_positions
        i = self._trigger_i
        n = len(trigs)
        # Side-selection draws consumed on triggers may themselves sit at
        # "trigger" positions; skip any already behind the cursor.
        while i < n and trigs[i] < pos:
            i += 1
        self._trigger_i = i
        if i < n:
            return trigs[i] - pos
        return self._buffer_len - pos

    def on_activation_epoch(
        self, flat_banks: Sequence[int] | None, rows: Sequence[int] | None,
        times: Sequence[float] | None, count: int | None = None,
    ) -> tuple[tuple[int, ...], list[Action]]:
        n = count if count is not None else len(flat_banks)
        pos = self._buffer_pos
        end = pos + n
        trigs = self._trigger_positions
        i = self._trigger_i
        while i < len(trigs) and trigs[i] < pos:
            i += 1
        self._trigger_i = i
        if end > self._buffer_len or (i < len(trigs) and trigs[i] < end):
            # Epoch exceeds the credited trigger-free run: replay it.
            if flat_banks is None:
                raise SimulationError(
                    "PARA epoch exceeds its credited trigger-free run and "
                    "no trace columns were provided to replay it")
            return super().on_activation_epoch(flat_banks, rows, times,
                                               count)
        self.counters.activations_observed += n
        self._buffer_pos = end
        return (), []


class BatchedGraphene(Graphene):
    """Graphene with the per-bank tables in a flat list.

    For epoch dispatch it additionally tracks, per bank, the largest count
    ``observe`` has returned since the last window reset (an upper bound
    on any row's next-activation base, including the spillover floor new
    rows inherit): ``threshold - 1 - max`` activations are then provably
    action-free, and a whole epoch of them merges into the tables as
    ``counts[row] += occurrences`` / ``counts[row] = spillover +
    occurrences`` — the exact values the sequential replay would leave,
    inserted in first-occurrence order so dict iteration (and therefore
    any later space-saving substitution) is unaffected.  The bulk path is
    further gated on every table having table-capacity headroom for the
    epoch, since capacity events (substitutions) are order-dependent.
    """

    #: Misra-Gries counting never looks at activation times.
    epoch_needs_times = False

    def __init__(self, nrh: int, *, total_banks: int = 0, **kwargs) -> None:
        super().__init__(nrh, **kwargs)
        self._table_list: list[_BankTable | None] = [None] * total_banks
        self._bank_max: list[int] = [0] * total_banks
        #: max(self._bank_max), maintained incrementally so epoch_credit
        #: is O(1); recomputed from the per-bank maxima only on the
        #: (rare) trigger path.
        self._global_max = 0
        #: Lower bound on every table's remaining entry capacity.  Only
        #: lowered on insertions (never restored when reset_row frees an
        #: entry) — a conservative bound that keeps epoch_credit O(1)
        #: while still guaranteeing no capacity event (order-dependent
        #: Misra-Gries substitution) can occur inside a credited epoch.
        self._min_room = self.entries_per_bank

    def _rescan_bank_max(self, flat_bank: int) -> None:
        table = self._table_list[flat_bank]
        maximum = table.spillover
        for value in table.counts.values():
            if value > maximum:
                maximum = value
        self._bank_max[flat_bank] = maximum
        self._global_max = max(self._bank_max)

    def on_activation(self, flat_bank: int, row: int,
                      now_ns: float) -> Sequence[Action]:
        self.counters.activations_observed += 1
        tables = self._table_list
        if flat_bank >= len(tables):
            grow = flat_bank + 1 - len(tables)
            tables.extend([None] * grow)
            self._bank_max.extend([0] * grow)
        table = tables[flat_bank]
        if table is None:
            table = _BankTable(self.entries_per_bank)
            tables[flat_bank] = table
        count = table.observe(row)
        if count < self.threshold:
            if count > self._bank_max[flat_bank]:
                self._bank_max[flat_bank] = count
                if count > self._global_max:
                    self._global_max = count
            room = self.entries_per_bank - len(table.counts)
            if room < self._min_room:
                self._min_room = room
            return _NO_ACTIONS
        table.reset_row(row)
        self._rescan_bank_max(flat_bank)
        self.counters.triggers += 1
        return [PreventiveRefresh(flat_bank, row)]

    def on_refresh_window(self, now_ns: float) -> None:
        for table in self._table_list:
            if table is not None:
                table.clear()
        self._bank_max = [0] * len(self._table_list)
        self._global_max = 0
        self._min_room = self.entries_per_bank

    def epoch_credit(self) -> int:
        credit = self.threshold - 1 - self._global_max
        if credit > self._min_room:
            credit = self._min_room
        return credit if credit > 0 else 0

    def on_activation_epoch(
        self, flat_banks: Sequence[int] | None, rows: Sequence[int] | None,
        times: Sequence[float] | None, count: int | None = None,
    ) -> tuple[tuple[int, ...], list[Action]]:
        n = count if count is not None else len(flat_banks)
        if n > self.epoch_credit():
            return super().on_activation_epoch(flat_banks, rows, times,
                                               count)
        self.counters.activations_observed += n
        tables = self._table_list
        maxima = self._bank_max
        threshold = self.threshold
        capacity = self.entries_per_bank
        global_max = self._global_max
        touched: list[_BankTable] = []
        if n >= _BULK_MIN:
            keys = ((np.asarray(flat_banks, dtype=np.int64) << 32)
                    | np.asarray(rows, dtype=np.int64))
            uniq, first, occ = np.unique(keys, return_index=True,
                                         return_counts=True)
            # Insert new rows in first-occurrence order: Misra-Gries ties
            # (min over the counts dict) break by insertion order, so the
            # dict must look exactly as the sequential replay leaves it.
            order = np.argsort(first, kind="stable")
            pairs = [(key >> 32, key & 0xFFFFFFFF, c) for key, c in
                     zip(uniq[order].tolist(), occ[order].tolist())]
        else:
            # Small epochs: one direct pass beats the aggregate-then-merge
            # round trip (and np.unique's fixed cost) by a wide margin.
            pairs = zip(flat_banks, rows, _ONES)
        for flat_bank, row, occurrences in pairs:
            if flat_bank >= len(tables):
                grow = flat_bank + 1 - len(tables)
                tables.extend([None] * grow)
                maxima.extend([0] * grow)
            table = tables[flat_bank]
            if table is None:
                table = _BankTable(self.entries_per_bank)
                tables[flat_bank] = table
            counts = table.counts
            current = counts.get(row)
            if current is None:
                value = table.spillover + occurrences
                touched.append(table)
            else:
                value = current + occurrences
            if value >= threshold:  # pragma: no cover - credit guard
                raise SimulationError(
                    "Graphene epoch crossed its trigger threshold inside "
                    "a credit-guaranteed batch")
            counts[row] = value
            if value > maxima[flat_bank]:
                maxima[flat_bank] = value
                if value > global_max:
                    global_max = value
        self._global_max = global_max
        # Entry counts only grow inside a credited epoch (no triggers, so
        # no reset_row), so the end-of-epoch room per touched table equals
        # the minimum the sequential replay would have seen.
        min_room = self._min_room
        for table in touched:
            room = capacity - len(table.counts)
            if room < min_room:
                min_room = room
        self._min_room = min_room
        return (), []


class BatchedHydra(Hydra):
    """Hydra with a flat GCT array and packed-integer RCC/RCT keys."""

    #: Group-counter updates never look at activation times.
    epoch_needs_times = False

    def __init__(self, nrh: int, *, group_size: int = GROUP_SIZE,
                 rcc_entries: int = RCC_ENTRIES,
                 rows_per_bank: int = DEFAULT_ROWS_PER_BANK,
                 total_banks: int = 32) -> None:
        super().__init__(nrh, group_size=group_size, rcc_entries=rcc_entries)
        if rows_per_bank <= 0 or total_banks <= 0:
            raise ConfigError("rows_per_bank and total_banks must be positive")
        self._rows_per_bank = rows_per_bank
        self._groups_per_bank = -(-rows_per_bank // group_size)
        self._gct_flat: list[int] = [0] * (total_banks * self._groups_per_bank)
        #: Largest GCT entry since the last window reset.  While it is
        #: below ``group_threshold`` no group is hot, every activation
        #: stays in the pure-counting tier, and ``group_threshold - max``
        #: activations are provably action-free (the epoch credit).  Once
        #: any group goes hot the RCC/RCT tiers are order-dependent
        #: (LRU eviction, metadata traffic), so the credit drops to 0 and
        #: Hydra steps scalar until the window resets the counters.
        self._gct_max = 0
        #: Same tiers as the scalar Hydra, keyed by one packed int.
        self._rcc_flat: OrderedDict[int, int] = OrderedDict()
        self._rct_flat: dict[int, int] = {}

    def on_activation(self, flat_bank: int, row: int,
                      now_ns: float) -> Sequence[Action]:
        self.counters.activations_observed += 1
        gct = self._gct_flat
        gct_index = flat_bank * self._groups_per_bank + row // self.group_size
        if gct_index >= len(gct):
            gct.extend([0] * (gct_index + 1 - len(gct)))
        value = gct[gct_index]
        if value < self.group_threshold:
            value += 1
            gct[gct_index] = value
            if value > self._gct_max:
                self._gct_max = value
            return _NO_ACTIONS
        # Hot group: per-row tracking through the RCC, RCT in DRAM behind it.
        actions: list[Action] = []
        rcc = self._rcc_flat
        row_key = flat_bank * self._rows_per_bank + row
        if row_key in rcc:
            rcc.move_to_end(row_key)
            count = rcc[row_key] + 1
        else:
            # RCC miss: fetch the row's counter from the in-DRAM RCT.
            actions.append(MetadataAccess(flat_bank, reads=1))
            count = self._rct_flat.get(row_key, self.group_threshold) + 1
            if len(rcc) >= self.rcc_entries:
                evicted_key, evicted_count = rcc.popitem(last=False)
                self._rct_flat[evicted_key] = evicted_count
                actions.append(MetadataAccess(
                    evicted_key // self._rows_per_bank, writes=1))
        if count >= self.row_threshold:
            self.counters.triggers += 1
            actions.append(PreventiveRefresh(flat_bank, row))
            count = 0
        rcc[row_key] = count
        return actions

    def on_refresh_window(self, now_ns: float) -> None:
        self._gct_flat = [0] * len(self._gct_flat)
        self._gct_max = 0
        self._rcc_flat.clear()
        self._rct_flat.clear()

    def epoch_credit(self) -> int:
        credit = self.group_threshold - self._gct_max
        return credit if credit > 0 else 0

    def on_activation_epoch(
        self, flat_banks: Sequence[int] | None, rows: Sequence[int] | None,
        times: Sequence[float] | None, count: int | None = None,
    ) -> tuple[tuple[int, ...], list[Action]]:
        n = count if count is not None else len(flat_banks)
        if n > self.epoch_credit():
            return super().on_activation_epoch(flat_banks, rows, times,
                                               count)
        self.counters.activations_observed += n
        groups_per_bank = self._groups_per_bank
        group_size = self.group_size
        if n >= _BULK_MIN:
            indices = (np.asarray(flat_banks, dtype=np.int64)
                       * groups_per_bank
                       + np.asarray(rows, dtype=np.int64) // group_size)
            uniq, occ = np.unique(indices, return_counts=True)
            pairs = zip(uniq.tolist(), occ.tolist())
        else:
            # Small epochs: direct increments, no aggregation round trip.
            pairs = ((flat_bank * groups_per_bank + row // group_size, 1)
                     for flat_bank, row in zip(flat_banks, rows))
        gct = self._gct_flat
        maximum = self._gct_max
        for gct_index, occurrences in pairs:
            if gct_index >= len(gct):
                gct.extend([0] * (gct_index + 1 - len(gct)))
            value = gct[gct_index] + occurrences
            gct[gct_index] = value
            if value > maximum:
                maximum = value
        if maximum > self.group_threshold:  # pragma: no cover - credit guard
            raise SimulationError(
                "Hydra epoch pushed a group past its threshold inside a "
                "credit-guaranteed batch")
        self._gct_max = maximum
        return (), []


#: Batched overrides by mechanism name; absent names use the scalar class.
BATCHED_CLASSES = {
    "PARA": BatchedPARA,
    "Graphene": BatchedGraphene,
    "Hydra": BatchedHydra,
}

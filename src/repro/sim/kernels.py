"""Batched system-simulation fast path (bit-exact with the scalar oracle).

:meth:`repro.sim.system.MemorySystem.run` drains requests one
``service_one()`` at a time: every pick rescans both queues, every request
materializes a ``Request`` dataclass plus a ``DecodedAddress``, and every
idle step round-trips ``next_arrival_ns()`` / ``advance_to()``.  This
module replaces that per-request Python-object churn with a batched drain
loop over lightweight array-backed records:

* :class:`BatchCore` pre-decodes a core's whole trace with one vectorized
  address-map pass and replays the instruction-window model over plain
  Python lists, emitting ``__slots__`` records instead of dataclasses;
* :func:`service_batch` keeps the read/write queues sorted by arrival so
  each scheduling decision touches only the arrived prefix, forwards reads
  through a per-address write index, caches the next periodic-refresh
  boundary, and services every request schedulable before the next
  arrival/refresh/mitigation boundary without re-entering the per-call
  ``service_one`` machinery.

The fast path drives the *same* controller state — bank/rank/channel
timelines, energy model, mitigation plugin, refresh policy, and command
observer — through the same operations in the same order, so results
(including observer event streams) are bit-identical to the scalar path.
The scalar loop remains the parity oracle, exactly like the scalar device
kernel of :mod:`repro.dram.kernels` (PR 3); ``--check-protocol`` runs
force it.

This tier still dispatches the mitigation per activation — one plugin
call per ACT — which is what makes it the reference point for the epoch
dispatch of :mod:`repro.sim.arraykernel`: `bench_system_scaling` times
:func:`service_batch` against ``service_array`` on a mitigation-heavy
attack and asserts the epoch tier's aggregate kernel-level margin.
Keep it that way; speeding this baseline is pointless unless the same
trick is structurally unavailable to the array tier.
"""

from __future__ import annotations

from bisect import bisect_right, insort_right
from collections import deque
from operator import attrgetter
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SimulationError
from repro.sim.commands import ActCommand, CasCommand, PreCommand
from repro.sim.core import CoreModel
from repro.sim.energy import E_READ_NJ, E_WRITE_NJ
from repro.sim.stats import CoreStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.system import MemorySystem, SimulationResult

#: The selectable system-simulation kernels (the ``sim`` stage of
#: :data:`repro.exec.STAGE_KERNELS`).  ``array`` is the structure-of-arrays
#: drain loop of :mod:`repro.sim.arraykernel`.
SIM_KERNELS = ("scalar", "batched", "array")


def default_sim_kernel() -> str:
    """The kernel simulations use when ``kernel``/``sim_kernel`` is None."""
    from repro.exec import resolve_kernel

    return resolve_kernel("sim")


def resolve_sim_kernel(kernel: str | None) -> str:
    """Validate a kernel name; ``None`` resolves through the default
    :class:`repro.exec.ExecutionPolicy`."""
    from repro.exec import resolve_kernel

    return resolve_kernel("sim", kernel)


class Rec:
    """One in-flight memory request, stripped to what scheduling reads.

    Replaces ``Request`` + ``DecodedAddress`` (two dataclasses and an enum
    per request) with a single ``__slots__`` record whose DRAM coordinates
    were decoded up front by :class:`BatchCore`.
    """

    __slots__ = ("core", "address", "is_read", "arrival_ns", "completion_ns",
                 "position", "row", "flat", "rank_index", "channel",
                 "bank_group")

    def __init__(self, core: int, address: int, is_read: bool,
                 arrival_ns: float, position: int, row: int, flat: int,
                 rank_index: int, channel: int, bank_group: int) -> None:
        self.core = core
        self.address = address
        self.is_read = is_read
        self.arrival_ns = arrival_ns
        self.completion_ns = -1.0
        self.position = position
        self.row = row
        self.flat = flat
        self.rank_index = rank_index
        self.channel = channel
        self.bank_group = bank_group


class BatchCore:
    """Array-backed replica of :class:`repro.sim.core.CoreModel`.

    The whole trace is decoded to DRAM coordinates in one vectorized pass
    (the scalar model calls ``mapper.decode`` per request), and the pump
    loop walks plain Python lists.  Arrival times are computed with the
    exact expression order of the scalar model, so emitted timestamps are
    bit-identical.
    """

    __slots__ = ("core_id", "_clock_ghz", "_cycle", "_width", "_window",
                 "_n", "_bubbles", "_addresses", "_is_read", "_rows",
                 "_flats", "_rank_idx", "_channels", "_groups", "_index",
                 "_next_position", "_frontend_ns", "_issue_floor_ns",
                 "_inflight", "_last_completion_ns")

    def __init__(self, core: CoreModel) -> None:
        config = core.config
        mapper = core.mapper
        trace = core.trace
        self.core_id = core.core_id
        self._clock_ghz = config.core_clock_ghz
        self._cycle = config.core_cycle_ns
        self._width = config.issue_width
        self._window = config.instruction_window
        self._n = len(trace)
        self._bubbles = trace.bubbles.tolist()
        addresses = (trace.addresses.astype(np.int64, copy=False)
                     + core.address_offset)
        self._addresses = addresses.tolist()
        self._is_read = np.logical_not(trace.is_write).tolist()
        # Vectorized MOP decode: the same shift/mask chain as
        # AddressMapper.decode, applied to the whole trace at once.
        value = addresses % mapper.total_lines
        value >>= mapper._col_low_bits
        channel = value & (config.channels - 1)
        value >>= mapper._channel_bits
        bank = value & (config.banks_per_group - 1)
        value >>= mapper._bank_bits
        group = value & (config.bank_groups - 1)
        value >>= mapper._group_bits
        rank = value & (config.ranks - 1)
        value >>= mapper._rank_bits
        value >>= mapper._col_high_bits
        rank_channel = rank + config.ranks * channel
        flat = bank + config.banks_per_group * (
            group + config.bank_groups * rank_channel)
        self._rows = value.tolist()
        self._flats = flat.tolist()
        self._rank_idx = rank_channel.tolist()
        self._channels = channel.tolist()
        self._groups = group.tolist()
        self._index = 0
        self._next_position = 0
        self._frontend_ns = 0.0
        self._issue_floor_ns = 0.0
        self._inflight: deque[Rec] = deque()
        self._last_completion_ns = 0.0

    def pump(self) -> list[Rec]:
        """Emit every request whose issue time is now determined."""
        out: list[Rec] = []
        i = self._index
        n = self._n
        if i >= n:
            return out
        bubbles = self._bubbles
        cycle = self._cycle
        width = self._width
        window = self._window
        step = cycle / width
        inflight = self._inflight
        next_position = self._next_position
        frontend = self._frontend_ns
        floor = self._issue_floor_ns
        last_completion = self._last_completion_ns
        core_id = self.core_id
        addresses = self._addresses
        is_read = self._is_read
        rows = self._rows
        flats = self._flats
        rank_idx = self._rank_idx
        channels = self._channels
        groups = self._groups
        while i < n:
            b = bubbles[i]
            position = next_position + b
            if inflight and position - inflight[0].position >= window:
                head = inflight[0]
                completion = head.completion_ns
                if completion < 0.0:
                    break  # stalled: resume after the head load completes
                if completion > floor:
                    floor = completion
                inflight.popleft()
                if completion > last_completion:
                    last_completion = completion
                continue
            fetch_done = frontend + b * cycle / width
            arrival = fetch_done if fetch_done > floor else floor
            read = is_read[i]
            rec = Rec(core_id, addresses[i], read, arrival, position,
                      rows[i], flats[i], rank_idx[i], channels[i], groups[i])
            if read:
                inflight.append(rec)
            out.append(rec)
            frontend = fetch_done + step
            next_position = position + 1
            i += 1
        self._index = i
        self._next_position = next_position
        self._frontend_ns = frontend
        self._issue_floor_ns = floor
        self._last_completion_ns = last_completion
        return out

    def note_completion(self, rec: Rec) -> None:
        if rec.completion_ns > self._last_completion_ns:
            self._last_completion_ns = rec.completion_ns

    def finished(self) -> bool:
        if self._index < self._n:
            return False
        for rec in self._inflight:
            if rec.completion_ns < 0:
                return False
        return True

    def stats(self) -> CoreStats:
        if not self.finished():
            raise SimulationError(f"core {self.core_id} has not finished")
        elapsed = max(self._frontend_ns, self._last_completion_ns)
        return CoreStats(core=self.core_id,
                         instructions=self._next_position,
                         elapsed_ns=elapsed,
                         core_clock_ghz=self._clock_ghz)


_ARRIVAL = attrgetter("arrival_ns")


def run_batched(system: "MemorySystem") -> "SimulationResult":
    """Run a :class:`MemorySystem` through the batched drain loop."""
    cores = [BatchCore(core) for core in system.cores]
    core_stats = service_batch(system, cores)
    return system._collect(core_stats)


def service_batch(system: "MemorySystem",
                  cores: list[BatchCore]) -> list[CoreStats]:
    """Drain every core's trace through the controller in one call.

    Mirrors ``MemorySystem._run_scalar`` + ``MemoryController.service_one``
    / ``_service`` operation for operation; see the module docstring for
    the exactness contract.
    """
    ctrl = system.controller
    config = system.config
    timing = ctrl.timing
    tRAS = timing.tRAS
    tRP = timing.tRP
    tRCD = timing.tRCD
    tCL = timing.tCL
    tBL = timing.tBL
    tWR = timing.tWR
    tFAW = timing.tFAW
    tCCD = timing.tCCD
    tCCD_L = timing.tCCD_L
    forward_latency = ctrl.FORWARD_LATENCY_NS
    banks = ctrl.banks
    ranks = ctrl.ranks
    channels = ctrl.channels
    observer = ctrl.observer
    run_mitigation = ctrl._run_mitigation
    act_penalty = ctrl.mitigation.act_penalty_ns
    energy = ctrl.energy
    act_e = energy.act_energy(tRAS)
    stats = ctrl.stats
    latency_add = system._latency.add
    high_mark = config.write_queue_depth * config.write_high_watermark
    low_mark = config.write_queue_depth * config.write_low_watermark
    # Local accumulators seeded from (and flushed back to) the shared
    # state: the addition sequence per counter matches the scalar path.
    stat_reads = stats.reads
    stat_writes = stats.writes
    stat_forwarded = stats.forwarded_reads
    stat_hits = stats.row_hits
    stat_misses = stats.row_misses
    stat_acts = stats.activations
    activation_nj = energy.activation_nj
    read_nj = energy.read_nj
    write_nj = energy.write_nj

    read_queue: list[Rec] = []
    write_queue: list[Rec] = []
    #: Pending queued writes by address, for read forwarding.
    writes_by_addr: dict[int, list[Rec]] = {}
    draining = ctrl._draining_writes
    next_refresh = min(rank.next_refresh_ns for rank in ranks)

    def enqueue_all(recs: list[Rec]) -> None:
        # insort_right keeps equal arrivals in insertion (enqueue) order,
        # which is exactly the scalar queue's FCFS tie-break.
        for rec in recs:
            if rec.is_read:
                insort_right(read_queue, rec, key=_ARRIVAL)
            else:
                insort_right(write_queue, rec, key=_ARRIVAL)
                writes_by_addr.setdefault(rec.address, []).append(rec)

    for core in cores:
        enqueue_all(core.pump())

    stall_guard = 0
    while True:
        now = ctrl.now_ns
        if now >= next_refresh:
            ctrl._apply_periodic_refresh(now)
            next_refresh = min(rank.next_refresh_ns for rank in ranks)
        wlen = len(write_queue)
        if wlen >= high_mark:
            draining = True
        elif wlen <= low_mark:
            draining = False
        # --- pick (FR-FCFS over the arrived prefix) -------------------
        writes_end = bisect_right(write_queue, now, key=_ARRIVAL) if wlen else 0
        if draining and writes_end:
            queue = write_queue
            end = writes_end
        else:
            reads_end = (bisect_right(read_queue, now, key=_ARRIVAL)
                         if read_queue else 0)
            if reads_end:
                queue = read_queue
                end = reads_end
            elif writes_end:
                queue = write_queue
                end = writes_end
            else:
                # Nothing arrived: advance to the earliest queued arrival
                # (the sorted queues expose it in O(1)), else pump/finish.
                if read_queue or write_queue:
                    best = None
                    if read_queue:
                        best = read_queue[0].arrival_ns
                    if write_queue:
                        head = write_queue[0].arrival_ns
                        if best is None or head < best:
                            best = head
                    if best > now:
                        ctrl.now_ns = best
                    continue
                if all(core.finished() for core in cores):
                    break
                produced = 0
                for core in cores:
                    recs = core.pump()
                    produced += len(recs)
                    enqueue_all(recs)
                stall_guard += 1
                if produced == 0 and stall_guard > 2:
                    raise SimulationError(
                        "deadlock: cores unfinished but no requests pending")
                continue
        pick = 0
        for i in range(end):
            rec = queue[i]
            if banks[rec.flat].open_row == rec.row:
                pick = i
                break
        rec = queue[pick]
        del queue[pick]
        arrival = rec.arrival_ns
        serviced_read = rec.is_read
        if serviced_read:
            # --- read forwarding out of the write queue ---------------
            pending = writes_by_addr.get(rec.address)
            forwarded = False
            if pending:
                for write in pending:
                    if write.arrival_ns <= arrival:
                        forwarded = True
                        break
            if forwarded:
                rec.completion_ns = ((now if now > arrival else arrival)
                                     + forward_latency)
                stat_reads += 1
                stat_forwarded += 1
        else:
            writes_by_addr[rec.address].remove(rec)
            forwarded = False
        if not forwarded:
            # --- service (command timing) -----------------------------
            flat = rec.flat
            bank = banks[flat]
            earliest = now
            if arrival > earliest:
                earliest = arrival
            if bank.ready_ns > earliest:
                earliest = bank.ready_ns
            row = rec.row
            if bank.open_row == row:
                stat_hits += 1
                cas_start = earliest
            else:
                stat_misses += 1
                act_start = earliest
                closes_row = bank.open_row is not None
                if closes_row:
                    pre_start = bank.act_ns + tRAS
                    if earliest > pre_start:
                        pre_start = earliest
                    act_start = pre_start + tRP
                rank = ranks[rec.rank_index]
                faw = rank.faw_constraint(act_start, tFAW)
                if faw > act_start:
                    act_start = faw
                rank.record_act(act_start)
                if observer is not None:
                    if closes_row:
                        observer.on_command(PreCommand(flat, pre_start))
                    observer.on_command(ActCommand(
                        flat, rec.rank_index, rec.channel, rec.bank_group,
                        row, act_start))
                bank.open_row = row
                bank.act_ns = act_start
                stat_acts += 1
                activation_nj += act_e
                cas_start = act_start + tRCD
                run_mitigation(flat, row, act_start)
                # Mitigation actions may have pushed the bank's ready time.
                if bank.ready_ns > cas_start:
                    cas_start = bank.ready_ns
            channel = channels[rec.channel]
            cas_start = channel.cas_constraint(cas_start, rec.bank_group,
                                               tCCD, tCCD_L)
            if observer is not None:
                observer.on_command(CasCommand(
                    flat, rec.channel, rec.bank_group, row, cas_start,
                    not serviced_read))
            if serviced_read:
                stat_reads += 1
                read_nj += E_READ_NJ
                data_done = channel.reserve_bus(cas_start + tCL, tBL)
            else:
                stat_writes += 1
                write_nj += E_WRITE_NJ
                data_done = channel.reserve_bus(cas_start + tCL, tBL) + tWR
            rec.completion_ns = data_done
            blocked = cas_start + tCCD + act_penalty
            if blocked > bank.ready_ns:
                bank.ready_ns = blocked
            if cas_start > now:
                ctrl.now_ns = cas_start
        stall_guard = 0
        if serviced_read:
            latency_add(rec.completion_ns - arrival)
            core = cores[rec.core]
            core.note_completion(rec)
            recs = core.pump()
            if recs:
                enqueue_all(recs)

    stats.reads = stat_reads
    stats.writes = stat_writes
    stats.forwarded_reads = stat_forwarded
    stats.row_hits = stat_hits
    stats.row_misses = stat_misses
    stats.activations = stat_acts
    energy.activation_nj = activation_nj
    energy.read_nj = read_nj
    energy.write_nj = write_nj
    ctrl._draining_writes = draining
    return [core.stats() for core in cores]

"""Structure-of-arrays system-simulation drain loop (the sim ``array`` tier).

The scalar drain loop (:meth:`repro.sim.system.MemorySystem._run_scalar`)
materializes a ``Request`` and a ``DecodedAddress`` per request, rescans
both queues on every pick, makes one Python mitigation call per
activation, and calls into the bank/rank/channel timeline objects for
every timing constraint.  This module keeps the whole simulation state
columnar and dispatches those per-request costs in bulk:

* :class:`ArrayCore` precomputes each request's frontend fetch time and
  retirement position once per trace (the frontend chain is independent
  of load completions — window stalls gate *emission*, not the chain),
  and a process shares those columns across every run of the same
  read-only trace (:func:`decoded_columns`);
  the per-core emission cursors live in parallel lists inside
  :func:`service_array`, so resuming a window-stalled core after a read
  completion runs one small closure over flat lists instead of a method
  with an attribute-bound prologue;
* a queued request is one self-contained tuple ``(arrival, rid, flat,
  row, is_read, address, core, rank, channel, group)`` whose native
  ordering reproduces the scalar queue's arrival-then-FCFS order (rids
  increase in enqueue order).  The FR-FCFS pick reads the two queue heads
  directly and only falls back to a ``bisect`` scan when more than one
  request has actually arrived — the common case (short queues, sparse
  arrivals) never builds a probe tuple at all;
* **epoch mitigation dispatch**: between action boundaries the kernel
  asks the mechanism for its :meth:`~repro.mitigations.base.
  MitigationMechanism.epoch_credit` — how many upcoming activations are
  guaranteed action-free — buffers that many activations as plain column
  appends (or a bare count for trace-free mechanisms like NoMitigation
  and PARA), and flushes them through ``on_activation_epoch`` in one
  call.  Only the boundary activation after the credit runs the scalar
  ``on_activation`` step, so every decision that can produce an action is
  made by the exact scalar code path, in order, on the same state and
  rng stream;
* bank / rank / channel timing state is held in flat lists, with the
  timeline methods (``faw_constraint``, ``cas_constraint``,
  ``reserve_bus``, ``occupy``) and the controller's mitigation-action and
  periodic-refresh executors inlined over them in the scalar expression
  order, then flushed back to the controller objects on exit.  The tFAW
  window check collapses to one comparison against the fourth-newest ACT
  time (per-rank ACT starts are strictly increasing, so the bounded
  recent-ACT list is always sorted and the in-window filter is implied
  by the comparison itself);
* per-request latency bookkeeping folds once per run through the
  ``np.unique`` accumulator (value-histogram) pattern rather than one
  ``LatencyAccumulator.add`` call per read.

A note on numpy in the hot loop: the request queues are bounded by the
instruction window and queue depth (tens of entries), and at that size
C-level ``bisect``/``insort`` on native tuples beats ``np.searchsorted``
(which pays ~1us of per-call machinery regardless of array size).  The
numpy wins live where work amortizes: whole-trace decode and frontend
prefix sums at core construction, per-epoch ``np.unique`` aggregation in
the mitigation tables, and the end-of-run latency fold.

The contract: the same operations in the same order on the same plugin
objects as the scalar oracle, so results — stats, energies, latency
histogram, observer event streams — are bit-identical to it (the parity
suites assert it).
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_right, insort_right
from collections import OrderedDict, deque
from collections.abc import Callable
from itertools import repeat
from typing import TYPE_CHECKING, TypeVar

import numpy as np

from repro.errors import SimulationError
from repro.mitigations.base import (
    MetadataAccess,
    PreventiveRefresh,
    RfmCommand,
)
from repro.sim.addrmap import AddressMapper
from repro.sim.commands import (
    ActCommand,
    CasCommand,
    MetadataCmd,
    MitigationRequest,
    PreCommand,
    PreventiveRefreshCmd,
    RefCommand,
)
from repro.sim.config import SystemConfig
from repro.sim.core import CoreModel
from repro.sim.energy import (
    E_ACT_BASE_NJ,
    E_READ_NJ,
    E_RESTORE_PER_NS,
    E_WRITE_NJ,
)
from repro.sim.stats import CoreStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.system import MemorySystem, SimulationResult

_INF = float("inf")
_T = TypeVar("_T")


class SharedQueues:
    """The queues and per-request completion column shared by all cores."""

    __slots__ = ("read_queue", "write_queue", "writes_by_addr", "completion")

    def __init__(self) -> None:
        #: Entries: (arrival, rid, flat, row, is_read, address, core,
        #: rank, channel, group).  Rids are globally unique and increase
        #: in enqueue order, so native tuple ordering is arrival-then-FCFS
        #: — the scalar queue's tie-break — and the scheduling fields ride
        #: along without a per-request record.
        self.read_queue: list[tuple] = []
        self.write_queue: list[tuple] = []
        #: Pending queued writes per address as (arrival, rid) pairs, in
        #: enqueue order, for read forwarding.
        self.writes_by_addr: dict[int, list[tuple[float, int]]] = {}
        #: Completion time per rid (−1.0 while in flight) — the one
        #: per-request column, polled by the cores' window model.
        self.completion: list[float] = []


def read_only(array: np.ndarray) -> bool:
    """Whether nothing can write into ``array``: neither it nor any array
    it is a view of is writeable."""
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return False
        array = array.base
    return True


class ArrayMemo:
    """A bounded, thread-safe LRU of what runs derive from read-only
    arrays.

    A sweep simulates the same few traces hundreds of times, so what a
    run builds from them is built once per process.  An entry is keyed by
    the arrays' ``id`` values and the other inputs, and holds the arrays
    themselves, so those ids cannot be recycled while it lives.  Only
    read-only arrays may key one: an in-place edit of a writable array
    would leave it stale.  Each entry weighs ``size``; the least recently
    used go once the total passes ``budget``, and a value heavier than
    the whole budget is never kept.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.held = 0
        #: key -> (arrays, value, size), least recently used first.
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self._lock = threading.Lock()
        os.register_at_fork(after_in_child=self._fresh_lock)

    def _fresh_lock(self) -> None:
        # A fork while another thread holds the lock must not hand the
        # child a lock that nobody will ever release.
        self._lock = threading.Lock()

    def clear(self) -> None:
        """Forget every entry."""
        with self._lock:
            self._entries.clear()
            self.held = 0

    def get(self, arrays: tuple[np.ndarray, ...], inputs: tuple, size: int,
            build: Callable[[], _T]) -> _T:
        """What ``build()`` makes of ``arrays`` and ``inputs``: built on a
        miss, shared on a hit."""
        key = (*map(id, arrays), *inputs)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry[1]
        value = build()
        if size <= self.budget:
            with self._lock:
                if key not in self._entries:
                    self._entries[key] = (arrays, value, size)
                    self.held += size
                while self.held > self.budget:
                    _, (_arrays, _value, evicted) = self._entries.popitem(
                        last=False)
                    self.held -= evicted
        return value


#: Decoded columns, bounded by the requests they hold (about 215 bytes
#: each, so about 13 MiB when full).  One evaluation pass needs about
#: 7,200: 18 decodings of 400 requests.
_decoded = ArrayMemo(budget=65_536)


def clear_decode_memo() -> None:
    """Forget every memoized decoding."""
    _decoded.clear()


def decoded_columns(core: CoreModel) -> tuple[list, list, list, float]:
    """``core``'s ``(tails, positions, fetch_done, final_frontend)``.

    Shared per (trace arrays, core id, address offset, config) when the
    trace's arrays are read-only, as generated traces are.  A writable
    trace is decoded afresh on every call, so editing it in place
    between runs can never serve a stale decoding.
    """
    trace = core.trace
    arrays = (trace.bubbles, trace.is_write, trace.addresses)
    inputs = (core.core_id, core.address_offset, core.config)
    if not all(map(read_only, arrays)):
        return _decode(arrays, *inputs)
    return _decoded.get(arrays, inputs, len(trace),
                        lambda: _decode(arrays, *inputs))


def _decode(arrays: tuple[np.ndarray, np.ndarray, np.ndarray], core_id: int,
            address_offset: int, config: SystemConfig,
            ) -> tuple[list, list, list, float]:
    """Decode one core's trace into the columns the drain loop reads.

    A pure function of its arguments (it builds its own mapper from
    ``config``), which is what lets :func:`decoded_columns` share them.
    """
    bubbles, is_write, addresses = arrays
    mapper = AddressMapper(config)
    addresses = addresses.astype(np.int64, copy=False) + address_offset
    # AddressMapper's MOP decode, vectorized (one pass per trace).
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
    # The static tail of each queue entry — (flat, row, is_read, address,
    # core, rank, channel, group) — zipped once, so emission builds an
    # entry with a single concat instead of eight column reads.
    tails = list(zip(
        flat.tolist(), value.tolist(), np.logical_not(is_write).tolist(),
        addresses.tolist(), repeat(core_id), rank_channel.tolist(),
        channel.tolist(), group.tolist()))
    n = len(tails)
    # position_i = i + sum(bubbles[:i+1]) — integer arithmetic, exact.
    positions = (np.cumsum(bubbles) + np.arange(n, dtype=np.int64)).tolist()
    # The frontend chain alternates two additions per request —
    # fetch_done = frontend + b*cycle/width; frontend = fetch_done + step —
    # so the running value is the prefix sum of the interleaved term
    # sequence [t_0, step, t_1, step, ...].  np.cumsum (ufunc accumulate)
    # adds strictly left to right, which is exactly the scalar
    # accumulation order, so the precomputed chain is bit-identical to
    # the per-pump one.
    cycle = config.core_cycle_ns
    width = config.issue_width
    step = cycle / width
    terms = np.empty(2 * n, dtype=np.float64)
    terms[0::2] = bubbles * cycle / width
    terms[1::2] = step
    chain = np.cumsum(terms)
    final_frontend = float(chain[-1]) if n else 0.0
    return tails, positions, chain[0::2].tolist(), final_frontend


class ArrayCore:
    """Columnar replica of :class:`repro.sim.core.CoreModel`.

    Each trace's addresses are decoded in one vectorized pass, and the
    whole frontend timing chain is precomputed: ``fetch_done[i]`` depends
    only on the bubble counts (the window stall pauses *emission*, never
    the chain), so it is accumulated once — float-op order identical to
    the per-pump accumulation.  Those columns are read-only and shared
    across runs of the same trace (:func:`decoded_columns`).  Emission
    itself (window checks, issue floor, insort into the shared queues) is
    run by :func:`service_array`'s pump closure over flat per-core state;
    the final cursor values are written back here so :meth:`stats` sees
    them.
    """

    __slots__ = ("core_id", "_clock_ghz", "_window", "_n", "_tails",
                 "_fetch_done", "_positions", "_final_frontend",
                 "_index", "_issue_floor_ns", "_inflight",
                 "_last_completion_ns", "_shared", "_stall_rid")

    def __init__(self, core: CoreModel, shared: SharedQueues) -> None:
        config = core.config
        self.core_id = core.core_id
        self._clock_ghz = config.core_clock_ghz
        self._window = config.instruction_window
        self._shared = shared
        (self._tails, self._positions, self._fetch_done,
         self._final_frontend) = decoded_columns(core)
        self._n = len(self._tails)
        self._index = 0
        self._issue_floor_ns = 0.0
        #: (position, rid) of in-flight reads, oldest first.
        self._inflight: deque[tuple[int, int]] = deque()
        self._last_completion_ns = 0.0
        #: Rid of the read this core is window-stalled on (-1 when the
        #: trace is drained).  A completion of any other rid cannot
        #: unblock emission, so the drain loop skips the pump entirely.
        self._stall_rid = -1

    def finished(self) -> bool:
        if self._index < self._n:
            return False
        completion = self._shared.completion
        for _, rid in self._inflight:
            if completion[rid] < 0:
                return False
        return True

    def stats(self) -> CoreStats:
        if not self.finished():
            raise SimulationError(f"core {self.core_id} has not finished")
        elapsed = max(self._final_frontend, self._last_completion_ns)
        instructions = self._positions[-1] + 1 if self._n else 0
        return CoreStats(core=self.core_id,
                         instructions=instructions,
                         elapsed_ns=elapsed,
                         core_clock_ghz=self._clock_ghz)


def run_array(system: "MemorySystem") -> "SimulationResult":
    """Run a :class:`MemorySystem` through the SoA drain loop."""
    shared = SharedQueues()
    cores = [ArrayCore(core, shared) for core in system.cores]
    core_stats = service_array(system, cores, shared)
    return system._collect(core_stats)


def service_array(system: "MemorySystem", cores: list[ArrayCore],
                  shared: SharedQueues) -> list[CoreStats]:
    """Drain every core's trace through the SoA controller state.

    Mirrors ``MemorySystem._run_scalar`` + ``MemoryController.service_one``
    with the timeline objects' state unpacked into flat lists, every timing
    method inlined in its exact expression order, and mitigation calls
    batched into credit-guaranteed epochs.  All state is flushed back to
    the controller objects before returning.
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
    tRFC = timing.tRFC
    tREFI = timing.tREFI
    tREFW = timing.tREFW
    forward_latency = ctrl.FORWARD_LATENCY_NS
    observer = ctrl.observer
    mitigation = ctrl.mitigation
    on_activation = mitigation.on_activation
    on_activation_epoch = mitigation.on_activation_epoch
    epoch_credit = mitigation.epoch_credit
    on_refresh_window = mitigation.on_refresh_window
    epoch_trace = mitigation.epoch_needs_trace
    epoch_rows_on = epoch_trace and mitigation.epoch_needs_rows
    epoch_times_on = epoch_trace and mitigation.epoch_needs_times
    act_penalty = mitigation.act_penalty_ns
    policy = ctrl.policy
    preventive_tras_ns = policy.preventive_tras_ns
    rows_per_bank = config.rows_per_bank
    rows_per_ref = ctrl._rows_per_periodic_refresh
    banks_per_rank = config.banks_per_rank
    metadata_per_access = tRP + tRCD + tCL + tBL
    energy = ctrl.energy
    act_e = energy.act_energy(tRAS)
    stats = ctrl.stats
    high_mark = config.write_queue_depth * config.write_high_watermark
    low_mark = config.write_queue_depth * config.write_low_watermark

    # --- columnar controller state (flushed back at the end) ----------
    bank_open = [b.open_row for b in ctrl.banks]
    bank_ready = [b.ready_ns for b in ctrl.banks]
    bank_act = [b.act_ns for b in ctrl.banks]
    bank_prev_busy = [b.preventive_busy_ns for b in ctrl.banks]
    bank_refresh_busy = [b.refresh_busy_ns for b in ctrl.banks]
    rank_next_ref = [r.next_refresh_ns for r in ctrl.ranks]
    rank_acts = [r.recent_acts for r in ctrl.ranks]
    chan_bus_free = [c.bus_free_ns for c in ctrl.channels]
    chan_last_cas = [c.last_cas_ns for c in ctrl.channels]
    chan_last_group = [c.last_cas_group for c in ctrl.channels]
    now = ctrl.now_ns
    next_window = ctrl._next_refresh_window_ns
    draining = ctrl._draining_writes
    next_refresh = min(rank_next_ref)

    # Local accumulators seeded from (and flushed back to) the shared
    # state: the addition sequence per counter matches the scalar path.
    stat_reads = stats.reads
    stat_writes = stats.writes
    stat_forwarded = stats.forwarded_reads
    stat_hits = stats.row_hits
    stat_misses = stats.row_misses
    stat_acts = stats.activations
    stat_periodic = stats.periodic_refreshes
    stat_prev_rows = stats.preventive_refresh_rows
    stat_prev_full = stats.preventive_refresh_full
    stat_prev_partial = stats.preventive_refresh_partial
    stat_rfm = stats.rfm_commands
    stat_backoff = stats.backoff_events
    stat_meta_reads = stats.metadata_reads
    stat_meta_writes = stats.metadata_writes
    activation_nj = energy.activation_nj
    read_nj = energy.read_nj
    write_nj = energy.write_nj
    periodic_nj = energy.periodic_refresh_nj
    preventive_nj = energy.preventive_refresh_nj
    metadata_nj = energy.metadata_nj
    latency = system._latency
    #: Raw read latencies, folded into the value histogram at flush time
    #: (np.unique); the histogram content and count are exactly what
    #: per-read ``LatencyAccumulator.add`` calls would produce, and
    #: ``summary()`` sorts its items so insertion order is immaterial.
    lat_values: list[float] = []
    lat_append = lat_values.append

    read_queue = shared.read_queue
    write_queue = shared.write_queue
    writes_by_addr = shared.writes_by_addr
    completion_c = shared.completion

    # --- per-core emission state, SoA ---------------------------------
    # All cursors live in parallel lists so the pump closure below binds
    # everything it touches as default arguments (true locals — no cell
    # lookups, no per-call attribute prologue).  Final values are written
    # back to the ArrayCore objects after the drain.
    n_cores = len(cores)
    core_index = [c._index for c in cores]
    core_n = [c._n for c in cores]
    core_floor = [c._issue_floor_ns for c in cores]
    core_lastc = [c._last_completion_ns for c in cores]
    core_stall = [c._stall_rid for c in cores]
    core_inflight = [c._inflight for c in cores]
    core_positions = [c._positions for c in cores]
    core_fetch = [c._fetch_done for c in cores]
    core_tails = [c._tails for c in cores]
    window = config.instruction_window

    def _pump_core(c, *, core_index=core_index, core_n=core_n,
                   core_floor=core_floor, core_lastc=core_lastc,
                   core_stall=core_stall, core_inflight=core_inflight,
                   core_positions=core_positions, core_fetch=core_fetch,
                   core_tails=core_tails, completion=completion_c,
                   read_queue=read_queue, write_queue=write_queue,
                   writes_by_addr=writes_by_addr, window=window,
                   insort_right=insort_right):
        """Emit core ``c``'s requests until it stalls or drains.

        Identical walk to the scalar core's pump: requests whose issue
        time is determined go straight into the shared queues in emission
        order.  Returns how many requests were emitted.  Only the initial
        fill and the idle re-pump call this; the completion path runs the
        same walk inlined on the drain loop's own locals.
        """
        i = core_index[c]
        n = core_n[c]
        if i >= n:
            return 0
        inflight = core_inflight[c]
        positions = core_positions[c]
        fetch_done = core_fetch[c]
        tails = core_tails[c]
        floor = core_floor[c]
        last_completion = core_lastc[c]
        emitted = 0
        stall = -1
        while i < n:
            position = positions[i]
            if inflight:
                head_position, head_rid = inflight[0]
                if position - head_position >= window:
                    done = completion[head_rid]
                    if done < 0.0:
                        stall = head_rid
                        break  # stalled: resume after the head completes
                    if done > floor:
                        floor = done
                    inflight.popleft()
                    if done > last_completion:
                        last_completion = done
                    continue
            done = fetch_done[i]
            arrival = done if done > floor else floor
            rid = len(completion)
            completion.append(-1.0)
            tail = tails[i]
            entry = (arrival, rid) + tail
            if tail[2]:  # is_read
                inflight.append((position, rid))
                insort_right(read_queue, entry)
            else:
                insort_right(write_queue, entry)
                address = tail[3]
                pending = writes_by_addr.get(address)
                if pending is None:
                    writes_by_addr[address] = [(arrival, rid)]
                else:
                    pending.append((arrival, rid))
            emitted += 1
            i += 1
        core_index[c] = i
        core_floor[c] = floor
        core_lastc[c] = last_completion
        core_stall[c] = stall
        return emitted

    def _apply_refresh(now, periodic_nj, stat_periodic, *,
                       rank_next_ref=rank_next_ref, policy=policy,
                       observer=observer, tRFC=tRFC, tRAS=tRAS,
                       tREFI=tREFI, rows_per_ref=rows_per_ref,
                       banks_per_rank=banks_per_rank,
                       bank_ready=bank_ready, bank_open=bank_open,
                       bank_refresh_busy=bank_refresh_busy):
        """Inlined MemoryController._apply_periodic_refresh (cold path)."""
        for ri in range(len(rank_next_ref)):
            while rank_next_ref[ri] <= now:
                start = rank_next_ref[ri]
                scale = policy.periodic_refresh_scale()
                trfc = tRFC * scale
                if observer is not None:
                    observer.on_command(RefCommand(ri, start, trfc))
                ref_tras = tRAS * scale
                if ref_tras <= 0:
                    raise SimulationError(
                        "non-positive tRAS in energy model")
                ref_e = rows_per_ref * (E_ACT_BASE_NJ
                                        + E_RESTORE_PER_NS * ref_tras)
                lo = ri * banks_per_rank
                for fb in range(lo, lo + banks_per_rank):
                    ready = bank_ready[fb]
                    busy_from = ready if ready > start else start
                    bank_ready[fb] = busy_from + trfc
                    bank_refresh_busy[fb] += trfc
                    bank_open[fb] = None
                    periodic_nj += ref_e
                stat_periodic += 1
                rank_next_ref[ri] += tREFI
        return min(rank_next_ref), periodic_nj, stat_periodic

    # --- mitigation epoch buffers -------------------------------------
    # While the mechanism's credit lasts, activations are buffered here
    # (plain appends; a bare count when the mechanism is trace-free) and
    # flushed through on_activation_epoch in one call at the boundary.
    # Columns the mechanism declared it never reads (epoch_needs_rows /
    # epoch_needs_times) are not buffered at all — one fewer append per
    # activation — and flush as None.
    epoch_banks: list[int] = []
    epoch_rows: list[int] = []
    epoch_times: list[float] = []
    eb_append = epoch_banks.append
    er_append = epoch_rows.append
    et_append = epoch_times.append

    def _flush_epoch(n, *, on_activation_epoch=on_activation_epoch,
                     epoch_trace=epoch_trace, epoch_banks=epoch_banks,
                     epoch_rows=epoch_rows, epoch_times=epoch_times,
                     epoch_rows_on=epoch_rows_on,
                     epoch_times_on=epoch_times_on):
        """Flush ``n`` buffered activations through the epoch API.

        The buffered run is inside the mechanism's credited action-free
        window, so a trigger here means the mechanism over-promised —
        that is a contract violation, not a recoverable state.
        """
        if epoch_trace:
            triggers, actions = on_activation_epoch(
                epoch_banks,
                epoch_rows if epoch_rows_on else None,
                epoch_times if epoch_times_on else None)
            epoch_banks.clear()
            epoch_rows.clear()
            epoch_times.clear()
        else:
            triggers, actions = on_activation_epoch(None, None, None,
                                                    count=n)
        if triggers or actions:
            raise SimulationError(
                f"{type(mitigation).__name__} produced actions inside a "
                "credit-guaranteed epoch (epoch_credit over-promised)")

    epoch_left = epoch_credit()
    epoch_n = 0

    for c in range(n_cores):
        _pump_core(c)

    stall_guard = 0
    fast_entry = None
    while True:
        if fast_entry is not None:
            # Pre-picked by the bottom-of-loop fast path: the queues held
            # exactly this one (read) entry, no refresh falls before its
            # service time, and ``now`` has already been advanced -- the
            # gate/watermark/pick stages below would all be no-ops.
            entry = fast_entry
            fast_entry = None
        else:
            if now >= next_refresh:
                next_refresh, periodic_nj, stat_periodic = _apply_refresh(
                    now, periodic_nj, stat_periodic)
            # --- arrival gate -----------------------------------------
            # Nothing is serviceable before the earliest queued arrival,
            # so jump straight there off the O(1) queue heads.  Refresh
            # is re-checked after the jump (the scalar loop applies
            # refreshes due at the pre-advance time first; the duplicated
            # check keeps that event order).
            rhead = read_queue[0][0] if read_queue else _INF
            whead = write_queue[0][0] if write_queue else _INF
            if rhead <= whead:
                if rhead == _INF:
                    # Both queues empty: every emitted request is
                    # serviced (its completion is set), so a core is
                    # finished iff its cursor reached the end of its
                    # trace.
                    if all(core_index[c] >= core_n[c]
                           for c in range(n_cores)):
                        break
                    produced = 0
                    for c in range(n_cores):
                        produced += _pump_core(c)
                    stall_guard += 1
                    if produced == 0 and stall_guard > 2:
                        raise SimulationError(
                            "deadlock: cores unfinished but no requests "
                            "pending")
                    continue
                next_arrival = rhead
            else:
                next_arrival = whead
            if next_arrival > now:
                now = next_arrival
                if now >= next_refresh:
                    next_refresh, periodic_nj, stat_periodic = (
                        _apply_refresh(now, periodic_nj, stat_periodic))
            wlen = len(write_queue)
            if wlen >= high_mark:
                draining = True
            elif wlen <= low_mark:
                draining = False
            # --- pick (FR-FCFS over the arrived prefix) ---------------
            # The gate guarantees at least one head has arrived.  Queue
            # preference first (write drain, else reads), then a row-hit
            # scan over the arrived prefix -- but only when a second
            # entry has actually arrived; the common case services the
            # head directly without a probe tuple or bisect.
            if draining and whead <= now:
                queue = write_queue
            elif rhead <= now:
                queue = read_queue
            else:
                queue = write_queue
            if len(queue) > 1 and queue[1][0] <= now:
                end = bisect_right(queue, (now, _INF))
                for pick in range(end):
                    entry = queue[pick]
                    if bank_open[entry[2]] == entry[3]:
                        break
                else:
                    pick = 0
                entry = queue.pop(pick)
            else:
                entry = queue.pop(0)
        (arrival, rid, flat, row, serviced_read, address,
         core_i, ri, ci, group) = entry
        if serviced_read:
            # --- read forwarding out of the write queue ---------------
            forwarded = False
            if writes_by_addr:
                pending = writes_by_addr.get(address)
                if pending:
                    for w in pending:
                        if w[0] <= arrival:
                            forwarded = True
                            break
            if forwarded:
                data_done = ((now if now > arrival else arrival)
                             + forward_latency)
                completion_c[rid] = data_done
                stat_reads += 1
                stat_forwarded += 1
        else:
            writes_by_addr[address].remove((arrival, rid))
            forwarded = False
        if not forwarded:
            # --- service (command timing) -----------------------------
            earliest = now
            if arrival > earliest:
                earliest = arrival
            ready = bank_ready[flat]
            if ready > earliest:
                earliest = ready
            if bank_open[flat] == row:
                stat_hits += 1
                cas_start = earliest
            else:
                stat_misses += 1
                act_start = earliest
                closes_row = bank_open[flat] is not None
                if closes_row:
                    pre_start = bank_act[flat] + tRAS
                    if earliest > pre_start:
                        pre_start = earliest
                    act_start = pre_start + tRP
                # Inlined RankTimeline.faw_constraint + record_act.  ACT
                # starts per rank are strictly increasing (the next ACT
                # begins after the previous CAS), so the recent-ACT list
                # is always sorted and the constraint reduces to the
                # fourth-newest entry: it binds iff acts[-4] + tFAW >
                # act_start, which is exactly "at least four ACTs within
                # the window" — entries older than the window can never
                # satisfy the comparison.  The list keeps the newest <= 8
                # entries (a superset suffix of the scalar's in-window
                # trim with the identical tail), constraint-equivalent
                # for every future query.
                acts = rank_acts[ri]
                if len(acts) >= 4:
                    faw = acts[-4] + tFAW
                    if faw > act_start:
                        act_start = faw
                acts.append(act_start)
                if len(acts) > 8:
                    del acts[0]
                if observer is not None:
                    if closes_row:
                        observer.on_command(PreCommand(flat, pre_start))
                    observer.on_command(ActCommand(
                        flat, ri, ci, group, row, act_start))
                bank_open[flat] = row
                bank_act[flat] = act_start
                stat_acts += 1
                activation_nj += act_e
                cas_start = act_start + tRCD
                # Inlined MemoryController._run_mitigation, batched into
                # credit-guaranteed epochs: buffered activations cannot
                # produce actions, so only the boundary step below runs
                # Python mitigation code.
                if act_start >= next_window:
                    if epoch_n:
                        _flush_epoch(epoch_n)
                        epoch_n = 0
                    on_refresh_window(act_start)
                    next_window += tREFW
                    epoch_left = epoch_credit()
                if epoch_left:
                    epoch_left -= 1
                    epoch_n += 1
                    if epoch_trace:
                        eb_append(flat)
                        if epoch_rows_on:
                            er_append(row)
                        if epoch_times_on:
                            et_append(act_start)
                else:
                    if epoch_n:
                        _flush_epoch(epoch_n)
                        epoch_n = 0
                    actions = on_activation(flat, row, act_start)
                    epoch_left = epoch_credit()
                    if actions:
                        for action in actions:
                            if isinstance(action, PreventiveRefresh):
                                fb = action.flat_bank
                                aggressor = action.aggressor_row
                                victims = [
                                    aggressor + d
                                    for d in action.victim_offsets
                                    if 0 <= aggressor + d < rows_per_bank]
                                if observer is not None:
                                    observer.on_command(MitigationRequest(
                                        fb, aggressor, "refresh",
                                        tuple(victims), len(victims),
                                        act_start))
                                ready = bank_ready[fb]
                                start = ready if ready > now else now
                                duration = 0.0
                                for victim in victims:
                                    tras_ns, full = preventive_tras_ns(
                                        fb, victim, start)
                                    if observer is not None:
                                        observer.on_command(
                                            PreventiveRefreshCmd(
                                                fb, victim,
                                                start + duration, tras_ns,
                                                full))
                                    duration += tras_ns + tRP
                                    if tras_ns <= 0:
                                        raise SimulationError(
                                            "non-positive tRAS in energy "
                                            "model")
                                    preventive_nj += 1 * (
                                        E_ACT_BASE_NJ
                                        + E_RESTORE_PER_NS * tras_ns)
                                    stat_prev_rows += 1
                                    if full:
                                        stat_prev_full += 1
                                    else:
                                        stat_prev_partial += 1
                                bank_ready[fb] = start + duration
                                bank_prev_busy[fb] += duration
                                bank_open[fb] = None
                            elif isinstance(action, RfmCommand):
                                fb = action.flat_bank
                                if observer is not None:
                                    observer.on_command(MitigationRequest(
                                        fb, -1, "rfm", (),
                                        action.victim_rows, act_start))
                                ready = bank_ready[fb]
                                start = ready if ready > now else now
                                duration = 0.0
                                for _ in range(action.victim_rows):
                                    tras_ns, full = preventive_tras_ns(
                                        fb, -1, start)
                                    if observer is not None:
                                        observer.on_command(
                                            PreventiveRefreshCmd(
                                                fb, -1, start + duration,
                                                tras_ns, full))
                                    duration += tras_ns + tRP
                                    if tras_ns <= 0:
                                        raise SimulationError(
                                            "non-positive tRAS in energy "
                                            "model")
                                    preventive_nj += 1 * (
                                        E_ACT_BASE_NJ
                                        + E_RESTORE_PER_NS * tras_ns)
                                    stat_prev_rows += 1
                                    if full:
                                        stat_prev_full += 1
                                    else:
                                        stat_prev_partial += 1
                                stat_rfm += 1
                                if action.is_backoff:
                                    stat_backoff += 1
                                bank_ready[fb] = start + duration
                                bank_prev_busy[fb] += duration
                                bank_open[fb] = None
                            elif isinstance(action, MetadataAccess):
                                fb = action.flat_bank
                                ready = bank_ready[fb]
                                start = ready if ready > now else now
                                total = ((action.reads + action.writes)
                                         * metadata_per_access)
                                if observer is not None:
                                    observer.on_command(MetadataCmd(
                                        fb, start, total, action.reads,
                                        action.writes))
                                bank_ready[fb] = start + total
                                bank_open[fb] = None
                                stat_meta_reads += action.reads
                                stat_meta_writes += action.writes
                                metadata_nj += (
                                    action.reads * E_READ_NJ
                                    + action.writes * E_WRITE_NJ)
                            else:  # pragma: no cover - exhaustive
                                raise SimulationError(
                                    f"unknown mitigation action "
                                    f"{action!r}")
                        # Mitigation actions may have pushed the bank's
                        # ready time.
                        ready = bank_ready[flat]
                        if ready > cas_start:
                            cas_start = ready
            # Inlined ChannelTimeline.cas_constraint.
            spacing = tCCD_L if group == chan_last_group[ci] else tCCD
            constrained = chan_last_cas[ci] + spacing
            if constrained > cas_start:
                cas_start = constrained
            chan_last_cas[ci] = cas_start
            chan_last_group[ci] = group
            if observer is not None:
                observer.on_command(CasCommand(
                    flat, ci, group, row, cas_start, not serviced_read))
            # Inlined ChannelTimeline.reserve_bus.
            burst_earliest = cas_start + tCL
            bus_free = chan_bus_free[ci]
            burst_start = (burst_earliest if burst_earliest > bus_free
                           else bus_free)
            data_done = burst_start + tBL
            chan_bus_free[ci] = data_done
            if serviced_read:
                stat_reads += 1
                read_nj += E_READ_NJ
            else:
                stat_writes += 1
                write_nj += E_WRITE_NJ
                data_done += tWR
            completion_c[rid] = data_done
            blocked = cas_start + tCCD + act_penalty
            if blocked > bank_ready[flat]:
                bank_ready[flat] = blocked
            if cas_start > now:
                now = cas_start
        stall_guard = 0
        if serviced_read:
            lat_append(data_done - arrival)
            if data_done > core_lastc[core_i]:
                core_lastc[core_i] = data_done
            if rid == core_stall[core_i]:
                # --- resume the window-stalled core (pump, inlined) ---
                # Same walk as _pump_core, on the loop's own locals: the
                # serviced read was the core's window stall, so this runs
                # once per stalled completion — the hottest pump site.
                i = core_index[core_i]
                n = core_n[core_i]
                inflight = core_inflight[core_i]
                positions = core_positions[core_i]
                fetch_done = core_fetch[core_i]
                tails = core_tails[core_i]
                floor = core_floor[core_i]
                last_completion = core_lastc[core_i]
                stall = -1
                while i < n:
                    position = positions[i]
                    if inflight:
                        head_position, head_rid = inflight[0]
                        if position - head_position >= window:
                            done = completion_c[head_rid]
                            if done < 0.0:
                                stall = head_rid
                                break
                            if done > floor:
                                floor = done
                            inflight.popleft()
                            if done > last_completion:
                                last_completion = done
                            continue
                    done = fetch_done[i]
                    emit_arrival = done if done > floor else floor
                    emit_rid = len(completion_c)
                    completion_c.append(-1.0)
                    tail = tails[i]
                    emit_entry = (emit_arrival, emit_rid) + tail
                    if tail[2]:  # is_read
                        inflight.append((position, emit_rid))
                        # Per-core arrivals are nondecreasing, so with
                        # one producer the common case extends the tail;
                        # insort only when another core's entry sits
                        # behind this arrival.
                        if not read_queue or emit_entry >= read_queue[-1]:
                            read_queue.append(emit_entry)
                        else:
                            insort_right(read_queue, emit_entry)
                    else:
                        insort_right(write_queue, emit_entry)
                        emit_addr = tail[3]
                        pending = writes_by_addr.get(emit_addr)
                        if pending is None:
                            writes_by_addr[emit_addr] = [
                                (emit_arrival, emit_rid)]
                        else:
                            pending.append((emit_arrival, emit_rid))
                    i += 1
                core_index[core_i] = i
                core_floor[core_i] = floor
                core_lastc[core_i] = last_completion
                core_stall[core_i] = stall
        # --- fast-path pre-pick ---------------------------------------
        # Window-serialized cores leave exactly one read queued after the
        # pump; when no write is pending and no refresh falls before its
        # service time, the next iteration's gate, watermark, and FR-FCFS
        # scan are all no-ops — pre-pick the entry and skip them.
        if len(read_queue) == 1 and not write_queue:
            head = read_queue[0]
            jump = head[0]
            if jump < now:
                jump = now
            if jump < next_refresh:
                now = jump
                del read_queue[0]
                draining = False
                fast_entry = head

    # Any trailing credit-covered activations still need to reach the
    # mechanism before its counters are read.
    if epoch_n:
        _flush_epoch(epoch_n)

    # --- flush columnar state back to the shared objects --------------
    for fb, bank in enumerate(ctrl.banks):
        bank.open_row = bank_open[fb]
        bank.ready_ns = bank_ready[fb]
        bank.act_ns = bank_act[fb]
        bank.preventive_busy_ns = bank_prev_busy[fb]
        bank.refresh_busy_ns = bank_refresh_busy[fb]
    for ri, rank in enumerate(ctrl.ranks):
        rank.next_refresh_ns = rank_next_ref[ri]
        rank.recent_acts = rank_acts[ri]
    for ci, channel in enumerate(ctrl.channels):
        channel.bus_free_ns = chan_bus_free[ci]
        channel.last_cas_ns = chan_last_cas[ci]
        channel.last_cas_group = chan_last_group[ci]
    for c, core in enumerate(cores):
        core._index = core_index[c]
        core._issue_floor_ns = core_floor[c]
        core._last_completion_ns = core_lastc[c]
        core._stall_rid = core_stall[c]
    stats.reads = stat_reads
    stats.writes = stat_writes
    stats.forwarded_reads = stat_forwarded
    stats.row_hits = stat_hits
    stats.row_misses = stat_misses
    stats.activations = stat_acts
    stats.periodic_refreshes = stat_periodic
    stats.preventive_refresh_rows = stat_prev_rows
    stats.preventive_refresh_full = stat_prev_full
    stats.preventive_refresh_partial = stat_prev_partial
    stats.rfm_commands = stat_rfm
    stats.backoff_events = stat_backoff
    stats.metadata_reads = stat_meta_reads
    stats.metadata_writes = stat_meta_writes
    energy.activation_nj = activation_nj
    energy.read_nj = read_nj
    energy.write_nj = write_nj
    energy.periodic_refresh_nj = periodic_nj
    energy.preventive_refresh_nj = preventive_nj
    energy.metadata_nj = metadata_nj
    if lat_values:
        lat_counts = latency._counts
        lat_get = lat_counts.get
        values, counts = np.unique(np.asarray(lat_values),
                                   return_counts=True)
        for value, occurrences in zip(values.tolist(), counts.tolist()):
            lat_counts[value] = lat_get(value, 0) + occurrences
        latency.count += len(lat_values)
    ctrl.now_ns = now
    ctrl._next_refresh_window_ns = next_window
    ctrl._draining_writes = draining
    return [core.stats() for core in cores]

"""FR-FCFS memory controller with mitigation and refresh-latency plugins.

Scheduling follows FR-FCFS: among arrived requests, row-buffer hits win,
ties broken by age; writes are buffered and drained when the write queue
crosses its high watermark or no reads are pending.  Every row activation is
reported to the RowHammer mitigation plugin, whose preventive actions the
controller executes — asking the :class:`RefreshLatencyPolicy` (PaCRAM, or
the nominal default) for the charge-restoration latency of each preventive
refresh.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.mitigations.base import (
    MetadataAccess,
    MitigationMechanism,
    NoMitigation,
    PreventiveRefresh,
    RfmCommand,
)
from repro.sim.bankmodel import BankTimeline, ChannelTimeline, RankTimeline
from repro.sim.commands import (
    ActCommand,
    CasCommand,
    CommandObserver,
    MetadataCmd,
    MitigationRequest,
    PreCommand,
    PreventiveRefreshCmd,
    RefCommand,
)
from repro.sim.config import SystemConfig
from repro.sim.energy import EnergyModel
from repro.sim.request import Request
from repro.sim.stats import ControllerStats


class RefreshLatencyPolicy:
    """Default refresh-latency policy: nominal latency for everything.

    PaCRAM (:class:`repro.core.pacram.PaCRAM`) subclasses this to return
    reduced latencies and to bound consecutive partial restorations; the
    mitigation's ``N_RH`` is scaled before the run, by
    :meth:`repro.core.config.PaCRAMConfig.scaled_nrh`.
    """

    def __init__(self, config: SystemConfig) -> None:
        self.config = config

    def preventive_tras_ns(self, flat_bank: int, row: int,
                           now_ns: float) -> tuple[float, bool]:
        """(charge-restoration latency, is_full_restoration) for one
        preventive refresh of ``row``."""
        return self.config.timing.tRAS, True

    def periodic_refresh_scale(self) -> float:
        """Scaling of the periodic-refresh latency (Appendix B extension)."""
        return 1.0

    def partial_restoration_limit(self) -> int | None:
        """Max consecutive partial restorations a row may legally receive.

        ``None`` means this policy never issues partial restorations, so an
        observer should treat *any* partial restoration as a violation.
        PaCRAM overrides this with its ``N_PCR`` bound (§8.3).
        """
        return None


class MemoryController:
    """One memory controller driving all channels of the system."""

    def __init__(self, config: SystemConfig,
                 mitigation: MitigationMechanism | None = None,
                 policy: RefreshLatencyPolicy | None = None,
                 observer: CommandObserver | None = None) -> None:
        self.config = config
        self.timing = config.timing
        self.mitigation = mitigation or NoMitigation()
        self.policy = policy or RefreshLatencyPolicy(config)
        #: Optional command-stream observer (``repro.validation``).  ``None``
        #: keeps every instrumented path at a single pointer check.
        self.observer = observer
        self.stats = ControllerStats()
        self.energy = EnergyModel(ranks=config.channels * config.ranks)
        self.banks = [BankTimeline() for _ in range(config.total_banks)]
        self.ranks = [RankTimeline() for _ in range(config.channels * config.ranks)]
        self.channels = [ChannelTimeline() for _ in range(config.channels)]
        self.read_queue: list[Request] = []
        self.write_queue: list[Request] = []
        self.now_ns = 0.0
        self._draining_writes = False
        self._next_refresh_window_ns = self.timing.tREFW
        self._rows_per_periodic_refresh = self._rows_per_ref()
        for rank in self.ranks:
            rank.next_refresh_ns = self.timing.tREFI

    # ------------------------------------------------------------------
    # queue management
    # ------------------------------------------------------------------
    def enqueue(self, request: Request) -> None:
        queue = self.read_queue if request.is_read else self.write_queue
        queue.append(request)

    def pending_requests(self) -> int:
        return len(self.read_queue) + len(self.write_queue)

    def next_arrival_ns(self) -> float | None:
        """Earliest arrival among queued requests (None if queues empty)."""
        best: float | None = None
        for queue in (self.read_queue, self.write_queue):
            for request in queue:
                time_ns = request.arrival_ns
                if best is None or time_ns < best:
                    best = time_ns
        return best

    def advance_to_next_arrival(self) -> bool:
        """Advance the clock to the earliest queued arrival in one call.

        Coalesces the ``next_arrival_ns()`` query and the ``advance_to()``
        that always followed it: one queue scan moves the clock to the
        shared timestamp, after which every request arriving at it is
        serviced without further time queries.  Returns False (and leaves
        the clock alone) when both queues are empty.
        """
        next_arrival = self.next_arrival_ns()
        if next_arrival is None:
            return False
        if next_arrival > self.now_ns:
            self.now_ns = next_arrival
        return True

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    #: Latency of forwarding read data out of the write queue (SRAM lookup).
    FORWARD_LATENCY_NS = 2.0

    def service_one(self) -> Request | None:
        """Pick and service one request (FR-FCFS); returns it, with its
        ``completion_ns`` filled in, or None if nothing has arrived yet."""
        self._apply_periodic_refresh(self.now_ns)
        self._update_drain_mode()
        request = self._pick()
        if request is None:
            return None
        if request.is_read and self._forward_from_write_queue(request):
            return request
        self._service(request)
        return request

    def _forward_from_write_queue(self, request: Request) -> bool:
        """Serve a read from a pending older write to the same line."""
        for write in self.write_queue:
            if (write.address == request.address
                    and write.arrival_ns <= request.arrival_ns):
                request.completion_ns = (max(self.now_ns, request.arrival_ns)
                                         + self.FORWARD_LATENCY_NS)
                self.stats.reads += 1
                self.stats.forwarded_reads += 1
                return True
        return False

    def advance_to(self, time_ns: float) -> None:
        """Move the controller clock forward (e.g. to the next arrival)."""
        if time_ns > self.now_ns:
            self.now_ns = time_ns

    def _update_drain_mode(self) -> None:
        depth = self.config.write_queue_depth
        if len(self.write_queue) >= depth * self.config.write_high_watermark:
            self._draining_writes = True
        elif len(self.write_queue) <= depth * self.config.write_low_watermark:
            self._draining_writes = False

    def _arrived(self, queue: list[Request]) -> list[Request]:
        return [r for r in queue if r.arrival_ns <= self.now_ns]

    def _pick(self) -> Request | None:
        reads = self._arrived(self.read_queue)
        writes = self._arrived(self.write_queue)
        if self._draining_writes and writes:
            candidates = writes
        elif reads:
            candidates = reads
        elif writes:
            candidates = writes  # no read is ready: opportunistic drain
        else:
            return None
        hits = [r for r in candidates
                if self._bank(r).open_row == r.decoded.row]
        pool = hits or candidates
        request = min(pool, key=lambda r: r.arrival_ns)
        queue = self.read_queue if request.is_read else self.write_queue
        queue.remove(request)
        return request

    # ------------------------------------------------------------------
    # command timing
    # ------------------------------------------------------------------
    def _bank(self, request: Request) -> BankTimeline:
        return self.banks[self._flat_bank(request)]

    def _flat_bank(self, request: Request) -> int:
        d = request.decoded
        c = self.config
        return d.bank + c.banks_per_group * (
            d.bank_group + c.bank_groups * (d.rank + c.ranks * d.channel))

    def _rank_index(self, request: Request) -> int:
        d = request.decoded
        return d.rank + self.config.ranks * d.channel

    def _service(self, request: Request) -> None:
        timing = self.timing
        flat = self._flat_bank(request)
        bank = self.banks[flat]
        rank_index = self._rank_index(request)
        rank = self.ranks[rank_index]
        channel = self.channels[request.decoded.channel]
        row = request.decoded.row
        earliest = max(self.now_ns, request.arrival_ns, bank.ready_ns)
        observer = self.observer

        if bank.open_row == row:
            self.stats.row_hits += 1
            cas_start = earliest
        else:
            self.stats.row_misses += 1
            act_start = earliest
            closes_row = bank.open_row is not None
            if closes_row:
                # Ready-to-precharge: tRAS after the last ACT, then tRP.
                pre_start = max(earliest, bank.act_ns + timing.tRAS)
                act_start = pre_start + timing.tRP
            act_start = max(act_start, rank.faw_constraint(act_start, timing.tFAW))
            rank.record_act(act_start)
            if observer is not None:
                if closes_row:
                    observer.on_command(PreCommand(flat, pre_start))
                decoded = request.decoded
                observer.on_command(ActCommand(
                    flat, rank_index, decoded.channel, decoded.bank_group,
                    row, act_start))
            bank.open_row = row
            bank.act_ns = act_start
            self.stats.activations += 1
            self.energy.add_activation(timing.tRAS)
            cas_start = act_start + timing.tRCD
            self._run_mitigation(flat, row, act_start)
            # Mitigation actions may have pushed the bank's ready time.
            cas_start = max(cas_start, bank.ready_ns)

        cas_start = channel.cas_constraint(
            cas_start, request.decoded.bank_group, timing.tCCD, timing.tCCD_L)
        if observer is not None:
            decoded = request.decoded
            observer.on_command(CasCommand(
                flat, decoded.channel, decoded.bank_group, row,
                cas_start, not request.is_read))
        if request.is_read:
            self.stats.reads += 1
            self.energy.add_read()
            data_done = channel.reserve_bus(cas_start + timing.tCL, timing.tBL)
        else:
            self.stats.writes += 1
            self.energy.add_write()
            data_done = channel.reserve_bus(cas_start + timing.tCL, timing.tBL)
            data_done += timing.tWR  # write recovery before the row can close
        request.completion_ns = data_done
        bank.block_until(cas_start + timing.tCCD
                         + self.mitigation.act_penalty_ns)
        self.now_ns = max(self.now_ns, cas_start)

    # ------------------------------------------------------------------
    # mitigation actions
    # ------------------------------------------------------------------
    def _run_mitigation(self, flat: int, row: int,
                        act_start: float) -> None:
        if act_start >= self._next_refresh_window_ns:
            self.mitigation.on_refresh_window(act_start)
            self._next_refresh_window_ns += self.timing.tREFW
        actions = self.mitigation.on_activation(flat, row, act_start)
        observer = self.observer
        for action in actions:
            if isinstance(action, PreventiveRefresh):
                if observer is not None:
                    victims = tuple(self._victim_rows(
                        action.aggressor_row, action.victim_offsets))
                    observer.on_command(MitigationRequest(
                        action.flat_bank, action.aggressor_row, "refresh",
                        victims, len(victims), act_start))
                self._do_preventive_refresh(action)
            elif isinstance(action, RfmCommand):
                if observer is not None:
                    observer.on_command(MitigationRequest(
                        action.flat_bank, -1, "rfm", (),
                        action.victim_rows, act_start))
                self._do_rfm(action)
            elif isinstance(action, MetadataAccess):
                self._do_metadata(action)
            else:  # pragma: no cover - exhaustive over Action
                raise SimulationError(f"unknown mitigation action {action!r}")

    def _victim_rows(self, aggressor: int,
                     offsets: tuple[int, ...]) -> list[int]:
        rows = self.config.rows_per_bank
        return [aggressor + d for d in offsets
                if 0 <= aggressor + d < rows]

    def _do_preventive_refresh(self, action: PreventiveRefresh) -> None:
        bank = self.banks[action.flat_bank]
        start = max(bank.ready_ns, self.now_ns)
        duration = 0.0
        observer = self.observer
        for victim in self._victim_rows(action.aggressor_row,
                                        action.victim_offsets):
            tras_ns, full = self.policy.preventive_tras_ns(
                action.flat_bank, victim, start)
            if observer is not None:
                observer.on_command(PreventiveRefreshCmd(
                    action.flat_bank, victim, start + duration, tras_ns, full))
            duration += tras_ns + self.timing.tRP
            self.energy.add_preventive_refresh(1, tras_ns)
            self.stats.preventive_refresh_rows += 1
            if full:
                self.stats.preventive_refresh_full += 1
            else:
                self.stats.preventive_refresh_partial += 1
        bank.occupy(start, duration, preventive=True)
        bank.open_row = None  # the refresh closes the row buffer

    def _do_rfm(self, action: RfmCommand) -> None:
        bank = self.banks[action.flat_bank]
        start = max(bank.ready_ns, self.now_ns)
        duration = 0.0
        observer = self.observer
        for _ in range(action.victim_rows):
            tras_ns, full = self.policy.preventive_tras_ns(
                action.flat_bank, -1, start)
            if observer is not None:
                observer.on_command(PreventiveRefreshCmd(
                    action.flat_bank, -1, start + duration, tras_ns, full))
            duration += tras_ns + self.timing.tRP
            self.energy.add_preventive_refresh(1, tras_ns)
            self.stats.preventive_refresh_rows += 1
            if full:
                self.stats.preventive_refresh_full += 1
            else:
                self.stats.preventive_refresh_partial += 1
        self.stats.rfm_commands += 1
        if action.is_backoff:
            self.stats.backoff_events += 1
        bank.occupy(start, duration, preventive=True)
        bank.open_row = None

    def _do_metadata(self, action: MetadataAccess) -> None:
        bank = self.banks[action.flat_bank]
        timing = self.timing
        start = max(bank.ready_ns, self.now_ns)
        per_access = timing.tRP + timing.tRCD + timing.tCL + timing.tBL
        total = (action.reads + action.writes) * per_access
        if self.observer is not None:
            self.observer.on_command(MetadataCmd(
                action.flat_bank, start, total, action.reads, action.writes))
        bank.occupy(start, total)
        bank.open_row = None
        self.stats.metadata_reads += action.reads
        self.stats.metadata_writes += action.writes
        self.energy.add_metadata_access(action.reads, action.writes)

    # ------------------------------------------------------------------
    # periodic refresh
    # ------------------------------------------------------------------
    def _rows_per_ref(self) -> int:
        refs_per_window = self.timing.tREFW / self.timing.tREFI
        rows = self.config.rows_per_bank / refs_per_window
        return max(1, round(rows))

    def _apply_periodic_refresh(self, up_to_ns: float) -> None:
        for rank_index, rank in enumerate(self.ranks):
            while rank.next_refresh_ns <= up_to_ns:
                self._apply_one_refresh(rank_index, rank,
                                        rank.next_refresh_ns)
                rank.next_refresh_ns += self.timing.tREFI

    def _apply_one_refresh(self, rank_index: int, rank: RankTimeline,
                           start: float) -> None:
        """Execute one all-bank REF command on ``rank`` at ``start``."""
        timing = self.timing
        # The policy is consulted per REF command (Appendix B's window
        # counter advances with each one).
        scale = self.policy.periodic_refresh_scale()
        trfc = timing.tRFC * scale
        if self.observer is not None:
            self.observer.on_command(RefCommand(rank_index, start, trfc))
        for bank in self._banks_of_rank(rank_index):
            busy_from = max(bank.ready_ns, start)
            bank.ready_ns = busy_from + trfc
            bank.refresh_busy_ns += trfc
            bank.open_row = None
            self.energy.add_periodic_refresh(
                self._rows_per_periodic_refresh, timing.tRAS * scale)
        self.stats.periodic_refreshes += 1

    def _banks_of_rank(self, rank_index: int) -> list[BankTimeline]:
        per_rank = self.config.banks_per_rank
        lo = rank_index * per_rank
        return self.banks[lo:lo + per_rank]

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def preventive_busy_fraction(self, elapsed_ns: float) -> float:
        """Fraction of bank-time spent on preventive refreshes (Fig. 3)."""
        if elapsed_ns <= 0:
            raise SimulationError("elapsed time must be positive")
        busy = sum(b.preventive_busy_ns for b in self.banks)
        return busy / (elapsed_ns * len(self.banks))

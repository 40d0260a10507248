"""Trace-driven core model (Table 2: 4-wide, 128-entry instruction window).

The model captures what matters for memory-system studies: the frontend
consumes non-memory instructions at ``issue_width`` per cycle, loads occupy
the instruction window until their data returns (bounding memory-level
parallelism to the window size), and stores retire immediately through the
write buffer.  Instructions-per-cycle then reflects both compute throughput
and memory stalls — including stalls caused by banks busy with preventive
refreshes, which is the effect the paper measures.
"""

from __future__ import annotations

from collections import deque

from repro.errors import SimulationError
from repro.sim.addrmap import AddressMapper
from repro.sim.config import SystemConfig
from repro.sim.request import Request, RequestType
from repro.sim.stats import CoreStats
from repro.workloads.trace import Trace


class CoreModel:
    """One core replaying a memory trace."""

    def __init__(self, core_id: int, trace: Trace, config: SystemConfig,
                 mapper: AddressMapper, address_offset: int = 0) -> None:
        self.core_id = core_id
        self.trace = trace
        self.config = config
        self.mapper = mapper
        self.address_offset = address_offset
        self._index = 0
        self._next_position = 0  #: instruction position of the next trace entry
        self._frontend_ns = 0.0
        self._issue_floor_ns = 0.0  #: earliest issue after a window stall
        self._inflight: deque[Request] = deque()  #: outstanding reads, in order
        self._last_completion_ns = 0.0

    # ------------------------------------------------------------------
    def pump(self) -> list[Request]:
        """Emit every request whose issue time is now determined.

        Stops when the instruction window is full behind an unserviced load;
        call again after that load completes.
        """
        out: list[Request] = []
        trace = self.trace
        cycle = self.config.core_cycle_ns
        width = self.config.issue_width
        window = self.config.instruction_window
        while self._index < len(trace):
            bubbles = int(trace.bubbles[self._index])
            position = self._next_position + bubbles
            if self._window_occupancy(position) >= window:
                # Retirement is in-order: the oldest load occupies its window
                # slot until its data returns, and the blocked instruction
                # enters the window no earlier than that retirement.
                head = self._inflight[0]
                if head.completion_ns < 0:
                    break  # stalled: resume after the head load completes
                self._issue_floor_ns = max(self._issue_floor_ns,
                                           head.completion_ns)
                self._retire_head()
                continue
            fetch_done = self._frontend_ns + bubbles * cycle / width
            arrival = max(fetch_done, self._issue_floor_ns)
            request = self._make_request(position, arrival)
            if request.is_read:
                self._inflight.append(request)
            out.append(request)
            self._frontend_ns = fetch_done + cycle / width
            self._next_position = position + 1
            self._index += 1
        return out

    def _make_request(self, position: int, arrival_ns: float) -> Request:
        address = int(self.trace.addresses[self._index]) + self.address_offset
        is_write = bool(self.trace.is_write[self._index])
        decoded = self.mapper.decode(address)
        return Request(
            core=self.core_id, address=address,
            type=RequestType.WRITE if is_write else RequestType.READ,
            arrival_ns=arrival_ns, decoded=decoded, position=position)

    def _window_occupancy(self, position: int) -> int:
        if not self._inflight:
            return 0
        return position - self._inflight[0].position

    def _retire_head(self) -> None:
        head = self._inflight.popleft()
        if head.completion_ns < 0:
            raise SimulationError("retiring an unserviced load")
        self._last_completion_ns = max(self._last_completion_ns,
                                       head.completion_ns)

    # ------------------------------------------------------------------
    def note_completion(self, request: Request) -> None:
        """Record a serviced read (the controller filled completion_ns)."""
        if request.completion_ns < 0:
            raise SimulationError("completion notification without a time")
        self._last_completion_ns = max(self._last_completion_ns,
                                       request.completion_ns)

    def trace_exhausted(self) -> bool:
        return self._index >= len(self.trace)

    def finished(self) -> bool:
        """All instructions issued and all loads returned."""
        if not self.trace_exhausted():
            return False
        return all(r.completion_ns >= 0 for r in self._inflight)

    def finish_time_ns(self) -> float:
        # Every serviced load's completion has already been folded into
        # _last_completion_ns (note_completion / _retire_head), so the
        # in-flight window never needs to be rescanned here.
        return max(self._frontend_ns, self._last_completion_ns)

    def stats(self) -> CoreStats:
        if not self.finished():
            raise SimulationError(f"core {self.core_id} has not finished")
        return CoreStats(
            core=self.core_id,
            instructions=self._next_position,
            elapsed_ns=self.finish_time_ns(),
            core_clock_ghz=self.config.core_clock_ghz)

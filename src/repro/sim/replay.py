"""Serve the runs whose mitigation never acts from the no-mitigation run.

Before its first action, a mitigation whose ``act_penalty_ns`` is zero
changes no command's timing, and a refresh-latency policy such as PaCRAM
is consulted only for the actions themselves.  So such a mechanism sees
exactly the activations the no-mitigation run issues, in the same order
and at the same times, and whether it ever acts is decided by that one
stream.  A run whose mechanism never acts *is* the no-mitigation run,
result for result.

:func:`activation_stream` records the stream once per process per (trace
arrays, :class:`~repro.sim.config.SystemConfig`) with one array-kernel
run: every activation's flat bank, row and ACT time, the activations at
which a refresh window began, and the no-mitigation
:class:`~repro.sim.system.SimulationResult`.  :meth:`ActivationStream.acts`
drives a fresh mechanism through it with the array kernel's dispatch:
``epoch_credit`` and ``on_activation_epoch`` for credit-covered runs,
``on_activation`` at each boundary, and ``on_refresh_window`` at the
first activation at or after each tREFW.  The mechanism therefore makes
the calls the full run would make, in order, on the same state and rng
stream, up to its first action.
:func:`repro.analysis.runner.run_simulation` serves the recorded result
when the replay never acts and runs the point in full from time 0 when
it does.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

from repro.mitigations.base import Action, MitigationMechanism, NoMitigation
from repro.sim.arraykernel import ArrayMemo, read_only
from repro.sim.config import SystemConfig
from repro.sim.system import MemorySystem, SimulationResult
from repro.workloads.trace import Trace

#: Recorded streams, bounded by the requests their runs simulated.  A
#: request activates at most once, and one recorded activation costs
#: about 80 bytes, so about 5 MiB when full.  One evaluation pass needs
#: 800: two single-core traces of 400 requests.
_streams = ArrayMemo(budget=65_536)


def clear_stream_memo() -> None:
    """Forget every recorded activation stream."""
    _streams.clear()


class _ActivationRecorder(NoMitigation):
    """The no-mitigation baseline, taking every activation's columns.

    :class:`NoMitigation` takes a bare count per epoch; asking for rows
    and times changes only what the kernel buffers, never the run.
    """

    epoch_needs_trace = True

    def __init__(self) -> None:
        super().__init__()
        self.banks: list[int] = []
        self.rows: list[int] = []
        self.times: list[float] = []
        self.windows: list[int] = []

    def on_activation(self, flat_bank: int, row: int,
                      now_ns: float) -> Sequence[Action]:
        self.banks.append(flat_bank)
        self.rows.append(row)
        self.times.append(now_ns)
        return super().on_activation(flat_bank, row, now_ns)

    def on_activation_epoch(
        self, flat_banks: Sequence[int] | None, rows: Sequence[int] | None,
        times: Sequence[float] | None, count: int | None = None,
    ) -> tuple[tuple[int, ...], list[Action]]:
        self.banks.extend(flat_banks)
        self.rows.extend(rows)
        self.times.extend(times)
        return super().on_activation_epoch(flat_banks, rows, times, count)

    def on_refresh_window(self, now_ns: float) -> None:
        # The kernel flushes the open epoch first, so every earlier
        # activation is recorded and this one opens the window.
        self.windows.append(len(self.times))


class ActivationStream:
    """One no-mitigation run: its activations and its result."""

    __slots__ = ("banks", "rows", "times", "windows", "_result")

    def __init__(self, recorder: _ActivationRecorder,
                 result: SimulationResult) -> None:
        self.banks = recorder.banks
        self.rows = recorder.rows
        self.times = recorder.times
        #: Index of each activation at which a refresh window began.
        self.windows = recorder.windows
        self._result = result

    def result(self) -> SimulationResult:
        """A fresh copy of the no-mitigation result, for the caller to
        keep or mutate (only the frozen latency summary is shared)."""
        kept = self._result
        return replace(
            kept, core_stats=[replace(stats) for stats in kept.core_stats],
            controller_stats=replace(kept.controller_stats),
            energy_breakdown=dict(kept.energy_breakdown),
            protocol_violations=[])

    def acts(self, mechanism: MitigationMechanism) -> bool:
        """Whether ``mechanism`` acts on this stream.

        ``mechanism`` must be fresh and have no ACT penalty.  It is driven
        exactly as :func:`repro.sim.arraykernel.service_array` drives it,
        until its first action (or an epoch that reports one, which the
        kernel refuses): the full run then reproduces that action, or the
        kernel's refusal, from time 0.
        """
        banks, rows, times = self.banks, self.rows, self.times
        columns = mechanism.epoch_needs_trace
        rows_on = columns and mechanism.epoch_needs_rows
        times_on = columns and mechanism.epoch_needs_times
        epoch_credit = mechanism.epoch_credit
        on_activation = mechanism.on_activation
        on_activation_epoch = mechanism.on_activation_epoch

        def flush(start: int, stop: int) -> bool:
            if columns:
                triggers, actions = on_activation_epoch(
                    banks[start:stop],
                    rows[start:stop] if rows_on else None,
                    times[start:stop] if times_on else None)
            else:
                triggers, actions = on_activation_epoch(
                    None, None, None, count=stop - start)
            return bool(triggers or actions)

        credit = epoch_credit()
        # Activations [start, i) are buffered under credit, unflushed.
        start = i = 0
        ends = self.windows + [len(times)]
        for k, end in enumerate(ends):
            if k:  # activation i opens a refresh window
                if start < i and flush(start, i):
                    return True
                start = i
                mechanism.on_refresh_window(times[i])
                credit = epoch_credit()
            while i < end:
                if credit:
                    step = min(credit, end - i)
                    credit -= step
                    i += step
                    continue
                if start < i and flush(start, i):
                    return True
                if on_activation(banks[i], rows[i], times[i]):
                    return True
                credit = epoch_credit()
                i += 1
                start = i
        return start < i and flush(start, i)


def activation_stream(traces: Sequence[Trace],
                      config: SystemConfig) -> ActivationStream | None:
    """The no-mitigation run of ``traces`` on ``config``, with its
    activations.

    Recorded by one array-kernel run and shared per (trace arrays,
    config), like :func:`~repro.sim.arraykernel.decoded_columns`.
    ``None`` when a trace is writable (an in-place edit could make a
    recorded stream stale, so such runs are simulated in full) or the
    traces alone exceed the memo's budget.
    """
    arrays = tuple(array for trace in traces
                   for array in (trace.bubbles, trace.is_write,
                                 trace.addresses))
    requests = sum(len(trace) for trace in traces)
    if requests > _streams.budget or not all(map(read_only, arrays)):
        return None
    return _streams.get(arrays, (config,), requests,
                        lambda: _record(traces, config))


def _record(traces: Sequence[Trace],
            config: SystemConfig) -> ActivationStream:
    recorder = _ActivationRecorder()
    result = MemorySystem(config, list(traces),
                          mitigation=recorder).run("array")
    return ActivationStream(recorder, result)

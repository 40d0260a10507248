"""Runtime DDR protocol checker for the simulated memory controller.

:class:`ProtocolChecker` is a :class:`repro.sim.commands.CommandObserver`
that re-validates the controller's command stream against an *independent*
model of the DDR state machine: JEDEC timing constraints (tRCD, tRAS, tRP,
tRC, tRRD, tFAW, tCCD), ACT-to-open-row consistency, bank occupancy,
periodic-refresh cadence and the tREFW row-refresh deadline, and PaCRAM's
partial-restoration safety envelope (any partial restoration under a
nominal policy, and more than ``N_PCR`` consecutive partials under PaCRAM,
are violations — §8.3).  It also cross-checks mitigation *requests* against
the *executed* preventive-refresh stream, so a controller that silently
drops or delays a requested refresh is caught, and — for mechanisms with a
deterministic coverage guarantee (Graphene) — tracks per-victim hammer
pressure so a mitigation that skips victims is caught.

Two operating modes:

* ``strict`` — the first violation raises :class:`ProtocolViolation`;
* ``tolerant`` — violations accumulate in :attr:`violations`; a sweep
  writes each point's to a ``<key>.violations.jsonl`` ledger beside its
  row.

``off`` is represented by *not attaching* a checker (see
:func:`make_checker`): the controller's instrumentation then costs one
pointer check per command site.

The checker mirrors the controller's *lumped* service model: a preventive
refresh triggered by an activation may close the row between the ACT and
its CAS, so a CAS to the last-activated row of a refresh-closed bank is
legal.  All recorded times are simulation nanoseconds — the ledger is fully
deterministic for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError, ProtocolViolation
from repro.mitigations.base import MitigationMechanism
from repro.sim.commands import (
    ActCommand,
    CasCommand,
    Command,
    MetadataCmd,
    MitigationRequest,
    PreCommand,
    PreventiveRefreshCmd,
    RefCommand,
)
from repro.sim.config import SystemConfig

#: Tolerance for float round-off in timing comparisons (matches
#: :data:`repro.sim.bankmodel.OCCUPY_EPSILON_NS`).
EPSILON_NS = 1e-6

#: Valid values of every ``--check-protocol`` knob.
CHECK_MODES = ("off", "tolerant", "strict")


@dataclass(frozen=True)
class Violation:
    """One protocol/physics violation observed during a run."""

    rule: str
    time_ns: float
    message: str

    def to_json(self) -> dict:
        return {"rule": self.rule, "time_ns": self.time_ns,
                "message": self.message}


class _BankView:
    """The checker's independent view of one bank's state."""

    __slots__ = ("open_row", "last_act_ns", "last_act_row", "last_pre_ns",
                 "busy_until_ns", "closed_by")

    def __init__(self) -> None:
        self.open_row: int | None = None
        self.last_act_ns = float("-inf")
        self.last_act_row = -1
        self.last_pre_ns = float("-inf")
        self.busy_until_ns = 0.0
        self.closed_by = "none"  # "none" | "pre" | "refresh"


class _RankView:
    """Per-rank ACT history and refresh schedule tracking."""

    __slots__ = ("last_act_ns", "recent_acts", "last_ref_ns", "ref_count",
                 "ref_ring")

    def __init__(self, refs_per_window: int) -> None:
        self.last_act_ns = float("-inf")
        self.recent_acts: list[float] = []
        self.last_ref_ns = 0.0
        self.ref_count = 0
        self.ref_ring = [float("nan")] * refs_per_window


class _ChannelView:
    __slots__ = ("last_cas_ns", "last_cas_group")

    def __init__(self) -> None:
        self.last_cas_ns = float("-inf")
        self.last_cas_group = -1


class _PendingRequest:
    """A mitigation request awaiting its executed preventive refreshes."""

    __slots__ = ("time_ns", "kind", "victims", "remaining")

    def __init__(self, time_ns: float, kind: str,
                 victims: set[int], remaining: int) -> None:
        self.time_ns = time_ns
        self.kind = kind
        self.victims = victims
        self.remaining = remaining


class ProtocolChecker:
    """Validates the controller's command stream at runtime."""

    def __init__(self, config: SystemConfig, *, mode: str = "tolerant",
                 partial_limit: int | None = None,
                 mitigation: MitigationMechanism | None = None,
                 epsilon_ns: float = EPSILON_NS,
                 max_violations: int = 10_000) -> None:
        if mode not in ("tolerant", "strict"):
            raise ConfigError(
                f"checker mode must be 'tolerant' or 'strict', got {mode!r}"
                " ('off' means: attach no checker)")
        self.mode = mode
        self.config = config
        self.timing = config.timing
        self.eps = epsilon_ns
        self.max_violations = max_violations
        #: PaCRAM's N_PCR bound; ``None`` = partials are never legal.
        self.partial_limit = partial_limit
        #: Victim hammer-pressure bound, only for mechanisms that guarantee
        #: deterministic coverage.  Two refresh windows of four aggressors
        #: each staying under Graphene's 0.25 x N_RH trigger threshold give
        #: at most 2 x N_RH activations on a victim between its resets; the
        #: +16 absorbs the trigger-granularity slop.
        self._pressure_threshold: int | None = None
        if mitigation is not None and mitigation.deterministic_coverage:
            self._pressure_threshold = 2 * mitigation.nrh + 16
        #: Grace period for a requested refresh to execute before it counts
        #: as dropped/late (one refresh interval).
        self.grace_ns = self.timing.tREFI
        self.refs_per_window = max(
            1, round(self.timing.tREFW / self.timing.tREFI))
        self.rows_per_ref = max(
            1, round(config.rows_per_bank / self.refs_per_window))
        self._banks = [_BankView() for _ in range(config.total_banks)]
        self._ranks = [_RankView(self.refs_per_window)
                       for _ in range(config.channels * config.ranks)]
        self._channels = [_ChannelView() for _ in range(config.channels)]
        #: Consecutive-partial-restoration streaks, keyed (flat_bank, row).
        self._partial_streaks: dict[tuple[int, int], int] = {}
        self.max_partial_streak = 0
        #: Victim hammer pressure since last restoration, (flat_bank, row).
        self._pressure: dict[tuple[int, int], int] = {}
        #: Outstanding mitigation requests per flat bank.
        self._pending: dict[int, list[_PendingRequest]] = {}
        self.violations: list[Violation] = []
        self.overflowed_violations = 0
        self.commands_seen = 0
        self.finalized = False

    # ------------------------------------------------------------------
    # CommandObserver interface
    # ------------------------------------------------------------------
    def on_command(self, command: Command) -> None:
        self.commands_seen += 1
        if isinstance(command, CasCommand):
            self._on_cas(command)
        elif isinstance(command, ActCommand):
            self._on_act(command)
        elif isinstance(command, PreCommand):
            self._on_pre(command)
        elif isinstance(command, PreventiveRefreshCmd):
            self._on_preventive(command)
        elif isinstance(command, RefCommand):
            self._on_ref(command)
        elif isinstance(command, MitigationRequest):
            self._on_request(command)
        elif isinstance(command, MetadataCmd):
            self._on_metadata(command)

    def finalize(self, end_ns: float) -> None:
        """End-of-run checks: any still-unmatched mitigation request means
        the controller never executed it."""
        self.finalized = True
        for bank, pending in sorted(self._pending.items()):
            for req in pending:
                self._violation(
                    "mitigation.dropped-refresh", req.time_ns,
                    f"bank {bank}: {req.kind} request at {req.time_ns:.1f} ns "
                    f"never fully executed ({req.remaining} victims missing "
                    f"at end of run, {end_ns:.1f} ns)")
            pending.clear()

    # ------------------------------------------------------------------
    # per-command rules
    # ------------------------------------------------------------------
    def _on_act(self, cmd: ActCommand) -> None:
        timing = self.timing
        bank = self._banks[cmd.flat_bank]
        t = cmd.time_ns
        eps = self.eps
        if bank.open_row is not None:
            self._violation(
                "act.bank-occupied", t,
                f"bank {cmd.flat_bank}: ACT row {cmd.row} while row "
                f"{bank.open_row} is open")
        if t < bank.busy_until_ns - eps:
            self._violation(
                "act.busy-bank", t,
                f"bank {cmd.flat_bank}: ACT at {t:.3f} ns while busy until "
                f"{bank.busy_until_ns:.3f} ns")
        if t < bank.last_pre_ns + timing.tRP - eps:
            self._violation(
                "act.trp", t,
                f"bank {cmd.flat_bank}: ACT {t - bank.last_pre_ns:.3f} ns "
                f"after PRE violates tRP={timing.tRP} ns")
        if bank.closed_by == "pre" and t < bank.last_act_ns + timing.tRC - eps:
            self._violation(
                "act.trc", t,
                f"bank {cmd.flat_bank}: ACT {t - bank.last_act_ns:.3f} ns "
                f"after previous ACT violates tRC={timing.tRC} ns")
        rank = self._ranks[cmd.rank]
        if t < rank.last_act_ns + timing.tRRD - eps:
            self._violation(
                "act.trrd", t,
                f"rank {cmd.rank}: ACT {t - rank.last_act_ns:.3f} ns after "
                f"previous same-rank ACT violates tRRD={timing.tRRD} ns")
        window_start = t - timing.tFAW + eps
        recent = [x for x in rank.recent_acts if x > window_start]
        if len(recent) >= 4:
            self._violation(
                "act.tfaw", t,
                f"rank {cmd.rank}: fifth ACT within tFAW={timing.tFAW} ns "
                f"window ending at {t:.3f} ns")
        recent.append(t)
        rank.recent_acts = recent[-8:]
        rank.last_act_ns = t
        bank.open_row = cmd.row
        bank.last_act_ns = t
        bank.last_act_row = cmd.row
        bank.closed_by = "none"
        if self._pressure_threshold is not None:
            self._bump_pressure(cmd.flat_bank, cmd.row, t)

    def _bump_pressure(self, flat_bank: int, row: int, t: float) -> None:
        threshold = self._pressure_threshold
        rows = self.config.rows_per_bank
        for offset in (-2, -1, 1, 2):
            victim = row + offset
            if not 0 <= victim < rows:
                continue
            key = (flat_bank, victim)
            count = self._pressure.get(key, 0) + 1
            if count > threshold:
                self._violation(
                    "mitigation.unprotected-victim", t,
                    f"bank {flat_bank} row {victim}: {count} aggressor "
                    f"activations without a restoration exceeds the "
                    f"deterministic-coverage bound {threshold}")
                count = 0  # reset so one starved victim cannot flood
            self._pressure[key] = count

    def _on_pre(self, cmd: PreCommand) -> None:
        bank = self._banks[cmd.flat_bank]
        t = cmd.time_ns
        if bank.open_row is None:
            self._violation(
                "pre.closed-bank", t,
                f"bank {cmd.flat_bank}: PRE with no open row")
        if t < bank.last_act_ns + self.timing.tRAS - self.eps:
            self._violation(
                "pre.tras", t,
                f"bank {cmd.flat_bank}: PRE {t - bank.last_act_ns:.3f} ns "
                f"after ACT violates tRAS={self.timing.tRAS} ns")
        bank.open_row = None
        bank.closed_by = "pre"
        bank.last_pre_ns = t

    def _on_cas(self, cmd: CasCommand) -> None:
        timing = self.timing
        bank = self._banks[cmd.flat_bank]
        t = cmd.time_ns
        eps = self.eps
        # The controller's lumped service model may close the row with a
        # preventive/periodic refresh between an ACT and its CAS; the CAS is
        # then still legal against the last-activated row.
        on_target = (bank.open_row == cmd.row
                     or (bank.closed_by == "refresh"
                         and bank.last_act_row == cmd.row))
        if not on_target:
            if bank.open_row is None:
                self._violation(
                    "cas.closed-row", t,
                    f"bank {cmd.flat_bank}: CAS row {cmd.row} on a closed "
                    "bank with no matching activation")
            else:
                self._violation(
                    "cas.wrong-row", t,
                    f"bank {cmd.flat_bank}: CAS row {cmd.row} while row "
                    f"{bank.open_row} is open")
        elif t < bank.last_act_ns + timing.tRCD - eps:
            self._violation(
                "cas.trcd", t,
                f"bank {cmd.flat_bank}: CAS {t - bank.last_act_ns:.3f} ns "
                f"after ACT violates tRCD={timing.tRCD} ns")
        channel = self._channels[cmd.channel]
        spacing = (timing.tCCD_L if cmd.bank_group == channel.last_cas_group
                   else timing.tCCD)
        if t < channel.last_cas_ns + spacing - eps:
            self._violation(
                "cas.tccd", t,
                f"channel {cmd.channel}: CAS {t - channel.last_cas_ns:.3f} "
                f"ns after previous CAS violates tCCD={spacing} ns")
        channel.last_cas_ns = t
        channel.last_cas_group = cmd.bank_group
        if t + timing.tCCD > bank.busy_until_ns:
            bank.busy_until_ns = t + timing.tCCD

    def _on_ref(self, cmd: RefCommand) -> None:
        timing = self.timing
        rank = self._ranks[cmd.rank]
        t = cmd.time_ns
        if cmd.trfc_ns <= 0:
            self._violation(
                "refresh.nonpositive-latency", t,
                f"rank {cmd.rank}: REF with tRFC={cmd.trfc_ns} ns")
        gap = t - rank.last_ref_ns
        if gap > 1.5 * timing.tREFI + self.eps:
            self._violation(
                "ref.cadence", t,
                f"rank {cmd.rank}: {gap:.1f} ns since the previous REF "
                f"(expected every tREFI={timing.tREFI} ns)")
        index = rank.ref_count % self.refs_per_window
        if rank.ref_count >= self.refs_per_window:
            previous = rank.ref_ring[index]
            deadline = timing.tREFW + 0.5 * timing.tREFI
            if t - previous > deadline:
                self._violation(
                    "ref.deadline", t,
                    f"rank {cmd.rank}: rows last refreshed at "
                    f"{previous:.1f} ns not refreshed again within "
                    f"tREFW={timing.tREFW} ns")
        rank.ref_ring[index] = t
        rank.ref_count += 1
        rank.last_ref_ns = t
        per_rank = self.config.banks_per_rank
        lo = cmd.rank * per_rank
        for flat in range(lo, lo + per_rank):
            bank = self._banks[flat]
            bank.open_row = None
            bank.closed_by = "refresh"
            # Mirrors the controller: busy_from = max(ready, start) + tRFC.
            bank.busy_until_ns = max(bank.busy_until_ns, t) + cmd.trfc_ns
        self._reset_refreshed_rows(lo, lo + per_rank, index, rank.ref_count)
        self._expire_pending(t)

    def _reset_refreshed_rows(self, bank_lo: int, bank_hi: int,
                              sweep_index: int, ref_count: int) -> None:
        """A REF restores one slice of rows per bank: clear their partial
        streaks and hammer pressure (full sweep clears everything, including
        the bank-granular ``row == -1`` streaks)."""
        full_sweep = ref_count % self.refs_per_window == 0
        row_lo = sweep_index * self.rows_per_ref
        row_hi = row_lo + self.rows_per_ref
        for tracker in (self._partial_streaks, self._pressure):
            if not tracker:
                continue
            stale = [key for key in tracker
                     if bank_lo <= key[0] < bank_hi
                     and (full_sweep or row_lo <= key[1] < row_hi)]
            for key in stale:
                del tracker[key]

    def _expire_pending(self, now_ns: float) -> None:
        """Flag mitigation requests that outlived their execution grace."""
        if not self._pending:
            return
        cutoff = now_ns - self.grace_ns
        for flat_bank, pending in self._pending.items():
            while pending and pending[0].time_ns < cutoff:
                req = pending.pop(0)
                self._violation(
                    "mitigation.dropped-refresh", req.time_ns,
                    f"bank {flat_bank}: {req.kind} request at "
                    f"{req.time_ns:.1f} ns not executed within "
                    f"{self.grace_ns:.0f} ns ({req.remaining} victims "
                    "missing)")

    def _on_request(self, cmd: MitigationRequest) -> None:
        if cmd.victim_count <= 0 and not cmd.victims:
            # Nothing to execute (e.g. PARA aiming past the edge of the
            # bank), but the controller still closes the row buffer.
            bank = self._banks[cmd.flat_bank]
            bank.open_row = None
            bank.closed_by = "refresh"
            return
        pending = self._pending.setdefault(cmd.flat_bank, [])
        pending.append(_PendingRequest(
            cmd.time_ns, cmd.kind, set(cmd.victims), cmd.victim_count))

    def _on_preventive(self, cmd: PreventiveRefreshCmd) -> None:
        timing = self.timing
        t = cmd.time_ns
        if cmd.tras_ns <= 0:
            self._violation(
                "refresh.nonpositive-latency", t,
                f"bank {cmd.flat_bank}: preventive refresh with "
                f"tRAS={cmd.tras_ns} ns")
        key = (cmd.flat_bank, cmd.row)
        if cmd.full:
            self._partial_streaks.pop(key, None)
        else:
            limit = self.partial_limit
            if limit is None:
                self._violation(
                    "refresh.unexpected-partial", t,
                    f"bank {cmd.flat_bank} row {cmd.row}: partial "
                    f"restoration ({cmd.tras_ns:.2f} ns) under a policy "
                    "that never reduces restoration latency")
            else:
                streak = self._partial_streaks.get(key, 0) + 1
                if streak > self.max_partial_streak:
                    self.max_partial_streak = streak
                if streak > limit:
                    self._violation(
                        "pacram.npcr-exceeded", t,
                        f"bank {cmd.flat_bank} row {cmd.row}: {streak} "
                        f"consecutive partial restorations exceed "
                        f"N_PCR={limit}")
                    streak = 0  # one overrun row cannot flood the ledger
                self._partial_streaks[key] = streak
        self._match_execution(cmd)
        if self._pressure_threshold is not None and cmd.row >= 0:
            self._pressure.pop(key, None)
        bank = self._banks[cmd.flat_bank]
        bank.open_row = None
        bank.closed_by = "refresh"
        end = t + cmd.tras_ns + timing.tRP
        if end > bank.busy_until_ns:
            bank.busy_until_ns = end

    def _match_execution(self, cmd: PreventiveRefreshCmd) -> None:
        pending = self._pending.get(cmd.flat_bank)
        if not pending:
            return  # unsolicited restorations are harmless
        for i, req in enumerate(pending):
            if req.kind == "rfm":
                matched = cmd.row == -1
            else:
                matched = cmd.row in req.victims
                if matched:
                    req.victims.discard(cmd.row)
            if not matched:
                continue
            req.remaining -= 1
            if req.remaining <= 0:
                latency = cmd.time_ns - req.time_ns
                if latency > self.grace_ns:
                    self._violation(
                        "mitigation.late-refresh", cmd.time_ns,
                        f"bank {cmd.flat_bank}: {req.kind} request at "
                        f"{req.time_ns:.1f} ns completed {latency:.1f} ns "
                        f"later (grace {self.grace_ns:.0f} ns)")
                del pending[i]
            return

    def _on_metadata(self, cmd: MetadataCmd) -> None:
        if cmd.duration_ns < 0:
            self._violation(
                "refresh.nonpositive-latency", cmd.time_ns,
                f"bank {cmd.flat_bank}: metadata access with negative "
                f"duration {cmd.duration_ns} ns")
        bank = self._banks[cmd.flat_bank]
        bank.open_row = None
        bank.closed_by = "refresh"
        end = cmd.time_ns + cmd.duration_ns
        if end > bank.busy_until_ns:
            bank.busy_until_ns = end

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _violation(self, rule: str, time_ns: float, message: str) -> None:
        if self.mode == "strict":
            raise ProtocolViolation(message, rule=rule, time_ns=time_ns)
        if len(self.violations) < self.max_violations:
            self.violations.append(Violation(rule, time_ns, message))
        else:
            self.overflowed_violations += 1

    @property
    def violation_count(self) -> int:
        return len(self.violations) + self.overflowed_violations

    def by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for violation in self.violations:
            counts[violation.rule] = counts.get(violation.rule, 0) + 1
        return counts


def make_checker(config: SystemConfig, *, mode: str = "off",
                 partial_limit: int | None = None,
                 mitigation: MitigationMechanism | None = None,
                 max_violations: int = 10_000) -> ProtocolChecker | None:
    """Build a checker for ``mode``; ``off`` returns ``None`` (no observer,
    zero overhead)."""
    if mode not in CHECK_MODES:
        raise ConfigError(
            f"check-protocol mode must be one of {CHECK_MODES}, got {mode!r}")
    if mode == "off":
        return None
    return ProtocolChecker(config, mode=mode, partial_limit=partial_limit,
                           mitigation=mitigation,
                           max_violations=max_violations)

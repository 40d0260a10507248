"""The mitigation skip is exact: a served point *is* the full run.

``run_simulation`` replays the no-mitigation activation stream through a
fresh mechanism and, when the mechanism never acts there, returns the
no-mitigation result (:mod:`repro.sim.replay`).  These tests hold every
point to the full runs it replaces: the benchmark's whole evaluation
grid and generated setups give the same result through
``run_simulation`` as through ``MemorySystem.run`` on both kernels,
writable traces never touch the memo, and guards pin what the argument
for exactness assumes.
"""

import ast
import inspect
import sys
import threading
from contextlib import contextmanager
from dataclasses import asdict, replace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import runner
from repro.analysis.baselines import BaselineCache
from repro.analysis.figures import MITIGATIONS
from repro.analysis.runner import (
    EVALUATED_NRH_VALUES,
    pacram_reference_config,
    run_simulation,
)
from repro.core.pacram import PaCRAM
from repro.dram.timing import ddr5_timing
from repro.errors import SimulationError
from repro.mitigations import MITIGATION_CLASSES, make_mitigation
from repro.mitigations.base import MitigationMechanism, PreventiveRefresh
from repro.mitigations.batched import BatchedGraphene
from repro.sim import arraykernel, controller, replay
from repro.sim.config import SystemConfig
from repro.sim.controller import RefreshLatencyPolicy
from repro.sim.replay import ActivationStream, activation_stream
from repro.sim.system import MemorySystem
from repro.workloads.suites import single_core_suite, workload_by_name
from repro.workloads.trace import Trace

#: The controller-facing hooks :meth:`ActivationStream.acts` mirrors.
REPLAYED_HOOKS = {"epoch_credit", "on_activation_epoch", "on_activation",
                  "on_refresh_window"}
#: The declarations the drain loops read off a mechanism besides them.
DISPATCH_FLAGS = {"act_penalty_ns", "epoch_needs_trace", "epoch_needs_rows",
                  "epoch_needs_times"}
VENDORS = (None, "H", "M", "S")
EVALUATION_WORKLOADS = ("spec06.mcf", "ycsb.a")


@contextmanager
def spy_replays():
    """Every replay ``run_simulation`` makes: ``(mechanism, acted)``."""
    seen = []
    acts = ActivationStream.acts

    def spy(self, mechanism):
        acted = acts(self, mechanism)
        seen.append((mechanism, acted))
        return acted

    with mock.patch.object(ActivationStream, "acts", spy):
        yield seen


@pytest.fixture
def replays():
    with spy_replays() as seen:
        yield seen


def _point(names, mitigation, nrh, vendor, requests, seed=7,
           refresh_window_ns=None):
    """run_simulation's arguments; ``refresh_window_ns`` shortens tREFW
    (and tREFI to half of it) so a short run crosses refresh windows."""
    timing = ddr5_timing()
    if refresh_window_ns is not None:
        timing = replace(timing, tREFW=refresh_window_ns,
                         tREFI=refresh_window_ns / 2)
    return dict(workload_names=names, mitigation=mitigation, nrh=nrh,
                pacram=pacram_reference_config(vendor) if vendor else None,
                requests=requests, seed=seed,
                config=SystemConfig(num_cores=len(names), timing=timing))


def _full(kernel, *, workload_names, mitigation, nrh, pacram, requests,
          seed, config, acted=None):
    """The point as one full ``MemorySystem`` run on ``kernel``; ``acted``,
    a list, gains each trigger or action the run's mechanism returns."""
    traces = [workload_by_name(name, requests=requests, seed=seed + i)
              for i, name in enumerate(workload_names)]
    mechanism = make_mitigation(
        mitigation, nrh if pacram is None else pacram.scaled_nrh(nrh),
        batched=kernel == "array", config=config)
    if acted is not None:
        _record_actions(mechanism, acted)
    policy = None if pacram is None else PaCRAM(config, pacram)
    return asdict(MemorySystem(config, traces, mitigation=mechanism,
                               policy=policy).run(kernel))


def _record_actions(mechanism, acted):
    """Wrap ``mechanism``'s two dispatch hooks so that every non-empty
    answer also lands in ``acted``."""
    on_activation = mechanism.on_activation
    on_activation_epoch = mechanism.on_activation_epoch

    def activation(*args):
        actions = on_activation(*args)
        if actions:
            acted.append(actions)
        return actions

    def epoch(*args, **kwargs):
        triggers, actions = on_activation_epoch(*args, **kwargs)
        if triggers or actions:
            acted.append((triggers, actions))
        return triggers, actions

    mechanism.on_activation = activation
    mechanism.on_activation_epoch = epoch


def _served(point):
    return asdict(run_simulation(point.pop("workload_names"),
                                 sim_kernel="array", **point))


def _check(point, replays):
    """Serve ``point``, hold it to both full runs, and return whether its
    replay acted (``None``: it ran in full without one).

    A replay must act exactly when the full run's own mechanism returns a
    trigger or an action: acting where the full run does not would cost
    the skip, never a byte.  (A full run whose mechanism acts may still
    equal the no-mitigation run, when the run retires its last request
    before the action's refresh issues.)
    """
    replays.clear()
    served = _served(dict(point))
    array_acted, scalar_acted = [], []
    full = _full("array", acted=array_acted, **point)
    assert served == full, point
    assert served == _full("scalar", acted=scalar_acted, **point), point
    if not replays:
        return None
    [(_, acted)] = replays
    assert acted == bool(array_acted) == bool(scalar_acted), point
    return acted


def test_evaluation_grid_matches_full_runs(replays):
    """All 240 points of the benchmark's evaluation grid, both kernels."""
    outcomes = []
    for mitigation in MITIGATIONS:
        for nrh in EVALUATED_NRH_VALUES:
            for vendor in VENDORS:
                for name in EVALUATION_WORKLOADS:
                    acted = _check(_point((name,), mitigation, nrh, vendor,
                                          400), replays)
                    assert (acted is None) == (mitigation == "PRAC")
                    outcomes.append(acted)
    # At 400 requests both paths carry weight: 116 of the 192 replays
    # never act.
    assert outcomes.count(False) and outcomes.count(True)
    assert outcomes.count(None) == len(EVALUATED_NRH_VALUES) * 4 * 2


def test_refresh_windows_replayed_as_the_kernel_crosses_them(replays):
    """A 1 us tREFW: every run crosses windows, which reset the counters."""
    outcomes = []
    # spec06.milc's RFM at N_RH 64 and Hydra at 16 act only if the
    # counters reset before, not after, a window's first activation.
    for mitigation in ("PARA", "RFM", "Hydra", "Graphene"):
        for nrh in (1024, 128, 64, 32, 16):
            for vendor in (None, "H"):
                for name in ("ycsb.a", "spec06.milc"):
                    point = _point((name,), mitigation, nrh, vendor, 400,
                                   refresh_window_ns=1_000.0)
                    outcomes.append(_check(point, replays))
    stream = activation_stream(
        [workload_by_name("ycsb.a", requests=400, seed=7)], point["config"])
    assert len(stream.windows) > 5
    assert None not in outcomes and any(outcomes) and not all(outcomes)


SUITE = single_core_suite()


@st.composite
def points(draw):
    cores = draw(st.integers(min_value=1, max_value=3))
    names = tuple(draw(st.sampled_from(SUITE)) for _ in range(cores))
    return _point(names,
                  draw(st.sampled_from(sorted(MITIGATION_CLASSES))),
                  draw(st.sampled_from([16, 32, 128, 512, 1024])),
                  draw(st.sampled_from(VENDORS)),
                  draw(st.integers(min_value=20, max_value=400)),
                  seed=draw(st.integers(min_value=0, max_value=2**16)),
                  refresh_window_ns=draw(st.sampled_from(
                      [None, 1_000.0, 2_500.0])))


@given(points())
# PARA's first action lands on the last activation, and the run retires
# every request before its refresh issues: the mechanism acts, yet the
# full run equals the no-mitigation run.
@example(_point(("spec06.hmmer",), "PARA", 128, None, 20, seed=0))
@settings(max_examples=25, deadline=None)
def test_generated_points_match_full_runs(point):
    with spy_replays() as replays:
        _check(point, replays)


def test_writable_trace_runs_in_full_and_is_never_stale(monkeypatch,
                                                        replays):
    base = workload_by_name("spec06.mcf", requests=300, seed=7)
    trace = Trace("hand-built", base.bubbles.copy(), base.is_write.copy(),
                  base.addresses.copy())
    monkeypatch.setattr(runner, "workload_by_name",
                        lambda name, **_: trace)
    config = SystemConfig(num_cores=1)

    def both():
        served = run_simulation(("hand-built",), mitigation="Graphene",
                                nrh=1024, requests=300, sim_kernel="array")
        mechanism = make_mitigation("Graphene", 1024, batched=True,
                                    config=config)
        full = MemorySystem(config, [trace], mitigation=mechanism).run(
            "array")
        return asdict(served), asdict(full)

    first, full = both()
    assert first == full
    trace.addresses[:] = trace.addresses * 7 + 3
    trace.bubbles[::2] += 3
    second, full = both()
    assert second == full
    assert second != first
    assert activation_stream([trace], config) is None
    assert replays == []


def test_served_results_are_fresh_copies(replays):
    point = dict(mitigation="Graphene", nrh=1024, requests=400,
                 sim_kernel="array")
    first = run_simulation(("spec06.mcf",), **point)
    assert [acted for _, acted in replays] == [False]
    expected = asdict(first)
    first.core_stats[0].instructions += 1
    first.core_stats.append(None)
    first.controller_stats.activations += 1
    first.energy_breakdown["read"] = -1.0
    first.protocol_violations.append("edited")
    assert asdict(run_simulation(("spec06.mcf",), **point)) == expected


def test_served_baseline_is_stored_in_the_cache(replays):
    cache = BaselineCache()
    point = dict(mitigation="Graphene", nrh=1024, requests=400,
                 sim_kernel="array", cache=cache)
    served = asdict(run_simulation(("spec06.mcf",), **point))
    assert [acted for _, acted in replays] == [False]
    assert cache.stats()["entries"] == 1
    assert asdict(run_simulation(("spec06.mcf",), **point)) == served
    assert cache.hits == 1 and len(replays) == 1


def test_stream_memo_consistent_under_threads(monkeypatch):
    config = SystemConfig(num_cores=1)
    traces = [workload_by_name(name, requests=200, seed=7)
              for name in SUITE[:4]]
    expected = [activation_stream([trace], config) for trace in traces]
    # Four streams of 200 requests against a budget of 500: every round
    # evicts, so a lost update would show in the bookkeeping.
    monkeypatch.setattr(replay._streams, "budget", 500)
    replay.clear_stream_memo()
    failures = []

    def hammer():
        try:
            for _ in range(6):
                for trace, want in zip(traces, expected):
                    got = activation_stream([trace], config)
                    if (got.times, got.banks, got.rows) != (
                            want.times, want.banks, want.rows):
                        failures.append(f"{trace.name} differs")
        except Exception as error:  # a thread's error fails the test
            failures.append(repr(error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
    held = sum(size for _, _, size in replay._streams._entries.values())
    assert replay._streams.held == held <= 500
    replay.clear_stream_memo()


class TestGuards:
    """What the replay's exactness assumes, pinned."""

    def test_no_hook_the_replay_does_not_mirror(self):
        # A new controller-facing hook (a per-REF call, say) would be a
        # call the replay never makes: mirror it there before adding it.
        hooks = {name for name, value in vars(MitigationMechanism).items()
                 if callable(value) and not name.startswith("_")}
        assert hooks - {"area_mm2"} == REPLAYED_HOOKS
        for module in (arraykernel, controller):
            used = set()
            for node in ast.walk(ast.parse(inspect.getsource(module))):
                if not isinstance(node, ast.Attribute):
                    continue
                owner = node.value
                if (isinstance(owner, ast.Name) and owner.id == "mitigation"
                        or isinstance(owner, ast.Attribute)
                        and owner.attr == "mitigation"):
                    used.add(node.attr)
            assert used <= REPLAYED_HOOKS | DISPATCH_FLAGS, module.__name__

    def test_pacram_keeps_nominal_periodic_refresh(self):
        # The skip serves PaCRAM points the no-PaCRAM run: PaCRAM may
        # change only what actions cost.
        assert (PaCRAM.periodic_refresh_scale
                is RefreshLatencyPolicy.periodic_refresh_scale)

    def test_overpromised_epoch_is_still_refused(self, monkeypatch):
        # A mechanism whose credit covers an action breaks the epoch
        # contract, and the kernel refuses the run; served from the
        # replay, it would pass silently.
        def action_in_epoch(self, flat_banks, rows, times, count=None):
            return (0,), [PreventiveRefresh(flat_banks[0], rows[0])]

        monkeypatch.setattr(BatchedGraphene, "epoch_credit",
                            lambda self: 1 << 30)
        monkeypatch.setattr(BatchedGraphene, "on_activation_epoch",
                            action_in_epoch)
        with pytest.raises(SimulationError, match="over-promised"):
            run_simulation(("ycsb.a",), mitigation="Graphene", requests=200,
                           sim_kernel="array")

    def test_act_penalty_is_never_replayed(self, monkeypatch, replays):
        prac = _point(("ycsb.a",), "PRAC", 1024, "H", 300)
        assert _served(dict(prac)) == _full("array", **prac)
        graphene = _point(("ycsb.a",), "Graphene", 1024, None, 300)
        unslowed = _full("array", **graphene)
        monkeypatch.setattr(BatchedGraphene, "act_penalty_ns", 1.5)
        slowed = _served(dict(graphene))
        assert slowed == _full("array", **graphene) != unslowed
        assert replays == []

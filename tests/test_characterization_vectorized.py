"""Parity and plumbing tests for the vectorized characterization fast path.

The scalar Algorithm 1 path is the oracle: every test here asserts the
vectorized kernels (bank-level trait arrays, analytic probe folding, probe
memoization) reproduce it *bit-exactly*, not approximately.
"""

import pytest

from repro.bender.host import DRAMBenderHost
from repro.characterization import arraykernel
from repro.characterization.algorithm1 import (
    CharacterizationConfig,
    measure_row,
    perform_rh,
)
from repro.characterization.arraykernel import measure_rows_array
from repro.characterization.probecache import ProbeCache
from repro.characterization.sweeps import characterize_module
from repro.characterization.vectorized import measure_rows
from repro.dram.disturbance import DataPattern
from repro.dram.kernels import EvalCounters
from repro.errors import CharacterizationError, ConfigError, ProgramError
from repro.exec.parity import assert_all_parity, assert_parity
from repro.validation.physics import model_digest

FAST = CharacterizationConfig(iterations=1)

#: One module per vendor plus the invulnerable outlier (H0 never flips).
PARITY_MODULES = ("H5", "M6", "S6", "H0")

#: (tras_factor, n_pr) grid: nominal latency, a mid reduction, and a deep
#: reduction; n_pr = 20 exercises the bulk Restore macro (> UNROLL_LIMIT).
PARITY_POINTS = ((1.00, 1), (0.45, 4), (0.18, 20))


def _testable_rows(host: DRAMBenderHost, count: int = 8) -> tuple[int, ...]:
    rows = [r for r in range(2, 64)
            if len(host.module.mapping.neighbors(r, 1)) == 2]
    return tuple(rows[:count])


def _points(host: DRAMBenderHost, grid) -> list[tuple[float, int]]:
    nominal = host.module.timing.tRAS
    return [(factor * nominal, n_pr) for factor, n_pr in grid]


def _scalar(host, rows, points):
    """The oracle: one ``measure_row`` per (victim, point), victim-major."""
    return [measure_row(host, 1, row, tras_red_ns=tras, n_pr=n_pr,
                        config=FAST)
            for row in rows for tras, n_pr in points]


def _vectorized(host, rows, points):
    """One ``measure_rows`` call per point, laid out victim-major."""
    by_point = [measure_rows(host, 1, rows, tras_red_ns=tras, n_pr=n_pr,
                             config=FAST)
                for tras, n_pr in points]
    return [measured[i] for i in range(len(rows)) for measured in by_point]


def _array(host, rows, points):
    """Every point in one ``measure_rows_array`` call."""
    return measure_rows_array(host, 1, rows, points, config=FAST)


BATCH_TIERS = {"vectorized": _vectorized, "array": _array}


class TestScalarParity:
    @pytest.mark.parametrize("tier", BATCH_TIERS)
    @pytest.mark.parametrize("module_id", PARITY_MODULES)
    @pytest.mark.parametrize("temperature", (80.0, 50.0))
    def test_bit_exact_measurements(self, module_id, temperature, tier):
        scalar_host = DRAMBenderHost(module_id, temperature_c=temperature)
        batch_host = DRAMBenderHost(module_id, temperature_c=temperature)
        rows = _testable_rows(scalar_host)
        points = _points(scalar_host, PARITY_POINTS)
        # nrh, ber, wcdp — all fields, bit-exact
        assert_all_parity(_scalar(scalar_host, rows, points),
                          BATCH_TIERS[tier](batch_host, rows, points),
                          label=tier)

    @pytest.mark.parametrize("tier", BATCH_TIERS)
    @pytest.mark.parametrize("module_id", ("H5", "S6"))
    def test_one_batch_mixes_every_branch(self, module_id, tier):
        """Nominal, the unrolled and the bulk restore, and an N_PR past
        the N_PCR limit, with two latencies at two N_PR values each (at
        nominal latency the program restores N_PR times, yet the physics
        sees one restoration)."""
        scalar_host = DRAMBenderHost(module_id)
        batch_host = DRAMBenderHost(module_id)
        assert scalar_host.module.charge.npcr_limit(0.27) < 15_000
        rows = _testable_rows(scalar_host)
        points = _points(scalar_host, PARITY_POINTS + (
            (1.00, 20), (0.27, 2), (0.27, 15_000)))
        expected = _scalar(scalar_host, rows, points)
        # The overrun branch fails retention by row strength alone.
        assert any(m.n_pr == 15_000 and m.nrh == 0 for m in expected)
        assert_all_parity(expected,
                          BATCH_TIERS[tier](batch_host, rows, points),
                          label=tier)

    def test_batches_split_under_the_element_budget(self, monkeypatch):
        """A call larger than the budget runs in several batches (here
        splitting victims' points apart) and gives the same measurements."""
        host = DRAMBenderHost("S6")
        rows = _testable_rows(host)
        points = _points(host, PARITY_POINTS + ((0.27, 15_000),))
        whole = _array(host, rows, points)
        monkeypatch.setattr(arraykernel, "ELEMENT_BUDGET", 5)
        assert_all_parity(whole, _array(host, rows, points),
                          label="split batches")

    def test_batch_traits_match_per_row_traits(self, host_h5):
        fresh = DRAMBenderHost("H5")
        rows = _testable_rows(fresh)
        batch = fresh.module.bank_traits(1, rows)
        for i, row in enumerate(rows):
            assert batch.traits[i] == host_h5.module.row_population(1, row).traits
        # The registered per-row populations are views over the batch.
        for i, row in enumerate(rows):
            assert fresh.module.row_population(1, row).traits is batch.traits[i]

    @pytest.mark.parametrize("fast_kernel", ("vectorized", "array"))
    def test_characterize_module_kernels_identical(self, fast_kernel):
        kw = dict(tras_factors=(0.45,), n_prs=(1, 4), per_region=4, seed=11)
        assert_parity(
            lambda: characterize_module("S6", kernel="scalar", **kw).to_json(),
            lambda: characterize_module("S6", kernel=fast_kernel,
                                        **kw).to_json(),
            label=f"{fast_kernel} kernel")

    def test_same_validation_errors(self):
        host = DRAMBenderHost("H5")
        nominal = host.module.timing.tRAS
        for measure in BATCH_TIERS.values():
            with pytest.raises(CharacterizationError, match="tras_red_ns"):
                measure(host, (3, 4), [(-1.0, 1)])
            with pytest.raises(CharacterizationError, match="n_pr"):
                measure(host, (3, 4), [(nominal, 0)])
            with pytest.raises(CharacterizationError,
                               match="physical neighbors"):
                measure(host, (3, 0), [(nominal, 1)])  # row 0: bank edge

    def test_array_tier_checks_every_point_before_measuring(self):
        host = DRAMBenderHost("H5")
        nominal = host.module.timing.tRAS
        with pytest.raises(CharacterizationError, match="n_pr"):
            _array(host, (3, 4), [(nominal, 1), (nominal, 0)])
        with pytest.raises(CharacterizationError, match="tras_red_ns"):
            _array(host, (3, 0), [(nominal, 1), (-1.0, 0)])

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigError, match="device kernel"):
            characterize_module("S6", tras_factors=(0.45,), per_region=2,
                                kernel="warp-drive")


class TestEvalCounters:
    def test_fast_path_model_work_is_bounded(self):
        """CI smoke bound: the fast path performs a fixed, small number of
        model evaluations per measured row-point (counter-based, so it
        cannot flake on machine speed)."""
        host = DRAMBenderHost("H5")
        rows = _testable_rows(host)
        counters = EvalCounters()
        measure_rows(host, 1, rows, tras_red_ns=0.45 * 33.0, n_pr=4,
                     config=FAST, counters=counters)
        # ~6 WCDP probes + 1 retention + ~7 bisection per row-point.
        assert counters.evals_per_row_point(len(rows), 1) <= 20
        assert counters.probe_batches > 0

    def test_array_tier_evaluates_hc_high_once_per_pattern(self):
        """Patterns + 1 (the retention component) evaluations per
        row-point, however many points one call batches."""
        host = DRAMBenderHost("H5")
        rows = _testable_rows(host)
        points = _points(host, PARITY_POINTS)
        counters = EvalCounters()
        measure_rows_array(host, 1, rows, points, config=FAST,
                           counters=counters)
        assert counters.model_evals == \
            (len(FAST.patterns) + 1) * len(rows) * len(points)

    def test_repeated_probes_hit_the_memo(self):
        host = DRAMBenderHost("H5")
        rows = _testable_rows(host)
        counters = EvalCounters()
        config = CharacterizationConfig(iterations=3)
        measure_rows(host, 1, rows, tras_red_ns=0.45 * 33.0,
                     config=config, counters=counters)
        # The BER probe re-reads the WCDP scan's hc_high probe per row.
        assert counters.cache_hits >= len(rows)


class TestProbeCache:
    def test_scalar_cache_returns_same_values(self, host_h5):
        cache = ProbeCache()
        kwargs = dict(tras_red_ns=0.45 * 33.0, n_pr=2, config=FAST)
        uncached = measure_row(host_h5, 1, 5, **kwargs)
        warm = measure_row(host_h5, 1, 5, cache=cache, **kwargs)
        hot = measure_row(host_h5, 1, 5, cache=cache, **kwargs)
        assert uncached == warm == hot
        assert cache.hits > 0

    def test_lru_eviction_is_bounded(self):
        cache = ProbeCache(maxsize=4)
        cache.ensure("digest-a")
        for i in range(6):
            cache.put(("key", i), i)
        assert len(cache) == 4
        assert cache.get(("key", 0)) is None  # oldest entries evicted
        assert cache.get(("key", 5)) == 5

    def test_calibration_drift_invalidates(self):
        cache = ProbeCache()
        cache.ensure("digest-a")
        cache.put(("probe", 1), 42)
        assert cache.get(("probe", 1)) == 42
        cache.ensure("digest-a")  # same digest: entries survive
        assert len(cache) == 1
        misses_before = cache.misses
        cache.ensure("digest-b")  # drift: everything dropped
        assert len(cache) == 0
        assert cache.invalidations == 1
        assert cache.get(("probe", 1)) is None
        assert cache.misses == misses_before + 1

    def test_measure_row_rebinds_stale_cache(self, host_h5):
        cache = ProbeCache()
        cache.ensure("stale-digest")
        cache.put(("poison",), 999)
        measure_row(host_h5, 1, 5, tras_red_ns=33.0, config=FAST, cache=cache)
        expected = model_digest(host_h5.module.spec.module_id,
                                host_h5.module.seed)
        assert cache.digest == expected
        assert cache.invalidations == 1
        assert ("poison",) not in [k for k in cache._entries]

    def test_bad_maxsize_rejected(self):
        with pytest.raises(ValueError):
            ProbeCache(maxsize=0)


class TestCompiledExecutor:
    @pytest.mark.parametrize("module_id", ("H5", "M6", "S6"))
    def test_probe_parity_with_stepping(self, module_id):
        stepping = DRAMBenderHost(module_id, kernel="stepping")
        compiled = DRAMBenderHost(module_id, kernel="compiled")
        nominal = stepping.module.timing.tRAS
        for factor, n_pr in PARITY_POINTS:
            for hc in (0, 1_000, 100_000):
                args = (1, 20, DataPattern.ROW_STRIPE, hc,
                        factor * nominal, n_pr)
                assert (perform_rh(stepping, *args)
                        == perform_rh(compiled, *args))
        assert stepping.module.clock_ns == compiled.module.clock_ns

    def test_protocol_errors_preserved(self):
        host = DRAMBenderHost("H5", kernel="compiled")
        program = host.new_program().act(0, 5).act(0, 6)
        with pytest.raises(ProgramError, match=r"\[1\] ACT to open bank 0"):
            host.run(program)
        program = host.new_program().pre(0)
        with pytest.raises(ProgramError, match=r"\[0\] PRE on closed bank 0"):
            host.run(program)
        program = host.new_program().act(0, 5)
        with pytest.raises(ProgramError, match="still open"):
            host.run(program)

    def test_unknown_host_kernel_rejected(self):
        with pytest.raises(ConfigError, match="host kernel"):
            DRAMBenderHost("H5", kernel="quantum")


class TestExecutionResultFlips:
    def test_missing_key_raises_program_error(self, host_h5):
        program = host_h5.new_program()
        program.init_rows(1, 5, (4, 6), DataPattern.ROW_STRIPE)
        program.check_bitflips(1, 5, key="victim")
        result = host_h5.run(program)
        with pytest.raises(ProgramError, match="no bitflip count recorded"):
            result.flips("victm")  # typo'd key
        with pytest.raises(ProgramError, match="recorded keys: victim"):
            result.flips("aggressor")

    def test_empty_result_names_no_keys(self):
        from repro.bender.executor import ExecutionResult
        with pytest.raises(ProgramError, match="<none>"):
            ExecutionResult().flips("anything")

"""Element-wise parity of the bank kernels' physics with the scalar oracle.

:class:`repro.dram.kernels.BankTraits` computes flip counts with numpy
arithmetic in the scalar expression's order and maps ``math.log`` /
``math.erf`` over Python floats.  Each element here must equal what
:class:`repro.dram.cell_array.RowPopulation` returns for the same row,
test point, pattern and dose or wait: exactly, not approximately.
"""

import struct

import numpy as np
import pytest

from repro.dram.disturbance import PATTERN_BASE_EFFECTIVENESS, HammerDose
from repro.dram.module import DRAMModule
from repro.units import MS
from tests.test_characterization_vectorized import PARITY_POINTS

#: One module per vendor plus H0, whose thresholds are all infinite.
MODULES = ("H0", "H5", "M2", "S6")
#: The characterization parity points, plus an N_PR past every module's
#: N_PCR limit at 0.27, where retention fails by row strength alone.
POINTS = PARITY_POINTS + ((0.27, 15_000),)
TEMPERATURES = (80.0, 50.0)
PATTERNS = tuple(PATTERN_BASE_EFFECTIVENESS)
BANK = 1
ROWS = tuple(range(100, 108))
#: Shares of a row's cells at which the step-dose test finds the count's
#: step: where z is near -3, an ULP of z moves the count most; where it is
#: near +1, an ULP of erf's argument does.
STEPS = (1 / 1024, 4 / 5)


def _bank(module_id, temperature):
    module = DRAMModule(module_id, temperature_c=temperature)
    batch = module.bank_traits(BANK, ROWS)
    return batch, [module.row_population(BANK, row) for row in ROWS]


def _bits(value: float) -> int:
    """The bit pattern of a positive float, which orders as the float."""
    return struct.unpack("<q", struct.pack("<d", value))[0]


def _float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _around(values):
    """Just below, exactly at and just above each of ``values``."""
    return (np.nextafter(values, 0.0), values, np.nextafter(values, np.inf))


@pytest.mark.parametrize("module_id", MODULES)
@pytest.mark.parametrize("temperature", TEMPERATURES)
@pytest.mark.parametrize("factor, n_pr", POINTS)
class TestAgainstRowPopulation:
    def test_effective_nrh(self, module_id, temperature, factor, n_pr):
        batch, populations = _bank(module_id, temperature)
        terms = batch.point_terms(factor, n_pr, temperature)
        nrh = batch.effective_nrh(terms, PATTERNS)
        assert nrh.tolist() == [
            [row.effective_nrh(factor, n_pr, temperature, pattern)
             for row in populations]
            for pattern in PATTERNS]
        # A tuple of patterns gives the stacked one-pattern calls.
        stacked = np.concatenate([batch.effective_nrh(terms, (pattern,))
                                  for pattern in PATTERNS])
        assert np.array_equal(nrh, stacked)

    def test_hammer_flips(self, module_id, temperature, factor, n_pr):
        batch, populations = _bank(module_id, temperature)
        terms = batch.point_terms(factor, n_pr, temperature)
        thresholds = batch.effective_nrh(terms, PATTERNS)
        # One element per (row, pattern, dose): each row's threshold under
        # each pattern, just below, at and just above it, and so far past
        # it that every cell flips.  H0's infinite thresholds get a finite
        # dose.
        finite = np.where(np.isfinite(thresholds), thresholds, 1e12)
        doses = np.stack(_around(finite) + (finite * 1e9,))
        row = np.broadcast_to(np.arange(len(ROWS)), doses.shape).ravel()
        equivalent = doses.ravel()
        nrh = batch.effective_nrh(terms, PATTERNS, row)
        flips = batch.hammer_flips(equivalent, terms, nrh)
        assert flips.dtype == np.int64 and flips.shape == nrh.shape
        assert flips.tolist() == [
            [populations[r].hammer_flips(
                HammerDose(near=2.0 * dose), factor=factor, n_pr=n_pr,
                temperature_c=temperature, pattern=pattern)
             for r, dose in zip(row.tolist(), equivalent.tolist())]
            for pattern in PATTERNS]
        # Each pattern's row equals that pattern's one-pattern call.
        for pattern_flips, pattern_nrh in zip(flips, nrh):
            assert np.array_equal(
                pattern_flips,
                batch.hammer_flips(equivalent, terms, pattern_nrh))
        below, at, above, far = flips.reshape(
            len(PATTERNS), 4, len(PATTERNS), len(ROWS)).swapaxes(0, 1)
        own = np.arange(len(PATTERNS))
        # Under its own threshold's pattern: nothing below, a flip from
        # the threshold on, and every cell far past it.
        if module_id == "H0":
            assert not flips.any()
        else:
            assert not below[own, own].any()
            assert (at[own, own] >= 1).all() and (above[own, own] >= 1).all()
            assert (far[own, own] == batch.cells).all()

    def test_hammer_flips_where_the_count_steps(self, module_id,
                                                temperature, factor, n_pr):
        """At the least dose at which the oracle's count reaches each of
        :data:`STEPS`, and at the float just below it, one ULP moves the
        count: a kernel off the scalar arithmetic by an ULP shows there."""
        if module_id == "H0":
            return  # no finite threshold, so no step
        batch, populations = _bank(module_id, temperature)
        terms = batch.point_terms(factor, n_pr, temperature)
        thresholds = batch.effective_nrh(terms, PATTERNS)
        row, pattern_of, equivalent, expected = [], [], [], []
        for p, pattern in enumerate(PATTERNS):
            for r, population in enumerate(populations):
                def count(bits):
                    return population.hammer_flips(
                        HammerDose(near=2.0 * _float(bits)), factor=factor,
                        n_pr=n_pr, temperature_c=temperature,
                        pattern=pattern)
                for step in STEPS:
                    low = _bits(thresholds[p, r])
                    high = _bits(thresholds[p, r] * 1e9)
                    while high - low > 1:
                        middle = (low + high) // 2
                        if count(middle) >= step * batch.cells:
                            high = middle
                        else:
                            low = middle
                    for bits in (low, high):
                        row.append(r)
                        pattern_of.append(p)
                        equivalent.append(_float(bits))
                        expected.append(count(bits))
        # Every pair straddles its step.
        assert all(below < at for below, at in zip(expected[0::2],
                                                   expected[1::2]))
        row = np.array(row)
        nrh = batch.effective_nrh(terms, PATTERNS, row)
        flips = batch.hammer_flips(np.array(equivalent), terms, nrh)
        assert flips[pattern_of, np.arange(len(row))].tolist() == expected

    def test_retention_flips(self, module_id, temperature, factor, n_pr):
        batch, populations = _bank(module_id, temperature)
        terms = batch.point_terms(factor, n_pr, temperature)
        charge = batch.charge
        clamped = charge._clamp_factor(factor)
        capability = np.array([
            charge._retention_capability(clamped, n_pr, temperature,
                                         row.traits.retention_strength)
            for row in populations])
        if not terms.nominal:
            capability = np.maximum(capability, 64 * MS * 1.02
                                    * batch.retention_strength)
        waits = np.stack((np.zeros(len(ROWS)), np.full(len(ROWS), 64 * MS))
                         + _around(capability) + (capability * 40.0,))
        row = np.broadcast_to(np.arange(len(ROWS)), waits.shape).ravel()
        wait = waits.ravel()
        flips = batch.retention_flips(terms, wait_ns=wait, idx=row)
        assert flips.dtype == np.int64
        assert flips.tolist() == [
            populations[r].retention_flips(factor=factor, n_pr=n_pr,
                                           wait_ns=w,
                                           temperature_c=temperature)
            for r, w in zip(row.tolist(), wait.tolist())]
        assert np.array_equal(
            flips > 0, batch.retention_fails(terms, wait_ns=wait, idx=row))
        if terms.overrun:
            assert flips.any()
        else:
            # Nothing fails up to the capability, everything past it.
            idle, _, below, at, above, far = flips.reshape(6, len(ROWS))
            assert not (idle.any() or below.any() or at.any())
            assert above.all() and far.all()
            assert (far > above).any()


def test_an_all_inactive_batch_returns_zeros():
    batch, _ = _bank("S6", 80.0)
    terms = batch.point_terms(0.45, 4, 80.0)
    nrh = batch.effective_nrh(terms, PATTERNS)
    flips = batch.hammer_flips(np.zeros(len(ROWS)), terms, nrh)
    assert flips.dtype == np.int64 and flips.shape == nrh.shape
    assert not flips.any()
    retained = batch.retention_flips(terms, wait_ns=np.zeros(len(ROWS)))
    assert retained.dtype == np.int64 and retained.shape == (len(ROWS),)
    assert not retained.any()

"""Tests for the test-program ISA and builder."""

import pytest

from repro.bender.isa import Act, Hammer, Pre, Restore, Sleep, SleepUntil
from repro.bender.program import TestProgram
from repro.dram.disturbance import DataPattern
from repro.errors import ProgramError


class TestInstructionValidation:
    def test_act_requires_positive_wait(self):
        with pytest.raises(ProgramError):
            Act(0, 10, 0.0)

    def test_pre_requires_positive_wait(self):
        with pytest.raises(ProgramError):
            Pre(0, -1.0)

    def test_sleep_rejects_negative(self):
        with pytest.raises(ProgramError):
            Sleep(-5.0)

    def test_sleep_until_rejects_negative(self):
        with pytest.raises(ProgramError):
            SleepUntil(-5.0)

    def test_hammer_requires_rows(self):
        with pytest.raises(ProgramError):
            Hammer(0, (), 100)

    def test_hammer_rejects_negative_count(self):
        with pytest.raises(ProgramError):
            Hammer(0, (1,), -1)

    def test_restore_validation(self):
        with pytest.raises(ProgramError):
            Restore(0, 1, 0.0, 5)
        with pytest.raises(ProgramError):
            Restore(0, 1, 12.0, -1)


class TestProgramBuilder:
    def test_act_defaults_to_nominal_tras(self):
        program = TestProgram().act(0, 10)
        instruction = program.instructions[0]
        assert isinstance(instruction, Act)
        assert instruction.wait_ns == program.timing.tRAS

    def test_builder_chains(self):
        program = TestProgram().act(0, 10).pre(0).sleep(100.0)
        assert len(program) == 3

    def test_init_rows_writes_victim_and_aggressors(self):
        program = TestProgram()
        program.init_rows(0, 5, (4, 6), DataPattern.ROW_STRIPE)
        assert len(program) == 3

    def test_partial_restoration_unrolls_small_counts(self):
        program = TestProgram()
        program.partial_restoration(0, 5, 12.0, 3)
        assert len(program) == 6  # 3x (ACT + PRE)

    def test_partial_restoration_bulk_macro_for_large_counts(self):
        program = TestProgram()
        program.partial_restoration(0, 5, 12.0, 10_000)
        assert len(program) == 1
        assert isinstance(program.instructions[0], Restore)

    def test_partial_restoration_rejects_super_nominal(self):
        with pytest.raises(ProgramError):
            TestProgram().partial_restoration(0, 5, 50.0, 1)

    def test_hammer_doublesided_limits_rows(self):
        with pytest.raises(ProgramError):
            TestProgram().hammer_doublesided(0, (1, 2, 3), 100)

    def test_check_bitflips_requires_key(self):
        with pytest.raises(ProgramError):
            TestProgram().check_bitflips(0, 5, key="")

"""Tests for the deterministic seed tree."""

import numpy as np

from repro.rng import SeedTree, derive_seed
from repro.workloads.suites import multicore_mixes


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)

    def test_path_sensitivity(self):
        assert derive_seed(42, "a", 1) != derive_seed(42, "a", 2)
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_parent_sensitivity(self):
        assert derive_seed(42, "a") != derive_seed(43, "a")

    def test_path_not_concatenated(self):
        # ("ab",) and ("a", "b") must differ: separators matter.
        assert derive_seed(0, "ab") != derive_seed(0, "a", "b")

    def test_64_bit_range(self):
        seed = derive_seed(123, "x")
        assert 0 <= seed < (1 << 64)


class TestSeedTree:
    def test_same_path_same_child(self):
        root = SeedTree(7)
        assert root.child("m", "H5").seed == root.child("m", "H5").seed

    def test_generators_reproducible(self):
        root = SeedTree(7)
        a = root.generator("row", 3).random(5)
        b = root.generator("row", 3).random(5)
        assert (a == b).all()

    def test_generators_independent(self):
        root = SeedTree(7)
        a = root.generator("row", 3).random(5)
        b = root.generator("row", 4).random(5)
        assert (a != b).any()

    def test_uniform_in_unit_interval(self):
        root = SeedTree(99)
        for i in range(50):
            value = root.uniform("u", i)
            assert 0.0 <= value < 1.0

    def test_nested_children(self):
        root = SeedTree(1)
        deep = root.child("a").child("b").child("c")
        assert deep.seed == root.child("a").child("b").child("c").seed


class TestNumpySeeds:
    """A seed taken from a numpy array derives what the equal int does."""

    def test_seed_tree_accepts_signed_numpy_scalar(self):
        assert SeedTree(np.int64(7)).seed == SeedTree(7).seed
        assert type(SeedTree(np.uint64(7)).seed) is int

    def test_derive_seed_accepts_numpy_scalar(self):
        assert derive_seed(np.int32(-1), "x") == derive_seed(-1, "x")
        assert derive_seed(np.int64(42), "a", 1) == derive_seed(42, "a", 1)

    def test_python_int_derivations_unchanged(self):
        # Pinned values: the coercion must not move any existing seed.
        assert derive_seed(42, "a", 1) == 11762897121494800953
        assert derive_seed(-1, "x") == 1262423522532324915
        assert SeedTree(2025).child("m", "H5").seed == 10319639703576567857

    def test_multicore_mixes_with_numpy_seed(self):
        assert multicore_mixes(2, seed=np.int64(11)) == multicore_mixes(
            2, seed=11)

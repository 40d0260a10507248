"""Tests for physics invariant guards and model-drift digests."""

import collections
import dataclasses

import pytest

from repro.characterization.campaign import (
    CampaignConfig,
    CharacterizationCampaign,
)
from repro.dram import catalog, charge, vendor
from repro.dram.catalog import all_module_ids, module_spec
from repro.dram.charge import ChargeModel
from repro.errors import ProtocolViolation
from repro.validation import (
    MODEL_VERSION,
    check_physics,
    model_digest,
    physics,
    physics_problems,
)


class TestInvariants:
    def test_every_catalog_module_is_clean(self):
        for module_id in all_module_ids():
            assert physics_problems(module_id) == [], module_id

    def test_strict_mode_silent_on_clean_module(self):
        assert check_physics("H5", mode="strict") == []

    def test_poisoned_margin_anchor_flagged(self):
        model = ChargeModel(module_spec("H5"))
        # Copy before poisoning: the anchors are shared calibration tables.
        model._margin_anchors = {**model._margin_anchors, 0.45: 1.3}
        problems = model.check_invariants()
        assert problems
        assert any("margin" in problem for problem in problems)

    def test_strict_mode_raises_on_problems(self, monkeypatch):
        monkeypatch.setattr(ChargeModel, "check_invariants",
                            lambda self: ["synthetic problem"])
        with pytest.raises(ProtocolViolation) as excinfo:
            check_physics("H5", mode="strict")
        assert excinfo.value.rule == "physics.invariant"
        assert check_physics("H5", mode="tolerant") == ["synthetic problem"]


class TestModelDigest:
    def test_digest_is_stable(self):
        assert model_digest("H5") == model_digest("H5")
        assert len(model_digest("H5")) == 64

    def test_digest_separates_modules_and_seeds(self):
        assert model_digest("H5") != model_digest("M2")
        assert model_digest("H5", seed=1) != model_digest("H5", seed=2)
        assert model_digest("H5", seed=None) != model_digest("H5", seed=1)

    def test_digest_tracks_vendor_calibration(self):
        before = model_digest("H5")
        manufacturer = vendor.Manufacturer.H
        original = vendor._PROFILES[manufacturer]
        vendor._PROFILES[manufacturer] = dataclasses.replace(
            original, ber_growth_exponent=original.ber_growth_exponent + 0.1)
        try:
            assert model_digest("H5") != before
        finally:
            vendor._PROFILES[manufacturer] = original
        assert model_digest("H5") == before

    def test_model_version_is_folded_in(self):
        assert MODEL_VERSION >= 1


def _changed(value):
    """An equal-typed copy of a calibration object with one value moved."""
    if isinstance(value, dict):
        return {**value, 0.45: value[0.45] - 0.01}
    name = {"VendorProfile": "ber_growth_exponent",
            "RetentionParams": "tail_scale",
            "ModuleSpec": "num_chips"}[type(value).__name__]
    return dataclasses.replace(value, **{name: getattr(value, name) + 1})


class TestDigestMemo:
    """``model_digest`` runs once per process per module, seed and set of
    calibration objects."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Count the digest payloads built, by (module, seed)."""
        monkeypatch.setattr(physics, "_DIGESTS", {})
        counts: collections.Counter = collections.Counter()
        compute = physics._compute_digest

        def counted(calibration, seed):
            counts[calibration[0].module_id, seed] += 1
            return compute(calibration, seed)

        monkeypatch.setattr(physics, "_compute_digest", counted)
        return counts

    def test_repeat_calls_build_once(self, builds):
        first = model_digest("H5", 7)
        assert model_digest("H5", 7) == first
        assert builds == {("H5", 7): 1}

    def test_seed_types_are_not_conflated(self, builds):
        # 1 == True == 1.0, but each encodes to another payload.
        digests = {model_digest("H5", seed) for seed in (1, True, 1.0, 1)}
        assert len(digests) == 3
        assert sum(builds.values()) == 3

    @pytest.mark.parametrize("table, key", [
        (vendor._PROFILES, vendor.Manufacturer.H),
        (charge._RETENTION, vendor.Manufacturer.H),
        (charge._MARGIN_ANCHORS, vendor.Manufacturer.H),
        (catalog._CATALOG, "H5"),
    ], ids=["vendor-profile", "retention", "margin-anchors", "catalog-spec"])
    def test_a_replaced_calibration_object_recomputes(self, builds, table,
                                                      key):
        before = model_digest("H5")
        original = table[key]
        table[key] = _changed(original)
        try:
            assert model_digest("H5") != before
        finally:
            table[key] = original
        assert model_digest("H5") == before
        assert builds[("H5", None)] == 2

    def test_memo_is_bounded(self, builds, monkeypatch):
        monkeypatch.setattr(physics, "_DIGESTS_BOUND", 4)
        for seed in range(10):
            model_digest("M2", seed)
        assert 0 < len(physics._DIGESTS) <= 4

    def test_a_resumed_campaign_builds_no_digest(self, builds, tmp_path):
        config = CampaignConfig(per_region=1, tras_factors=(0.36,))
        campaign = CharacterizationCampaign(tmp_path, config)
        campaign.run(jobs=1)
        assert len(builds) == 30
        assert set(builds.values()) == {1}
        builds.clear()
        campaign.run(jobs=1)
        campaign.load()
        assert not builds

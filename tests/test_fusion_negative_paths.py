"""Negative paths of the fusion layer: guards.

Complements the hypothesis suite in ``test_fusion_properties.py`` (the
happy-path invariants) by pinning every rejection branch: mixed users,
mismatched thresholds, empty inputs and malformed weights.
"""

from __future__ import annotations

import math

import pytest

from repro.core.fusion import (
    calibrated_fusion_weights,
    fuse_decision_level,
    fuse_majority,
    fuse_mean_distance,
    fuse_min_distance,
    fuse_score_level,
    fused_error_rates,
)
from repro.errors import ConfigError, ShapeError
from repro.types import VerificationResult


def _result(distance=0.2, threshold=0.5, user_id="u"):
    return VerificationResult(
        accepted=distance <= threshold,
        distance=distance,
        threshold=threshold,
        user_id=user_id,
    )


MULTI_PROBE_RULES = (fuse_mean_distance, fuse_min_distance, fuse_majority)


class TestMultiProbeGuards:
    @pytest.mark.parametrize("rule", MULTI_PROBE_RULES)
    def test_empty_rejected(self, rule):
        with pytest.raises(ShapeError, match="at least one"):
            rule([])

    @pytest.mark.parametrize("rule", MULTI_PROBE_RULES)
    def test_mixed_users_rejected(self, rule):
        with pytest.raises(ShapeError, match="different users"):
            rule([_result(user_id="alice"), _result(user_id="bob")])

    @pytest.mark.parametrize("rule", MULTI_PROBE_RULES)
    def test_mixed_thresholds_rejected(self, rule):
        with pytest.raises(ShapeError, match="different thresholds"):
            rule([_result(threshold=0.4), _result(threshold=0.5)])


class TestMultiModalGuards:
    def test_empty_rejected(self):
        with pytest.raises(ShapeError, match="at least one"):
            fuse_score_level([])
        with pytest.raises(ShapeError, match="at least one"):
            fuse_decision_level([])

    def test_mixed_users_rejected(self):
        results = [_result(user_id="alice"), _result(user_id="bob")]
        with pytest.raises(ShapeError, match="different users"):
            fuse_score_level(results)
        with pytest.raises(ShapeError, match="different users"):
            fuse_decision_level(results, rule="or")

    def test_differing_thresholds_allowed(self):
        """Each modality runs at its own operating point."""
        results = [_result(0.2, 0.4), _result(0.3, 0.6)]
        fused = fuse_score_level(results)
        assert fused.threshold == 1.0

    def test_weight_count_mismatch(self):
        results = [_result(), _result()]
        with pytest.raises(ShapeError, match="2 results"):
            fuse_score_level(results, weights=[1.0])
        with pytest.raises(ShapeError, match="2 results"):
            fuse_decision_level(results, rule="vote", weights=[1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_non_positive_or_non_finite_weights(self, bad):
        results = [_result(), _result()]
        with pytest.raises(ConfigError, match="positive and finite"):
            fuse_score_level(results, weights=[1.0, bad])

    def test_unknown_decision_rule(self):
        with pytest.raises(ConfigError, match="rule"):
            fuse_decision_level([_result()], rule="xor")


class TestAnalyticalGuards:
    @pytest.mark.parametrize("frr,far", [(-0.1, 0.1), (0.1, 1.5)])
    def test_rates_out_of_range(self, frr, far):
        with pytest.raises(ConfigError, match="lie in"):
            fused_error_rates(frr, far, 3)

    def test_non_positive_probes(self):
        with pytest.raises(ConfigError, match="positive"):
            fused_error_rates(0.1, 0.1, 0)

    def test_unknown_rule(self):
        with pytest.raises(ConfigError, match="rule"):
            fused_error_rates(0.1, 0.1, 3, rule="median")

    def test_calibrated_weights_guards(self):
        with pytest.raises(ShapeError, match="at least one"):
            calibrated_fusion_weights([])
        with pytest.raises(ConfigError, match="lie in"):
            calibrated_fusion_weights([(0.1, 1.2)])


"""Tests for multi-probe error rates and threshold calibration."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.eval.calibration import (
    calibrate_far,
    fused_error_rates,
    operating_table,
    threshold_for_target_far,
)


class TestFusedErrorRates:
    def test_all_rule_trades_frr_for_far(self):
        frr, far = fused_error_rates(0.05, 0.03, num_probes=2, rule="all")
        assert frr > 0.05  # stricter: more genuine rejections
        assert far < 0.03  # stricter: fewer impostor acceptances

    def test_any_rule_trades_far_for_frr(self):
        frr, far = fused_error_rates(0.05, 0.03, num_probes=2, rule="any")
        assert frr < 0.05
        assert far > 0.03

    def test_majority_improves_both_for_small_rates(self):
        frr, far = fused_error_rates(0.05, 0.03, num_probes=3, rule="majority")
        assert frr < 0.05
        assert far < 0.03

    def test_single_probe_is_identity(self):
        for rule in ("majority", "all", "any"):
            frr, far = fused_error_rates(0.07, 0.02, 1, rule)
            assert frr == pytest.approx(0.07)
            assert far == pytest.approx(0.02)

    def test_rejects_bad_rule(self):
        with pytest.raises(ConfigError):
            fused_error_rates(0.1, 0.1, 3, rule="unanimous-ish")


class TestThresholdCalibration:
    def test_target_far_respected(self, rng):
        impostor = rng.uniform(0.5, 1.5, 1000)
        genuine = rng.uniform(0.0, 0.6, 1000)
        for target in (0.05, 0.01, 0.001):
            point = calibrate_far(genuine, impostor, target)
            assert point.far <= target + 1e-12

    def test_zero_far_rejects_all_impostors(self, rng):
        impostor = rng.uniform(0.5, 1.5, 200)
        threshold = threshold_for_target_far(impostor, 0.0)
        assert np.all(impostor > threshold)

    def test_operating_table_monotone(self, rng):
        impostor = rng.normal(0.9, 0.15, 2000)
        genuine = rng.normal(0.2, 0.1, 2000)
        table = operating_table(genuine, impostor)
        # Tighter FAR budgets force equal-or-higher FRR.
        frrs = [point.frr for point in table]
        assert frrs == sorted(frrs)

    def test_rejects_bad_target(self, rng):
        with pytest.raises(ConfigError):
            threshold_for_target_far(rng.uniform(size=10), 1.5)

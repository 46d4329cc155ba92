"""Tests for multi-probe error rates, threshold calibration and IMU
calibration."""

import numpy as np
import pytest

from repro.errors import ConfigError, ShapeError
from repro.eval.calibration import (
    calibrate_far,
    fused_error_rates,
    operating_table,
    threshold_for_target_far,
    threshold_for_target_frr,
)
from repro.imu import IDEAL_IMU, MPU9250
from repro.imu.calibration import (
    allan_deviation,
    apply_calibration,
    calibrate_static,
    find_quiet_samples,
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

    def test_target_frr_respected(self, rng):
        genuine = rng.uniform(0.0, 0.6, 1000)
        for target in (0.05, 0.01):
            threshold = threshold_for_target_frr(genuine, target)
            assert np.mean(genuine > threshold) <= target + 1e-12

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


class TestImuCalibration:
    def _static_recording(self, rng, bias=(30.0, -20.0, 10.0)):
        """Pure gravity + bias + mild noise, 6-axis raw counts."""
        counts = np.zeros((400, 6))
        gravity_dir = np.array([0.2, -0.3, 0.933])
        gravity_dir /= np.linalg.norm(gravity_dir)
        counts[:, :3] = gravity_dir * 9.80665 * MPU9250.accel_sensitivity
        counts[:, :3] += np.asarray(bias)
        counts[:, 3:] = np.array([12.0, -5.0, 3.0])
        counts += rng.normal(0, 2.0, counts.shape)
        return counts, gravity_dir

    def test_quiet_mask_prefers_still_regions(self, rng):
        rec, _ = self._static_recording(rng)
        rec[200:260, :3] += rng.normal(0, 500.0, (60, 3))  # a noisy burst
        quiet = find_quiet_samples(rec)
        assert quiet[:100].mean() > quiet[200:260].mean()

    def test_gravity_direction_recovered(self, rng):
        rec, gravity_dir = self._static_recording(rng)
        cal = calibrate_static(rec, MPU9250)
        assert np.dot(cal.gravity_direction, gravity_dir) > 0.999

    def test_gyro_bias_recovered(self, rng):
        rec, _ = self._static_recording(rng)
        cal = calibrate_static(rec, MPU9250)
        np.testing.assert_allclose(cal.gyro_bias_counts, [12.0, -5.0, 3.0], atol=1.0)

    def test_apply_calibration_zeroes_static_motion(self, rng):
        rec, _ = self._static_recording(rng)
        cal = calibrate_static(rec, MPU9250)
        physical = apply_calibration(rec, cal, MPU9250)
        # After gravity removal the static stream is near zero m/s^2.
        assert np.abs(physical[:, :3].mean(axis=0)).max() < 0.05
        assert np.abs(physical[:, 3:].mean(axis=0)).max() < 0.01

    def test_calibration_on_real_recording(self, population, recorder):
        recording = recorder.record(population[1])
        cal = calibrate_static(recording, MPU9250)
        # Gravity magnitude near the nominal 1 g in counts.
        nominal = 9.80665 * MPU9250.accel_sensitivity
        assert cal.gravity_magnitude_counts == pytest.approx(nominal, rel=0.1)

    def test_allan_deviation_white_noise_slope(self, rng):
        samples = rng.normal(0.0, 1.0, 100_000)
        taus, adev = allan_deviation(samples, 350.0)
        # White noise: adev ~ tau^(-1/2); check the log-log slope.
        slope = np.polyfit(np.log(taus[:10]), np.log(adev[:10]), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)

    def test_allan_needs_enough_samples(self):
        with pytest.raises(ShapeError):
            allan_deviation(np.zeros(8), 350.0)

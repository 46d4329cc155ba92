"""IMU device profile and noise generator tests."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigError, ShapeError
from repro.imu import IDEAL_IMU, MPU6050, MPU9250
from repro.imu import noise as imu_noise


class TestDeviceProfiles:
    def test_mpu9250_sensitivity_is_8192_per_g(self):
        assert MPU9250.gravity_counts == pytest.approx(8192.0)

    def test_mpu6050_noisier_than_mpu9250(self):
        assert MPU6050.accel_noise_counts > MPU9250.accel_noise_counts
        assert MPU6050.spike_probability > MPU9250.spike_probability

    def test_ideal_device_is_noise_free(self):
        assert IDEAL_IMU.accel_noise_counts == 0.0
        assert IDEAL_IMU.spike_probability == 0.0
        assert not IDEAL_IMU.quantize

    def test_rejects_negative_sensitivity(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(MPU9250, accel_sensitivity=-1.0)

    def test_rejects_excessive_spike_probability(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(MPU9250, spike_probability=0.5)


class TestWhiteNoise:
    def test_zero_std_is_exact_zero(self, rng):
        assert np.all(imu_noise.white_noise((100, 3), 0.0, rng) == 0.0)

    def test_std_matches(self, rng):
        noise = imu_noise.white_noise((100_000,), 5.0, rng)
        assert noise.std() == pytest.approx(5.0, rel=0.02)

    def test_rejects_negative_std(self, rng):
        with pytest.raises(ConfigError):
            imu_noise.white_noise((10,), -1.0, rng)


class TestBiasWalk:
    def test_walk_grows_with_time(self, rng):
        walk = imu_noise.bias_random_walk(100_000, 1, 0.1, rng)
        early = np.abs(walk[:1000]).mean()
        late = np.abs(walk[-1000:]).mean()
        assert late > early

    def test_shape(self, rng):
        assert imu_noise.bias_random_walk(50, 3, 0.1, rng).shape == (50, 3)

    def test_zero_step_is_flat(self, rng):
        assert np.all(imu_noise.bias_random_walk(50, 3, 0.0, rng) == 0.0)


class TestStaticBias:
    def test_within_bounds(self, rng):
        bias = imu_noise.static_bias(1000, 60.0, rng)
        assert np.all(np.abs(bias) <= 60.0)

    def test_rejects_negative(self, rng):
        with pytest.raises(ConfigError):
            imu_noise.static_bias(3, -1.0, rng)


class TestSpikes:
    def test_zero_probability_returns_copy(self, rng):
        data = np.zeros((100, 6))
        out = imu_noise.inject_spikes(data, 0.0, 900.0, rng)
        assert np.all(out == 0.0)
        assert out is not data

    def test_spikes_are_large(self, rng):
        data = np.zeros((10_000, 6))
        out = imu_noise.inject_spikes(data, 0.01, 900.0, rng)
        spikes = out[out != 0.0]
        assert spikes.size > 0
        assert np.abs(spikes).min() > 300.0

    def test_spike_rate_matches_probability(self, rng):
        data = np.zeros((50_000, 6))
        out = imu_noise.inject_spikes(data, 0.004, 900.0, rng)
        rate = np.mean(out != 0.0)
        assert rate == pytest.approx(0.004, rel=0.2)

    def test_rejects_1d(self, rng):
        with pytest.raises(ShapeError):
            imu_noise.inject_spikes(np.zeros(10), 0.1, 100.0, rng)


class TestQuantizeSaturate:
    def test_quantize_rounds(self):
        out = imu_noise.quantize(np.array([1.4, 1.5, -2.7]))
        np.testing.assert_array_equal(out, [1.0, 2.0, -3.0])

    def test_saturate_clips_symmetric_word(self):
        out = imu_noise.saturate(np.array([40_000.0, -40_000.0, 5.0]), 32767)
        np.testing.assert_array_equal(out, [32767.0, -32768.0, 5.0])

    def test_saturate_rejects_bad_full_scale(self):
        with pytest.raises(ConfigError):
            imu_noise.saturate(np.zeros(3), 0)

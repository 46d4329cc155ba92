"""Tests for signal analysis (F0, resampling) and STFT helpers."""

import numpy as np
import pytest

from repro.dsp.analysis import (
    autocorrelation,
    envelope,
    estimate_f0,
    resample_fft,
    zero_crossing_rate,
)
from repro.dsp.stft import spectrogram, stft, window_function
from repro.errors import ConfigError, ShapeError

FS = 2800.0


class TestAutocorrelation:
    def test_zero_lag_is_variance(self, rng):
        x = rng.normal(0.0, 2.0, 4096)
        acf = autocorrelation(x, max_lag=10)
        assert acf[0] == pytest.approx(np.var(x), rel=0.01)

    def test_periodic_signal_peaks_at_period(self):
        t = np.arange(2800) / FS
        x = np.sin(2 * np.pi * 100.0 * t)
        acf = autocorrelation(x, max_lag=100)
        period = FS / 100.0
        peak = int(np.argmax(acf[10:])) + 10
        assert peak == pytest.approx(period, abs=1.0)

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            autocorrelation(np.array([]))


class TestF0Estimation:
    @pytest.mark.parametrize("f0", [80.0, 120.0, 180.0, 240.0])
    def test_pure_tone(self, f0):
        t = np.arange(int(FS * 0.5)) / FS
        x = np.sin(2 * np.pi * f0 * t)
        estimate = estimate_f0(x, FS)
        assert estimate == pytest.approx(f0, rel=0.02)

    def test_harmonic_rich_signal(self):
        t = np.arange(int(FS * 0.5)) / FS
        x = sum(np.sin(2 * np.pi * 110.0 * k * t) / k for k in (1, 2, 3))
        assert estimate_f0(x, FS) == pytest.approx(110.0, rel=0.03)

    def test_noise_returns_none(self, rng):
        assert estimate_f0(rng.normal(size=2800), FS) is None

    def test_estimates_voice_source_f0(self, population, rng):
        """The estimator recovers the synthetic person's F0."""
        from repro.physio.voice import VoiceSource

        person = population[1]
        wave = VoiceSource(person, jitter=0.0, shimmer=0.0).synthesize(
            0.5, FS, rng, onset_s=0.0
        )
        estimate = estimate_f0(wave, FS)
        assert estimate == pytest.approx(person.f0_hz, rel=0.05)

    def test_rejects_bad_range(self):
        with pytest.raises(ConfigError):
            estimate_f0(np.zeros(100), FS, f0_min_hz=200.0, f0_max_hz=100.0)


class TestResampleFFT:
    def test_identity(self, rng):
        x = rng.normal(size=64)
        np.testing.assert_allclose(resample_fft(x, 64), x)

    def test_tone_survives_upsampling(self):
        t = np.arange(128) / 128.0
        x = np.sin(2 * np.pi * 5 * t)
        up = resample_fft(x, 256)
        t2 = np.arange(256) / 256.0
        np.testing.assert_allclose(up, np.sin(2 * np.pi * 5 * t2), atol=1e-8)

    def test_energy_scaling(self, rng):
        x = np.sin(2 * np.pi * 3 * np.arange(100) / 100.0)
        up = resample_fft(x, 400)
        assert np.abs(up).max() == pytest.approx(np.abs(x).max(), rel=0.02)

    def test_rejects_bad_target(self):
        with pytest.raises(ConfigError):
            resample_fft(np.zeros(8), 0)


class TestEnvelopeZCR:
    def test_envelope_tracks_amplitude(self):
        t = np.arange(700)
        x = np.where(t < 350, 1.0, 5.0) * np.sin(0.5 * t)
        env = envelope(x, window=50)
        assert env[:250].mean() < env[-250:].mean() / 2

    def test_zcr_of_alternating_signal(self):
        assert zero_crossing_rate(np.array([1.0, -1.0, 1.0, -1.0])) == 1.0

    def test_zcr_of_constant(self):
        assert zero_crossing_rate(np.ones(10)) == 0.0


class TestSTFT:
    def test_shapes(self, rng):
        out = stft(rng.normal(size=256), frame_length=64, hop=16)
        assert out.shape == (13, 33)

    def test_spectrogram_peak_at_tone(self):
        t = np.arange(2048) / FS
        x = np.sin(2 * np.pi * 200.0 * t)
        times, freqs, power = spectrogram(x, FS, frame_length=256, hop=64)
        peak_bins = power.argmax(axis=1)
        np.testing.assert_allclose(freqs[peak_bins], 200.0, atol=12.0)

    def test_windows_normalised_shapes(self):
        for name in ("hann", "hamming", "blackman", "rectangular"):
            win = window_function(name, 32)
            assert win.shape == (32,)
            assert win.max() <= 1.0 + 1e-12

    def test_unknown_window_raises(self):
        with pytest.raises(ConfigError):
            window_function("kaiser", 32)

    def test_short_signal_raises(self):
        with pytest.raises(ShapeError):
            stft(np.zeros(10), frame_length=64)

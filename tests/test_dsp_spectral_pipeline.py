"""Spectral helpers and the full preprocessing pipeline."""

import numpy as np
import pytest

from repro.config import PreprocessConfig
from repro.dsp.pipeline import Preprocessor
from repro.dsp.spectral import (
    band_energy,
    band_energy_ratio,
    dominant_frequency,
    hann_window,
    periodogram,
    spectral_centroid,
)
from repro.errors import ConfigError, OnsetNotFoundError, ShapeError

FS = 350.0


class TestSpectral:
    def test_hann_endpoints(self):
        win = hann_window(64)
        assert win[0] == pytest.approx(0.0)
        assert win.max() <= 1.0

    def test_periodogram_parseval(self, rng):
        """Total PSD mass times bin width ~ signal variance."""
        x = rng.normal(0.0, 2.0, size=4096)
        freqs, psd = periodogram(x, FS, window=False)
        df = freqs[1] - freqs[0]
        assert np.sum(psd) * df == pytest.approx(np.var(x) + np.mean(x) ** 2, rel=0.05)

    def test_dominant_frequency_of_tone(self):
        t = np.arange(2048) / FS
        tone = np.sin(2 * np.pi * 60.0 * t)
        assert dominant_frequency(tone, FS) == pytest.approx(60.0, abs=1.0)

    def test_band_energy_concentrated_at_tone(self):
        t = np.arange(2048) / FS
        tone = np.sin(2 * np.pi * 60.0 * t)
        inside = band_energy(tone, FS, 55.0, 65.0)
        outside = band_energy(tone, FS, 100.0, 170.0)
        assert inside > 100 * outside

    def test_band_energy_ratio_low_tone(self):
        t = np.arange(2048) / FS
        assert band_energy_ratio(np.sin(2 * np.pi * 5.0 * t), FS, 20.0) > 0.95

    def test_spectral_centroid_between_tones(self):
        t = np.arange(4096) / FS
        x = np.sin(2 * np.pi * 40.0 * t) + np.sin(2 * np.pi * 120.0 * t)
        centroid = spectral_centroid(x, FS)
        assert 60.0 < centroid < 100.0

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            periodogram(np.array([]), FS)

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigError):
            periodogram(np.zeros(16), -1.0)

    def test_rejects_bad_band(self):
        with pytest.raises(ConfigError):
            band_energy(np.zeros(16), FS, 50.0, 40.0)


class TestPreprocessor:
    def test_output_shape_and_range(self, recording):
        out = Preprocessor().process(recording)
        assert out.shape == (6, 60)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_silence_rejected(self):
        with pytest.raises(OnsetNotFoundError):
            Preprocessor().process(np.zeros((210, 6)))

    def test_debug_stages_coherent(self, recording):
        debug = Preprocessor().process_debug(recording)
        assert debug.raw_segments.shape == (6, 60)
        assert debug.despiked.shape == (6, 60)
        assert debug.filtered.shape == (6, 60)
        np.testing.assert_array_equal(debug.normalized, Preprocessor().process(recording))

    def test_highpass_removes_gravity_offset(self, recording):
        debug = Preprocessor().process_debug(recording)
        raw_mean = np.abs(debug.raw_segments.mean(axis=1)).max()
        # Steady-state mean of the filtered tail should be far below the
        # gravity-loaded raw offset.
        filtered_mean = np.abs(debug.filtered[:, 30:].mean(axis=1)).max()
        assert filtered_mean < 0.05 * raw_mean

    def test_deterministic(self, recording):
        a = Preprocessor().process(recording)
        b = Preprocessor().process(recording)
        np.testing.assert_array_equal(a, b)

    def test_custom_segment_length(self, recording):
        cfg = PreprocessConfig(segment_length=40)
        assert Preprocessor(cfg).process(recording).shape == (6, 40)

    def test_batch_drops_undetectable(self, recording):
        batch = np.stack([recording, np.zeros_like(recording)])
        out = Preprocessor().process_batch(batch)
        assert out.shape == (1, 6, 60)

    def test_batch_all_silent_returns_empty(self):
        out = Preprocessor().process_batch(np.zeros((2, 210, 6)))
        assert out.shape == (0, 6, 60)

    def test_despiking_changes_spiked_recording(self, recording, rng):
        spiked = recording.copy()
        debug_clean = Preprocessor().process_debug(recording)
        onset = debug_clean.onset
        spiked[onset + 30 : onset + 33, 2] += 20000.0
        debug = Preprocessor().process_debug(spiked)
        # The spikes were replaced somewhere in the az segment.
        assert np.any(debug.raw_segments[2] != debug.despiked[2])
        # And the despiked segment no longer contains the huge values.
        assert np.abs(debug.despiked[2]).max() < np.abs(debug.raw_segments[2]).max()


def _reference_gate(filtered, min_std, min_usable):
    """The quality-gate expression before it dropped ``nan_to_num``."""
    finite = np.isfinite(filtered).all(axis=2)
    axis_std = np.where(finite, np.nan_to_num(filtered.std(axis=2)), 0.0)
    usable = finite & (axis_std > 1e-9)
    sustained = np.where(usable, axis_std, 0.0).max(axis=1) >= min_std
    enough = usable.sum(axis=1) >= min_usable
    return usable, sustained, enough


def _gate_cases(rng):
    """``(8, 6, 60)`` filtered stacks, one gate situation per item."""
    n = 60
    std_overflow = 1e200 * (-1.0) ** np.arange(n)  # finite; std is inf
    # Finite, but the pairwise sum meets +inf and -inf: the std is NaN.
    std_nan = np.where(np.arange(n) % 8 < 4, 1e308, -1e308)
    filtered = rng.normal(0.0, 300.0, size=(8, 6, n))
    filtered[1, 1, 10:20] = np.nan  # NaN burst on one axis
    filtered[2, 3] = 5.0  # dead axis
    filtered[3, 0] = std_overflow
    filtered[4, 5] = std_nan
    filtered[5] = rng.normal(0.0, 1e-3, size=(6, n))  # silence
    filtered[6, :2] = 0.0  # two dead axes and a NaN burst: 3 usable
    filtered[6, 2, 30] = np.nan
    filtered[7] = 0.0  # only the overflowing axis is usable
    filtered[7, 0] = std_overflow
    filtered[7, 1] = std_nan
    return filtered


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestQualityGate:
    """Usable axes, degraded set and refusal class, pinned per policy."""

    @pytest.mark.parametrize("min_usable_axes", [1, 4, 6])
    def test_matches_reference_expression(self, monkeypatch, rng, min_usable_axes):
        from repro.dsp import pipeline as pipeline_module
        from repro.dsp.normalize import min_max_normalize
        from repro.errors import InsufficientAxesError

        filtered = _gate_cases(rng)
        with np.errstate(all="ignore"):
            assert np.isinf(filtered[3, 0].std()) and np.isnan(filtered[4, 5].std())
        monkeypatch.setattr(pipeline_module, "sosfilt", lambda sos, x: filtered.copy())
        pre = Preprocessor()
        recordings = rng.normal(0.0, 100.0, size=(8, 210, 6))
        signals, kept, failures, degraded = pre.process_batch_detailed(
            recordings, min_usable_axes=min_usable_axes, onsets=[0] * 8
        )

        usable, sustained, enough = _reference_gate(
            filtered, pipeline_module.MIN_SEGMENT_STD, min_usable_axes
        )
        keep = sustained & enough
        assert list(kept) == list(np.flatnonzero(keep))
        expected_failures = [
            (i, OnsetNotFoundError if not sustained[i] else InsufficientAxesError)
            for i in np.flatnonzero(~keep)
        ]
        assert [(i, type(e)) for i, e in failures] == expected_failures
        assert degraded == tuple(
            i for i in np.flatnonzero(keep) if not usable[i].all()
        )
        zeroed = np.where(usable[:, :, None], filtered, 0.0)[keep]
        np.testing.assert_array_equal(signals, min_max_normalize(zeroed, axis=-1))
        # The cases cover what they claim: silence refuses, and the inf
        # axis is usable while the NaN-std axis is not.
        assert not sustained[5]
        assert usable[3, 0] and not usable[4, 5]
        assert usable[7].tolist() == [True, False, False, False, False, False]
        if min_usable_axes == 1:
            assert set(kept) == {0, 1, 2, 3, 4, 6, 7}
            assert degraded == (1, 2, 4, 6, 7)
        elif min_usable_axes == 4:
            assert set(kept) == {0, 1, 2, 3, 4}
        else:
            assert set(kept) == {0, 3}

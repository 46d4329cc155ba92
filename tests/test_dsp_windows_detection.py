"""Onset detection and segmentation tests (Section IV)."""

import numpy as np
import pytest

from repro.dsp.detection import (
    detect_onset,
    onset_metric,
    segment_after_onset,
)
from repro.errors import (
    OnsetNotFoundError,
    SegmentTooShortError,
    ShapeError,
)


def _synthetic_recording(onset_sample: int = 80, amplitude: float = 2000.0):
    """Silence, then a strong oscillation on all accel axes."""
    rng = np.random.default_rng(0)
    rec = rng.normal(0.0, 3.0, size=(210, 6))
    t = np.arange(210 - onset_sample)
    burst = amplitude * np.sin(2 * np.pi * 0.25 * t)
    for axis in range(3):
        rec[onset_sample:, axis] += burst
    return rec


class TestOnsetDetection:
    def test_finds_onset_near_truth(self):
        rec = _synthetic_recording(onset_sample=80)
        onset = detect_onset(rec)
        assert 65 <= onset <= 90

    def test_silence_raises(self):
        rng = np.random.default_rng(0)
        rec = rng.normal(0.0, 3.0, size=(210, 6))
        with pytest.raises(OnsetNotFoundError):
            detect_onset(rec)

    def test_short_recording_raises(self):
        with pytest.raises(OnsetNotFoundError):
            detect_onset(np.zeros((5, 6)))

    def test_brief_glitch_does_not_trigger(self):
        """An isolated sensor spike without sustained follow-up is ignored.

        (The spike's high-pass ring-down decays within a window or two,
        so the sustain rule rejects it.)
        """
        rng = np.random.default_rng(0)
        rec = rng.normal(0.0, 3.0, size=(210, 6))
        rec[55, 2] += 5000.0  # one glitch sample, then silence again
        with pytest.raises(OnsetNotFoundError):
            detect_onset(rec)

    def test_uses_any_accel_axis(self):
        """Vibration only on ay still triggers (coupling-direction robust)."""
        rng = np.random.default_rng(0)
        rec = rng.normal(0.0, 3.0, size=(210, 6))
        t = np.arange(130)
        rec[80:, 1] += 2000.0 * np.sin(2 * np.pi * 0.25 * t)
        assert 65 <= detect_onset(rec) <= 90

    def test_detection_on_real_synthesis(self, recording):
        onset = detect_onset(recording)
        assert 20 <= onset <= 100

    def test_effort_invariant_alignment(self):
        """A 2x louder copy detects (nearly) the same onset."""
        rec = _synthetic_recording(onset_sample=83)
        loud = rec.copy()
        loud[:, :3] *= 2.0
        assert abs(detect_onset(rec) - detect_onset(loud)) <= 1

    def test_onset_metric_shape(self):
        metric = onset_metric(np.zeros((50, 6)), window=10)
        assert metric.shape == (5,)


class TestSegmentation:
    def test_segment_shape_and_content(self):
        rec = np.arange(210 * 6, dtype=float).reshape(210, 6)
        seg = segment_after_onset(rec, 10, 60)
        assert seg.shape == (6, 60)
        np.testing.assert_array_equal(seg[0], rec[10:70, 0])

    def test_too_short_raises(self):
        with pytest.raises(SegmentTooShortError):
            segment_after_onset(np.zeros((100, 6)), 60, 60)

    def test_negative_onset_raises(self):
        with pytest.raises(ShapeError):
            segment_after_onset(np.zeros((100, 6)), -1, 60)

    def test_returns_copy(self):
        rec = np.zeros((100, 6))
        seg = segment_after_onset(rec, 0, 60)
        seg[0, 0] = 99.0
        assert rec[0, 0] == 0.0

"""FRR / FAR / EER / VSR metric tests (Eq. 9-11)."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.eval.metrics import (
    equal_error_rate,
    far_frr_curve,
    false_accept_rate,
    false_reject_rate,
)


class TestRates:
    def test_frr_counts_genuine_beyond_threshold(self):
        genuine = np.array([0.1, 0.2, 0.5, 0.9])
        assert false_reject_rate(genuine, 0.3) == pytest.approx(0.5)

    def test_far_counts_impostor_within_threshold(self):
        impostor = np.array([0.2, 0.6, 0.8, 1.0])
        assert false_accept_rate(impostor, 0.5) == pytest.approx(0.25)

    def test_boundary_is_accepted(self):
        """accept iff distance <= t: equality counts as accept."""
        assert false_reject_rate(np.array([0.3]), 0.3) == 0.0
        assert false_accept_rate(np.array([0.3]), 0.3) == 1.0

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            false_reject_rate(np.array([]), 0.5)

    def test_rejects_nan(self):
        with pytest.raises(ShapeError):
            false_accept_rate(np.array([np.nan]), 0.5)


class TestCurve:
    def test_far_monotone_rising_frr_falling(self, rng):
        genuine = rng.normal(0.2, 0.05, 500)
        impostor = rng.normal(0.8, 0.1, 500)
        _, far, frr = far_frr_curve(genuine, impostor)
        assert np.all(np.diff(far) >= 0.0)
        assert np.all(np.diff(frr) <= 0.0)

    def test_extremes(self, rng):
        genuine = rng.uniform(0.0, 0.4, 100)
        impostor = rng.uniform(0.6, 1.0, 100)
        thresholds, far, frr = far_frr_curve(genuine, impostor)
        assert far[0] == 0.0 and frr[0] > 0.9
        assert far[-1] == 1.0 and frr[-1] == 0.0

    def test_explicit_thresholds_respected(self, rng):
        genuine = rng.normal(0.2, 0.05, 100)
        impostor = rng.normal(0.8, 0.1, 100)
        thresholds = np.array([0.0, 0.5, 1.5])
        t, far, frr = far_frr_curve(genuine, impostor, thresholds=thresholds)
        np.testing.assert_array_equal(t, thresholds)
        assert far[0] == pytest.approx(false_accept_rate(impostor, 0.0))


class TestEER:
    def test_perfect_separation_zero_eer(self, rng):
        genuine = rng.uniform(0.0, 0.3, 1000)
        impostor = rng.uniform(0.7, 1.0, 1000)
        result = equal_error_rate(genuine, impostor)
        assert result.eer == pytest.approx(0.0, abs=1e-6)
        assert 0.3 < result.threshold < 0.7

    def test_total_overlap_half_eer(self, rng):
        scores = rng.normal(0.5, 0.1, 5000)
        result = equal_error_rate(scores, scores.copy())
        assert result.eer == pytest.approx(0.5, abs=0.02)

    def test_known_gaussian_overlap(self, rng):
        """Two unit-variance Gaussians 2 sigma apart: EER = Phi(-1) ~ 15.9 %."""
        genuine = rng.normal(0.0, 1.0, 200_000)
        impostor = rng.normal(2.0, 1.0, 200_000)
        result = equal_error_rate(genuine, impostor)
        assert result.eer == pytest.approx(0.1587, abs=0.01)

    def test_far_equals_frr_at_threshold(self, rng):
        genuine = rng.normal(0.3, 0.1, 5000)
        impostor = rng.normal(0.7, 0.1, 5000)
        result = equal_error_rate(genuine, impostor)
        assert result.far_at_threshold == pytest.approx(
            result.frr_at_threshold, abs=0.02
        )

    def test_swapping_distributions_keeps_eer_meaningful(self, rng):
        genuine = rng.normal(0.3, 0.1, 2000)
        impostor = rng.normal(0.7, 0.1, 2000)
        result = equal_error_rate(genuine, impostor)
        assert 0.0 <= result.eer < 0.1

"""Statistical feature (SFS) tests (Section V-A)."""

import numpy as np
import pytest

from repro.ml.features import FEATURE_NAMES, statistical_features_batch
from repro.types import NUM_AXES, ensure_signal_array


def axis_statistics(segment: np.ndarray) -> np.ndarray:
    """Reference: the six statistics of one axis, in FEATURE_NAMES order."""
    segment = np.asarray(segment, dtype=np.float64)
    return np.array(
        [
            segment.mean(),
            np.median(segment),
            segment.var(),
            segment.std(),
            np.percentile(segment, 75),
            np.percentile(segment, 25),
        ]
    )


def statistical_features(signal_array: np.ndarray) -> np.ndarray:
    """Reference: one SFS, ``(36,)`` = 6 axes x 6 statistics."""
    signal_array = ensure_signal_array(signal_array)
    return np.concatenate(
        [axis_statistics(signal_array[axis]) for axis in range(NUM_AXES)]
    )


class TestAxisStatistics:
    def test_six_features_in_order(self):
        segment = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        stats = axis_statistics(segment)
        assert stats.shape == (6,)
        assert stats[0] == pytest.approx(3.0)  # mean
        assert stats[1] == pytest.approx(3.0)  # median
        assert stats[2] == pytest.approx(2.0)  # variance
        assert stats[3] == pytest.approx(np.sqrt(2.0))  # std
        assert stats[4] == pytest.approx(4.0)  # upper quartile
        assert stats[5] == pytest.approx(2.0)  # lower quartile

    def test_names_documented(self):
        assert len(FEATURE_NAMES) == 6


class TestStatisticalFeatures:
    def test_36_features_per_signal_array(self, rng):
        sfs = statistical_features(rng.normal(size=(6, 60)))
        assert sfs.shape == (36,)

    def test_layout_is_axis_major(self, rng):
        array = rng.normal(size=(6, 60))
        sfs = statistical_features(array)
        np.testing.assert_allclose(sfs[:6], axis_statistics(array[0]))
        np.testing.assert_allclose(sfs[6:12], axis_statistics(array[1]))

    def test_batch(self, rng):
        arrays = rng.normal(size=(4, 6, 60))
        batch = statistical_features_batch(arrays)
        assert batch.shape == (4, 36)
        np.testing.assert_allclose(batch[2], statistical_features(arrays[2]))

    def test_batch_rejects_wrong_ndim(self, rng):
        with pytest.raises(ValueError):
            statistical_features_batch(rng.normal(size=(6, 60)))

    def test_batch_rejects_wrong_axis_count(self, rng):
        with pytest.raises(ValueError):
            statistical_features_batch(rng.normal(size=(4, 5, 60)))

    def test_deterministic(self, rng):
        arrays = rng.normal(size=(3, 6, 60))
        first = statistical_features_batch(arrays)
        second = statistical_features_batch(arrays.copy())
        np.testing.assert_array_equal(first, second)

    def test_batch_is_bitwise_equal_to_single(self, rng):
        # The vectorized batch path must match the per-item reference
        # bit for bit.
        arrays = rng.normal(size=(8, 6, 105))
        batch = statistical_features_batch(arrays)
        for i, array in enumerate(arrays):
            np.testing.assert_array_equal(batch[i], statistical_features(array))

    def test_nan_stays_in_its_own_item(self, rng):
        arrays = rng.normal(size=(3, 6, 60))
        arrays[1, 2, 10] = np.nan
        batch = statistical_features_batch(arrays)
        assert np.isfinite(batch[0]).all()
        assert np.isnan(batch[1]).any()
        assert np.isfinite(batch[2]).all()

    def test_dead_axis_yields_finite_zero_features(self, rng):
        array = rng.normal(size=(6, 60))
        array[3] = 0.0  # sensor dropout: one axis flat
        sfs = statistical_features(array)
        assert np.isfinite(sfs).all()
        np.testing.assert_array_equal(sfs[18:24], np.zeros(6))

    def test_empty_batch(self):
        batch = statistical_features_batch(np.empty((0, 6, 60)))
        assert batch.shape == (0, 36)

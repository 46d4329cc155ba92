"""MAD outlier detection and replacement tests (Section IV, Fig. 6)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.dsp.outliers import (
    mad,
    mad_outlier_mask,
    mad_outlier_mask_batch,
    replace_outliers,
    replace_outliers_batch,
)
from repro.errors import ConfigError, ShapeError


class TestMAD:
    def test_known_value(self):
        assert mad(np.array([1.0, 2.0, 3.0, 4.0, 5.0])) == 1.0

    def test_constant_is_zero(self):
        assert mad(np.full(10, 3.0)) == 0.0

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            mad(np.array([]))

    def test_rejects_2d(self):
        with pytest.raises(ShapeError):
            mad(np.zeros((3, 3)))


class TestOutlierMask:
    def test_detects_planted_spikes(self, rng):
        signal = rng.normal(0.0, 10.0, size=200)
        signal[[20, 77, 140]] += 500.0
        mask = mad_outlier_mask(signal)
        assert mask[20] and mask[77] and mask[140]
        assert mask.sum() <= 10

    def test_clean_gaussian_mostly_unflagged(self, rng):
        signal = rng.normal(0.0, 1.0, size=1000)
        assert mad_outlier_mask(signal).mean() < 0.01

    def test_constant_signal_flags_nothing(self):
        assert not mad_outlier_mask(np.full(50, 2.0)).any()

    def test_zero_mad_flags_deviants(self):
        signal = np.full(50, 2.0)
        signal[7] = 100.0
        mask = mad_outlier_mask(signal)
        assert mask[7]
        assert mask.sum() == 1

    def test_empty_input(self):
        assert mad_outlier_mask(np.array([])).shape == (0,)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ConfigError):
            mad_outlier_mask(np.zeros(5), threshold=0.0)


class TestReplacement:
    def test_spike_replaced_with_neighbor_mean(self):
        signal = np.array([1.0, 2.0, 3.0, 500.0, 5.0, 6.0, 7.0])
        out = replace_outliers(signal)
        # Mean of two previous (2, 3) and two subsequent (5, 6) normals.
        assert out[3] == pytest.approx((2 + 3 + 5 + 6) / 4)

    def test_clean_signal_untouched(self, rng):
        signal = rng.normal(0.0, 1.0, size=100)
        mask = np.zeros(100, dtype=bool)
        out = replace_outliers(signal, mask=mask)
        np.testing.assert_array_equal(out, signal)

    def test_consecutive_outliers_use_nearest_normals(self):
        signal = np.array([1.0, 2.0, 900.0, 950.0, 5.0, 6.0])
        mask = np.array([False, False, True, True, False, False])
        out = replace_outliers(signal, mask=mask)
        assert out[2] == pytest.approx((1 + 2 + 5 + 6) / 4)
        assert out[3] == pytest.approx((1 + 2 + 5 + 6) / 4)

    def test_edge_outlier_uses_one_side(self):
        signal = np.array([900.0, 2.0, 3.0, 4.0, 5.0])
        mask = np.array([True, False, False, False, False])
        out = replace_outliers(signal, mask=mask)
        assert out[0] == pytest.approx((2 + 3) / 2)

    def test_all_outliers_returned_unchanged(self):
        signal = np.array([5.0, 6.0, 7.0])
        mask = np.ones(3, dtype=bool)
        np.testing.assert_array_equal(replace_outliers(signal, mask=mask), signal)

    def test_input_not_mutated(self):
        signal = np.array([1.0, 2.0, 3.0, 500.0, 5.0, 6.0, 7.0])
        original = signal.copy()
        replace_outliers(signal)
        np.testing.assert_array_equal(signal, original)

    def test_mask_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            replace_outliers(np.zeros(5), mask=np.zeros(4, dtype=bool))

    def test_rejects_bad_neighbors(self):
        with pytest.raises(ConfigError):
            replace_outliers(np.zeros(5), neighbors=0)

    def test_restores_clean_statistics(self, rng):
        """After replacement, the spiked signal's std is near the clean one."""
        clean = rng.normal(0.0, 10.0, size=500)
        spiked = clean.copy()
        spiked[rng.choice(500, 10, replace=False)] += 800.0
        restored = replace_outliers(spiked)
        assert abs(restored.std() - clean.std()) < 0.1 * clean.std()


# -- batch path vs the per-row rule ---------------------------------------
#
# The scalar implementation as it stood before the batch stage took the
# medians from one partition and did the replacement on Python lists,
# frozen here as the reference: np.median for both medians and a numpy
# mean over each outlier's pool of normal neighbours.


def _reference_mask(values, threshold=3.5):
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return np.zeros(0, dtype=bool)
    median = np.median(values)
    deviation = np.abs(values - median)
    spread = float(np.median(np.abs(values - np.median(values))))
    if spread == 0.0:
        return deviation > 0.0
    modified_z = 0.6744897501960817 * deviation / spread
    return modified_z > threshold


def _reference_replace(values, mask=None, threshold=3.5, neighbors=2):
    values = np.asarray(values, dtype=np.float64)
    if mask is None:
        mask = _reference_mask(values, threshold)
    mask = np.asarray(mask, dtype=bool)
    if not mask.any() or mask.all():
        return values.copy()
    normal_idx = np.flatnonzero(~mask)
    out = values.copy()
    for idx in np.flatnonzero(mask):
        pos = np.searchsorted(normal_idx, idx)
        before = normal_idx[max(0, pos - neighbors) : pos]
        after = normal_idx[pos : pos + neighbors]
        pool = np.concatenate([before, after])
        out[idx] = float(values[pool].mean())
    return out


def _bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


def _planted_stack(rng, batch, n):
    """``(batch, 6, n)`` rows covering every branch of the MAD rule."""
    stack = rng.normal(0.0, 40.0, size=(batch, 6, n))
    for b in range(batch):
        for axis in range(6):
            row = stack[b, axis]
            kind = (b * 6 + axis) % 9
            spikes = rng.choice([-1.0, 1.0], size=3) * rng.uniform(800, 5000, 3)
            if kind == 0:  # edge spikes
                row[0] += spikes[0]
                row[-1] += spikes[1]
            elif kind == 1:  # a consecutive run
                start = int(rng.integers(0, max(1, n - 3)))
                row[start : start + 3] += spikes[: len(row[start : start + 3])]
            elif kind == 2:  # zero MAD: constant with deviants
                row[:] = 7.0
                row[rng.choice(n, size=min(2, n - 1), replace=False)] = spikes[:2][
                    : min(2, n - 1)
                ]
            elif kind == 3:  # NaN, with a spike the NaN rule must mask
                row[n // 2] += spikes[0]
                row[int(rng.integers(n))] = np.nan
            elif kind == 4:  # +inf and -inf
                row[int(rng.integers(n))] = np.inf
                row[int(rng.integers(n))] = -np.inf
            elif kind == 5:  # signed-zero ties: a pool of -0.0 averages to +0.0
                row[:] = -0.0
                row[rng.random(n) < 0.2] = 0.0
                row[int(rng.integers(n))] = spikes[0]
            elif kind == 6:  # integer ties
                row[:] = np.round(row / 25.0)
                row[int(rng.integers(n))] += spikes[0]
            elif kind == 7:  # constant: nothing flagged
                row[:] = 3.0
            # kind 8: clean Gaussian
    return stack


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestBatchParity:
    @pytest.mark.parametrize("n", [7, 8, 59, 60])
    def test_planted_stacks_match_reference_bitwise(self, n):
        rng = np.random.default_rng(n)
        stack = _planted_stack(rng, batch=6, n=n)
        masks = mad_outlier_mask_batch(stack)
        out = replace_outliers_batch(stack)
        rows = stack.reshape(-1, n)
        expected_masks = np.stack([_reference_mask(row) for row in rows])
        expected = np.stack([_reference_replace(row) for row in rows])
        np.testing.assert_array_equal(masks.reshape(-1, n), expected_masks)
        np.testing.assert_array_equal(_bits(out.reshape(-1, n)), _bits(expected))
        # The planted rows exercise what they claim to.
        assert expected_masks.any()
        assert np.signbit(stack).any() and (stack == 0.0).any()

    @pytest.mark.parametrize("n", [7, 8, 59, 60])
    def test_one_row_calls_match_reference(self, n):
        rng = np.random.default_rng(100 + n)
        for row in _planted_stack(rng, batch=2, n=n).reshape(-1, n):
            np.testing.assert_array_equal(mad_outlier_mask(row), _reference_mask(row))
            np.testing.assert_array_equal(
                _bits(replace_outliers(row)), _bits(_reference_replace(row))
            )
            given = rng.random(n) < 0.3
            np.testing.assert_array_equal(
                _bits(replace_outliers(row, mask=given)),
                _bits(_reference_replace(row, mask=given)),
            )

    @pytest.mark.parametrize("neighbors", [1, 3, 4, 6])
    def test_wide_pools_match_reference(self, neighbors):
        rng = np.random.default_rng(neighbors)
        for row in _planted_stack(rng, batch=2, n=60).reshape(-1, 60):
            given = rng.random(60) < 0.25
            np.testing.assert_array_equal(
                _bits(replace_outliers(row, mask=given, neighbors=neighbors)),
                _bits(_reference_replace(row, mask=given, neighbors=neighbors)),
            )

    def test_nan_row_flags_nothing(self):
        row = np.linspace(-1.0, 1.0, 60)
        row[10] = 900.0
        row[40] = np.nan
        assert not mad_outlier_mask_batch(row[None])[0].any()
        assert _reference_mask(row).sum() == 0

    def test_negative_zero_pool_averages_to_positive_zero(self):
        row = np.full(8, -0.0)
        row[3] = 500.0
        out = replace_outliers_batch(row[None, None])[0, 0]
        assert out[3] == 0.0 and not np.signbit(out[3])
        assert np.signbit(out[np.arange(8) != 3]).all()

    def test_all_outlier_row_unchanged(self):
        row = np.array([5.0, -0.0, 7.0])
        out = replace_outliers(row, mask=np.ones(3, dtype=bool))
        np.testing.assert_array_equal(_bits(out), _bits(row))

    def test_empty_axes(self):
        assert replace_outliers_batch(np.zeros((2, 0))).shape == (2, 0)
        assert replace_outliers_batch(np.zeros((0, 6, 60))).shape == (0, 6, 60)
        assert mad_outlier_mask_batch(np.zeros((3, 0))).shape == (3, 0)

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(1, 64)),
            elements=st.one_of(
                st.floats(-1e3, 1e3),
                st.sampled_from([0.0, -0.0, 1e6, -1e6, np.inf, -np.inf, np.nan]),
            ),
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_property_matches_reference(self, stack):
        n = stack.shape[-1]
        rows = stack.reshape(-1, n)
        masks = mad_outlier_mask_batch(stack).reshape(-1, n)
        out = replace_outliers_batch(stack).reshape(-1, n)
        for row, mask, replaced in zip(rows, masks, out):
            np.testing.assert_array_equal(mask, _reference_mask(row))
            np.testing.assert_array_equal(
                _bits(replaced), _bits(_reference_replace(row))
            )

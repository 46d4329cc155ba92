"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.core.similarity import cosine_distance, pairwise_cosine_distance
from repro.dsp.filters import design_highpass, frequency_response, sosfilt
from repro.dsp.gradients import resample_to_length, split_directions_batch
from repro.dsp.normalize import min_max_normalize
from repro.dsp.outliers import mad_outlier_mask, replace_outliers
from repro.eval.metrics import false_accept_rate, false_reject_rate
from repro.security.cancelable import CancelableTransform

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def vectors(min_size=2, max_size=64):
    return arrays(
        np.float64,
        st.integers(min_size, max_size),
        elements=finite_floats,
    )


class TestSimilarityProperties:
    @given(vectors())
    def test_self_distance_zero(self, v):
        if np.linalg.norm(v) == 0.0:
            assert cosine_distance(v, v) == 1.0
        else:
            assert cosine_distance(v, v) == pytest.approx(0.0, abs=1e-9)

    @given(vectors(8, 16), st.floats(0.01, 100.0))
    def test_scale_invariance(self, v, scale):
        u = v + 1.0  # avoid exact zero vectors
        assert cosine_distance(u, u * scale) == pytest.approx(0.0, abs=1e-9)

    @given(vectors(4, 16), vectors(4, 16))
    def test_symmetry_and_range(self, u, v):
        if u.shape != v.shape:
            return
        d_uv = cosine_distance(u, v)
        d_vu = cosine_distance(v, u)
        assert d_uv == pytest.approx(d_vu, abs=1e-12)
        assert -1e-12 <= d_uv <= 2.0 + 1e-12

    @given(st.integers(2, 8), st.integers(2, 8))
    def test_pairwise_shape(self, n, m):
        rng = np.random.default_rng(0)
        out = pairwise_cosine_distance(rng.normal(size=(n, 5)), rng.normal(size=(m, 5)))
        assert out.shape == (n, m)


class TestNormalizeProperties:
    @given(
        arrays(np.float64, array_shapes(min_dims=1, max_dims=2, min_side=2, max_side=40),
               elements=finite_floats)
    )
    def test_minmax_bounds(self, segment):
        out = min_max_normalize(segment)
        assert np.all(out >= -1e-12)
        assert np.all(out <= 1.0 + 1e-12)

    @given(vectors(3, 40), st.floats(0.5, 100.0), st.floats(-100.0, 100.0))
    def test_minmax_affine_invariance(self, v, scale, shift):
        assume(v.max() - v.min() > 1e-3)  # degenerate spans lose precision
        out1 = min_max_normalize(v)
        out2 = min_max_normalize(v * scale + shift)
        np.testing.assert_allclose(out1, out2, atol=1e-5)


class TestGradientProperties:
    @given(vectors(2, 60), st.integers(1, 40))
    def test_resample_preserves_bounds(self, v, length):
        out = resample_to_length(v, length)
        assert out.shape == (length,)
        if v.size:
            assert out.min() >= v.min() - 1e-9
            assert out.max() <= v.max() + 1e-9

    @given(vectors(2, 60), st.integers(2, 30))
    def test_split_directions_partition(self, grads, width):
        out = split_directions_batch(grads[None], width)[0]
        assert out.shape == (2, width)
        assert np.all(out[0] >= -1e-12)
        assert np.all(out[1] <= 1e-12)


class TestOutlierProperties:
    @given(vectors(5, 60))
    def test_replacement_idempotent_on_mask(self, v):
        mask = mad_outlier_mask(v)
        out = replace_outliers(v, mask=mask)
        assert out.shape == v.shape
        # Non-outliers are untouched.
        np.testing.assert_array_equal(out[~mask], v[~mask])

    @given(vectors(10, 60), st.floats(100.0, 1e5))
    def test_single_spike_always_caught(self, v, magnitude):
        base = np.sin(np.linspace(0, 6, v.size))  # structured, non-constant
        spiked = base.copy()
        spiked[v.size // 2] += magnitude * (1.0 + np.abs(v[0]) / 1e6)
        mask = mad_outlier_mask(spiked)
        assert mask[v.size // 2]


class TestFilterProperties:
    @given(st.sampled_from([2, 4, 6, 8]), st.floats(5.0, 100.0))
    @settings(max_examples=20, deadline=None)
    def test_highpass_dc_rejection(self, order, cutoff):
        sos = design_highpass(order, cutoff, 350.0)
        mag0 = np.abs(frequency_response(sos, np.array([1e-3]), 350.0))[0]
        assert mag0 < 1e-3

    @given(st.sampled_from([2, 4, 8]))
    @settings(max_examples=10, deadline=None)
    def test_linearity(self, order):
        rng = np.random.default_rng(0)
        sos = design_highpass(order, 20.0, 350.0)
        x, y = rng.normal(size=100), rng.normal(size=100)
        lhs = sosfilt(sos, 2.0 * x + 3.0 * y)
        rhs = 2.0 * sosfilt(sos, x) + 3.0 * sosfilt(sos, y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestMetricProperties:
    @given(
        arrays(np.float64, st.integers(2, 50), elements=st.floats(0.0, 2.0)),
        st.floats(0.0, 2.0),
        st.floats(0.0, 2.0),
    )
    def test_frr_monotone_in_threshold(self, distances, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        assert false_reject_rate(distances, lo) >= false_reject_rate(distances, hi)
        assert false_accept_rate(distances, lo) <= false_accept_rate(distances, hi)

    @given(arrays(np.float64, st.integers(2, 50), elements=st.floats(0.0, 2.0)))
    def test_far_frr_complementary_on_same_data(self, distances):
        """On identical score sets, FAR(t) + FRR(t) >= ... sanity: both in [0,1]."""
        for t in (0.0, 0.5, 1.0, 2.0):
            assert 0.0 <= false_reject_rate(distances, t) <= 1.0
            assert 0.0 <= false_accept_rate(distances, t) <= 1.0


class TestCancelableProperties:
    @given(st.integers(0, 1000), st.integers(8, 64))
    @settings(max_examples=20, deadline=None)
    def test_determinism_in_seed(self, seed, dim):
        rng = np.random.default_rng(0)
        v = rng.normal(size=dim)
        a = CancelableTransform(dim, seed=seed).apply(v)
        b = CancelableTransform(dim, seed=seed).apply(v)
        np.testing.assert_array_equal(a, b)

    @given(st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, seed):
        transform = CancelableTransform(16, seed=seed)
        rng = np.random.default_rng(1)
        u, v = rng.normal(size=16), rng.normal(size=16)
        np.testing.assert_allclose(
            transform.apply(u + 2.0 * v),
            transform.apply(u) + 2.0 * transform.apply(v),
            atol=1e-9,
        )

    @given(st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_renewal_chain_never_repeats(self, seed):
        t = CancelableTransform(8, seed=seed)
        seeds = {t.seed}
        for _ in range(5):
            t = t.renew()
            assert t.seed not in seeds or len(seeds) > 5
            seeds.add(t.seed)


class TestBatchOutcomeProperties:
    """Invariants of the engine's per-batch bookkeeping type.

    ``BatchOutcome`` carries the success/failure partition every server
    response is built from; its constructor must reject any partition
    that is inconsistent (wrong counts, unsorted or overlapping
    indices), because downstream scatter/alignment silently produces
    wrong answers otherwise.
    """

    @staticmethod
    def _build(batch_size, failed_positions):
        from repro.core.engine import BatchItemFailure, BatchOutcome

        failed = sorted(set(failed_positions))
        success = [i for i in range(batch_size) if i not in failed]
        return BatchOutcome(
            values=np.zeros((len(success), 3)),
            indices=np.asarray(success, dtype=np.int64),
            failures=tuple(
                BatchItemFailure(index=i, error="OnsetNotFoundError", reason="x")
                for i in failed
            ),
            batch_size=batch_size,
        )

    @given(st.integers(0, 24), st.data())
    @settings(max_examples=60, deadline=None)
    def test_valid_partitions_hold_invariants(self, batch_size, data):
        failed = data.draw(
            st.lists(st.integers(0, max(0, batch_size - 1)), max_size=batch_size)
            if batch_size
            else st.just([])
        )
        outcome = self._build(batch_size, failed)
        # The satellite invariants: counts partition the batch, success
        # indices strictly increase, failures sorted by index.
        assert outcome.num_ok + outcome.num_failed == outcome.batch_size
        indices = list(outcome.indices)
        assert indices == sorted(set(indices))
        failure_indices = [f.index for f in outcome.failures]
        assert failure_indices == sorted(set(failure_indices))
        assert set(indices) | set(failure_indices) == set(range(batch_size))
        # Derived views agree with the partition.
        mask = outcome.ok_mask()
        assert mask.sum() == outcome.num_ok
        assert all(not mask[i] for i in failure_indices)
        scattered = outcome.scatter(fill_value=-1.0)
        assert scattered.shape == (batch_size, 3)
        for i in failure_indices:
            assert np.all(scattered[i] == -1.0)
            assert outcome.failure_for(i) is not None
        for i in indices:
            assert np.all(scattered[i] == 0.0)
            assert outcome.failure_for(i) is None

    @given(st.integers(2, 16), st.data())
    @settings(max_examples=40, deadline=None)
    def test_unsorted_success_indices_rejected(self, batch_size, data):
        import dataclasses

        from repro.errors import ShapeError

        outcome = self._build(batch_size, [])
        swap = data.draw(st.integers(0, batch_size - 2))
        indices = np.asarray(outcome.indices).copy()
        indices[[swap, swap + 1]] = indices[[swap + 1, swap]]
        with pytest.raises(ShapeError):
            dataclasses.replace(outcome, indices=indices)

    @given(st.integers(1, 16))
    @settings(max_examples=20, deadline=None)
    def test_overlapping_partition_rejected(self, batch_size):
        import dataclasses

        from repro.core.engine import BatchItemFailure
        from repro.errors import ShapeError

        outcome = self._build(batch_size, [])
        # Claim position 0 failed *as well as* succeeded: counts now
        # exceed the batch unless an index is dropped; both are invalid.
        duplicate = BatchItemFailure(index=0, error="X", reason="dup")
        with pytest.raises(ShapeError):
            dataclasses.replace(outcome, failures=(duplicate,))
        with pytest.raises(ShapeError):
            dataclasses.replace(
                outcome,
                values=outcome.values[1:],
                indices=np.asarray(outcome.indices)[1:],
                failures=(
                    BatchItemFailure(index=batch_size, error="X", reason="oob"),
                ),
            )

    @given(st.integers(2, 16), st.data())
    @settings(max_examples=40, deadline=None)
    def test_unsorted_failures_rejected(self, batch_size, data):
        import dataclasses

        from repro.errors import ShapeError

        failed = data.draw(
            st.lists(
                st.integers(0, batch_size - 1), min_size=2, max_size=batch_size
            ).filter(lambda xs: len(set(xs)) >= 2)
        )
        outcome = self._build(batch_size, failed)
        reversed_failures = tuple(reversed(outcome.failures))
        with pytest.raises(ShapeError):
            dataclasses.replace(outcome, failures=reversed_failures)

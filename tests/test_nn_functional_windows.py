"""Strided im2col/col2im, workspace reuse, and the vectorised sigmoid.

The unfold/fold pair must stay an exact adjoint pair across every
stride/padding combination the extractor can see (including the paper's
1x2 stride), because ``col2im`` *is* the convolution input gradient.
"""

import threading

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn import functional as F

# (kernel, stride, pad) grid: the paper's 3x3 @ 1x2 plus asymmetric
# strides/pads, no-pad, and the disjoint-window col2im fast path.
GEOMETRIES = [
    ((3, 3), (1, 2), (1, 1)),  # the paper's extractor blocks
    ((3, 3), (1, 1), (1, 1)),
    ((3, 3), (2, 1), (0, 1)),
    ((2, 3), (1, 2), (1, 0)),
    ((1, 2), (1, 2), (0, 1)),
    ((3, 1), (2, 2), (1, 0)),
    ((2, 2), (2, 2), (0, 0)),  # disjoint windows: strided-view scatter
    ((2, 2), (3, 3), (1, 1)),  # stride > kernel, padded
    ((1, 1), (1, 1), (0, 0)),
]


def _im2col_reference(x, kernel, stride, pad):
    """The historical kh*kw slice-copy implementation, kept as oracle."""
    kh, kw = kernel
    sh, sw = stride
    ph, pw = pad
    batch, channels, height, width = x.shape
    out_h = F.conv_output_size(height, kh, sh, ph)
    out_w = F.conv_output_size(width, kw, sw, pw)
    padded = F.pad2d(x, ph, pw)
    cols = np.empty((batch, channels, kh, kw, out_h, out_w), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j, :, :] = padded[
                :, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw
            ]
    return cols.reshape(batch, channels * kh * kw, out_h * out_w)


@pytest.mark.parametrize("kernel,stride,pad", GEOMETRIES)
class TestStridedIm2col:
    def test_matches_loop_reference(self, kernel, stride, pad, rng):
        x = rng.normal(size=(3, 2, 7, 10))
        np.testing.assert_array_equal(
            F.im2col(x, kernel, stride, pad),
            _im2col_reference(x, kernel, stride, pad),
        )

    def test_adjoint_identity(self, kernel, stride, pad, rng):
        """<im2col(x), c> == <x, col2im(c)> — the defining adjoint pair."""
        shape = (2, 3, 6, 9)
        x = rng.normal(size=shape)
        cols = F.im2col(x, kernel, stride, pad)
        c = rng.normal(size=cols.shape)
        lhs = float(np.vdot(cols, c))
        rhs = float(np.vdot(x, F.col2im(c, shape, kernel, stride, pad)))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)

    def test_roundtrip_counts_window_coverage(self, kernel, stride, pad):
        """col2im(im2col(ones)) counts how many windows cover each cell."""
        shape = (1, 1, 6, 9)
        ones = np.ones(shape)
        cols = F.im2col(ones, kernel, stride, pad)
        coverage = F.col2im(cols, shape, kernel, stride, pad)
        assert coverage.shape == shape
        # Every count is a non-negative integer bounded by the kernel area.
        assert np.all(coverage == np.round(coverage))
        assert coverage.max() <= kernel[0] * kernel[1]


class TestWorkspaceReuse:
    def test_reuse_values_match_fresh(self, rng):
        x = rng.normal(size=(2, 1, 6, 31))
        fresh = F.im2col(x, (3, 3), (1, 2), (1, 1))
        reused = F.im2col(x, (3, 3), (1, 2), (1, 1), reuse=True)
        np.testing.assert_array_equal(fresh, reused)

    def test_reuse_returns_same_buffer(self, rng):
        F.clear_workspaces()
        x = rng.normal(size=(2, 1, 6, 31))
        a = F.im2col(x, (3, 3), (1, 2), (1, 1), reuse=True)
        y = rng.normal(size=(2, 1, 6, 31))
        b = F.im2col(y, (3, 3), (1, 2), (1, 1), reuse=True)
        # Same workspace buffer: the second call overwrote the first
        # result (the documented aliasing contract of reuse=True)...
        assert np.shares_memory(a, b)
        # ...and the overwritten contents are the second call's columns.
        np.testing.assert_array_equal(b, F.im2col(y, (3, 3), (1, 2), (1, 1)))

    def test_padding_border_stays_zero_across_reuses(self, rng):
        F.clear_workspaces()
        for trial in range(3):
            x = rng.normal(size=(1, 1, 4, 4)) + trial
            got = F.im2col(x, (3, 3), (1, 1), (1, 1), reuse=True)
            np.testing.assert_array_equal(got, _im2col_reference(x, (3, 3), (1, 1), (1, 1)))

    def test_distinct_shapes_do_not_collide(self, rng):
        F.clear_workspaces()
        x = rng.normal(size=(2, 1, 6, 31))
        y = rng.normal(size=(2, 1, 6, 16))
        a = F.im2col(x, (3, 3), (1, 2), (1, 1), reuse=True)
        b = F.im2col(y, (3, 3), (1, 2), (1, 1), reuse=True)
        assert not np.shares_memory(a, b)
        np.testing.assert_array_equal(a, _im2col_reference(x, (3, 3), (1, 2), (1, 1)))

    def test_float32_workspace_keeps_dtype(self, rng):
        x = rng.normal(size=(2, 1, 6, 31)).astype(np.float32)
        out = F.im2col(x, (3, 3), (1, 2), (1, 1), reuse=True)
        assert out.dtype == np.float32


class TestWorkspaceLifecycle:
    """A workspace keeps its padded buffer, window view and columns."""

    GEOMETRY = ((3, 3), (1, 2), (1, 1))

    def _key(self, x):
        kernel, stride, pad = self.GEOMETRY
        return ("im2col", x.shape, kernel, stride, pad, x.dtype)

    def test_window_view_cached_beside_padded_buffer(self, rng):
        F.clear_workspaces()
        x = rng.normal(size=(1, 2, 6, 20))
        F.im2col(x, *self.GEOMETRY, reuse=True)
        ws = F._WORKSPACES.pools[self._key(x)]
        assert set(ws) == {"padded", "windows", "cols"}
        assert ws["windows"].base is not None
        assert np.shares_memory(ws["windows"], ws["padded"])
        for _ in range(3):  # the cached view reads each new input
            y = rng.normal(size=x.shape)
            np.testing.assert_array_equal(
                F.im2col(y, *self.GEOMETRY, reuse=True),
                _im2col_reference(y, *self.GEOMETRY),
            )

    def test_workspace_created_before_the_view_was_cached(self, rng):
        F.clear_workspaces()
        x = rng.normal(size=(1, 2, 6, 20))
        ws = F._workspace(self._key(x))
        ws["padded"] = np.zeros((1, 2, 8, 22))
        ws["cols"] = np.empty((1, 2, 3, 3, 6, 10))
        got = F.im2col(x, *self.GEOMETRY, reuse=True)
        np.testing.assert_array_equal(got, _im2col_reference(x, *self.GEOMETRY))
        assert np.shares_memory(ws["windows"], ws["padded"])
        assert np.shares_memory(got, ws["cols"])

    def test_lru_eviction_rebuilds_a_whole_workspace(self, rng):
        F.clear_workspaces()
        first = rng.normal(size=(1, 1, 4, 5))
        F.im2col(first, *self.GEOMETRY, reuse=True)
        evicted = F._WORKSPACES.pools[self._key(first)]
        for width in range(6, 6 + F._MAX_WORKSPACES):
            F.im2col(rng.normal(size=(1, 1, 4, width)), *self.GEOMETRY, reuse=True)
        pools = F._WORKSPACES.pools
        assert len(pools) == F._MAX_WORKSPACES
        assert self._key(first) not in pools
        again = rng.normal(size=first.shape)
        got = F.im2col(again, *self.GEOMETRY, reuse=True)
        rebuilt = pools[self._key(first)]
        assert rebuilt is not evicted
        assert not np.shares_memory(rebuilt["windows"], evicted["padded"])
        np.testing.assert_array_equal(got, _im2col_reference(again, *self.GEOMETRY))

    def test_two_threads_keep_their_own_workspaces(self, rng):
        inputs = [rng.normal(size=(2, 1, 6, 31)) for _ in range(2)]
        results: list = [None, None]
        pools: list = [None, None]
        barrier = threading.Barrier(2)

        def worker(index: int) -> None:
            barrier.wait(10)
            for _ in range(20):
                cols = F.im2col(inputs[index], *self.GEOMETRY, reuse=True)
                results[index] = cols.copy()
            pools[index] = F._WORKSPACES.pools[self._key(inputs[index])]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert pools[0] is not pools[1]
        for name in ("padded", "windows", "cols"):
            assert not np.shares_memory(pools[0][name], pools[1][name])
        for x, got in zip(inputs, results):
            np.testing.assert_array_equal(got, _im2col_reference(x, *self.GEOMETRY))

    def test_training_conv_never_aliases_a_workspace(self, rng):
        from repro.nn.layers import Conv2d

        F.clear_workspaces()
        conv = Conv2d(1, 2, (3, 3), (1, 2), (1, 1), rng=rng)
        x = rng.normal(size=(2, 1, 6, 31))
        conv.eval()
        conv(x)  # warm the eval workspace for this shape
        conv.train()
        conv(x)
        _, cols = conv._cache
        conv.eval()
        conv(rng.normal(size=x.shape))  # overwrites the eval workspace
        for ws in F._WORKSPACES.pools.values():
            for buffer in ws.values():
                assert not np.shares_memory(cols, buffer)
        np.testing.assert_array_equal(cols, _im2col_reference(x, *self.GEOMETRY))


class TestSlidingWindows:
    def test_view_matches_slices(self, rng):
        x = rng.normal(size=(2, 3, 6, 8))
        view = F.sliding_windows(x, (2, 3), (2, 1))
        for i in range(2):
            for j in range(3):
                np.testing.assert_array_equal(
                    view[:, :, :, :, i, j],
                    x[:, :, i : i + 2 * view.shape[2] : 2, j : j + view.shape[3]],
                )

    def test_view_is_zero_copy_and_read_only(self, rng):
        x = rng.normal(size=(1, 1, 4, 4))
        view = F.sliding_windows(x, (2, 2), (2, 2))
        assert np.shares_memory(view, x)
        with pytest.raises(ValueError):
            view[0, 0, 0, 0, 0, 0] = 1.0

    def test_rejects_bad_rank(self):
        with pytest.raises(ShapeError):
            F.sliding_windows(np.zeros((3, 4)), (2, 2), (1, 1))


class TestVectorisedSigmoid:
    def test_matches_closed_form(self, rng):
        x = rng.normal(0.0, 3.0, size=(5, 7))
        np.testing.assert_allclose(F.sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-12)

    def test_extreme_stability(self):
        with np.errstate(over="raise"):
            out = F.sigmoid(np.array([-1000.0, -50.0, 0.0, 50.0, 1000.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[-1] == 1.0
        assert out[2] == 0.5

    def test_preserves_float32(self):
        out = F.sigmoid(np.linspace(-10, 10, 11, dtype=np.float32))
        assert out.dtype == np.float32
        assert np.all((out >= 0.0) & (out <= 1.0))

    def test_integer_input_promotes_to_float64(self):
        out = F.sigmoid(np.array([-3, 0, 3]))
        assert out.dtype == np.float64
        assert out[1] == 0.5

    def test_float32_float64_agree(self, rng):
        x = rng.normal(0.0, 4.0, size=256)
        np.testing.assert_allclose(
            F.sigmoid(x.astype(np.float32)), F.sigmoid(x), atol=1e-6
        )

"""Stateless tensor operations: padding, im2col/col2im, activations.

The convolution layers in :mod:`repro.nn.layers` lower convolution onto
matrix multiplication through im2col; ``col2im`` scatters gradients back.
Both support asymmetric strides (the paper's extractor uses 1x2).

The unfold is zero-copy until the last step: kernel windows are exposed
as a :func:`numpy.lib.stride_tricks.as_strided` view of the padded
input, and the only data movement is one vectorised gather into the
column buffer (the historical implementation walked ``kh * kw`` Python
slice-assignments instead).  Callers on the inference hot path can opt
into reusable preallocated workspaces (``reuse=True``) so repeated
forwards at a fixed batch shape stop reallocating the padded and column
buffers on every call.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.errors import ShapeError

#: Upper bound on cached workspaces; keys beyond this evict LRU-first.
#: Each distinct (shape, kernel, stride, pad, dtype) combination owns one
#: padded buffer and one column buffer, so the extractor's six conv
#: layers at one batch shape occupy six slots.
_MAX_WORKSPACES = 16


class _ThreadLocalWorkspaces(threading.local):
    """Per-thread im2col workspace pools.

    ``reuse=True`` hands out *aliased* buffers (the returned columns
    are only valid until the next same-shape call), so the pool must
    never be shared between threads: two concurrent eval forwards at
    the same shape signature would gather into the same column buffer
    mid-gemm.  A ``threading.local`` pool keeps the aliasing contract
    single-threaded while each serving worker keeps its own buffers
    warm; the memory cost is one pool (≤ ``_MAX_WORKSPACES`` slots) per
    thread that runs reuse-mode forwards.
    """

    def __init__(self) -> None:
        self.pools: OrderedDict[tuple, dict[str, np.ndarray]] = OrderedDict()


_WORKSPACES = _ThreadLocalWorkspaces()


def _workspace(key: tuple) -> dict[str, np.ndarray]:
    """The (LRU-bounded) buffer dict for one im2col shape signature."""
    pools = _WORKSPACES.pools
    ws = pools.get(key)
    if ws is None:
        ws = {}
        pools[key] = ws
        if len(pools) > _MAX_WORKSPACES:
            pools.popitem(last=False)
    else:
        pools.move_to_end(key)
    return ws


def clear_workspaces() -> None:
    """Drop the calling thread's im2col workspaces (frees the buffers)."""
    _WORKSPACES.pools.clear()


def pad2d(x: np.ndarray, pad_h: int, pad_w: int) -> np.ndarray:
    """Zero-pad the last two axes of a ``(B, C, H, W)`` tensor."""
    if x.ndim != 4:
        raise ShapeError("pad2d expects (B, C, H, W)")
    if pad_h < 0 or pad_w < 0:
        raise ShapeError("padding must be non-negative")
    if pad_h == 0 and pad_w == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)))


def unpad2d(x: np.ndarray, pad_h: int, pad_w: int) -> np.ndarray:
    """Inverse of :func:`pad2d`."""
    if pad_h == 0 and pad_w == 0:
        return x
    h_stop = -pad_h if pad_h else None
    w_stop = -pad_w if pad_w else None
    return x[:, :, pad_h:h_stop, pad_w:w_stop]


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Output length of a 1-D convolution dimension."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"convolution output collapsed: size={size}, kernel={kernel}, "
            f"stride={stride}, pad={pad}"
        )
    return out


def _window_view(
    padded: np.ndarray,
    kernel: tuple[int, int],
    stride: tuple[int, int],
    out_hw: tuple[int, int],
) -> np.ndarray:
    """``(B, C, kh, kw, out_h, out_w)`` strided window view (no copy)."""
    kh, kw = kernel
    sh, sw = stride
    out_h, out_w = out_hw
    bs, cs, hs, ws = padded.strides
    return as_strided(
        padded,
        shape=(padded.shape[0], padded.shape[1], kh, kw, out_h, out_w),
        strides=(bs, cs, hs, ws, hs * sh, ws * sw),
        writeable=False,
    )


def sliding_windows(
    x: np.ndarray,
    kernel: tuple[int, int],
    stride: tuple[int, int],
) -> np.ndarray:
    """Read-only ``(B, C, out_h, out_w, kh, kw)`` window view of ``x``.

    Zero-copy: the view aliases ``x``, so it is only valid while ``x``
    is alive and unmodified, and lets a reduction run over windows
    without materialising them.
    """
    if x.ndim != 4:
        raise ShapeError("sliding_windows expects (B, C, H, W)")
    kh, kw = kernel
    sh, sw = stride
    out_h = conv_output_size(x.shape[2], kh, sh, 0)
    out_w = conv_output_size(x.shape[3], kw, sw, 0)
    bs, cs, hs, ws = x.strides
    return as_strided(
        x,
        shape=(x.shape[0], x.shape[1], out_h, out_w, kh, kw),
        strides=(bs, cs, hs * sh, ws * sw, hs, ws),
        writeable=False,
    )


def im2col(
    x: np.ndarray,
    kernel: tuple[int, int],
    stride: tuple[int, int],
    pad: tuple[int, int],
    *,
    reuse: bool = False,
) -> np.ndarray:
    """Unfold sliding kernel windows into columns.

    Args:
        x: ``(B, C, H, W)`` input.
        kernel: ``(kh, kw)``.
        stride: ``(sh, sw)``.
        pad: ``(ph, pw)`` symmetric zero padding.
        reuse: draw the padded and column buffers from a shape-keyed
            workspace pool instead of allocating.  The returned array
            then aliases the workspace and is only valid until the next
            ``reuse=True`` call with the same shape signature — safe for
            an inference forward that consumes the columns immediately,
            wrong for a training forward that must retain them for
            backward.

    Returns:
        ``(B, C * kh * kw, out_h * out_w)`` columns.
    """
    if x.ndim != 4:
        raise ShapeError("im2col expects (B, C, H, W)")
    kh, kw = kernel
    sh, sw = stride
    ph, pw = pad
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, kh, sh, ph)
    out_w = conv_output_size(width, kw, sw, pw)

    ws = (
        _workspace(("im2col", x.shape, kernel, stride, pad, x.dtype))
        if reuse
        else None
    )
    if ws is None:
        windows = _window_view(pad2d(x, ph, pw), kernel, stride, (out_h, out_w))
        cols = np.empty(windows.shape, dtype=x.dtype)
    elif ph == 0 and pw == 0:
        windows = _window_view(x, kernel, stride, (out_h, out_w))
        cols = ws.get("cols")
    else:
        padded = ws.get("padded")
        if padded is None:
            # Zero once; only the interior is rewritten afterwards, so
            # the border stays zero across reuses.
            padded = ws["padded"] = np.zeros(
                (batch, channels, height + 2 * ph, width + 2 * pw), dtype=x.dtype
            )
        padded[:, :, ph : ph + height, pw : pw + width] = x
        # The window view of a workspace's own padded buffer never
        # changes, so it is built once and kept beside the buffer.
        windows = ws.get("windows")
        if windows is None:
            windows = ws["windows"] = _window_view(
                padded, kernel, stride, (out_h, out_w)
            )
        cols = ws.get("cols")
    if cols is None:
        cols = ws["cols"] = np.empty(windows.shape, dtype=x.dtype)
    cols[...] = windows  # the single gather copy
    return cols.reshape(batch, channels * kh * kw, out_h * out_w)


def col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel: tuple[int, int],
    stride: tuple[int, int],
    pad: tuple[int, int],
) -> np.ndarray:
    """Scatter-add columns back onto the (padded) input grid.

    The adjoint of :func:`im2col`; overlapping windows accumulate,
    which is exactly the gradient of the unfold operation.  When the
    stride covers the kernel (windows disjoint) the scatter is one
    strided-view assignment; overlapping windows alias each other in
    the view, so they keep the ``kh * kw`` slice-accumulate (a
    vectorised ``+=`` per kernel tap, never per element).
    """
    kh, kw = kernel
    sh, sw = stride
    ph, pw = pad
    batch, channels, height, width = input_shape
    out_h = conv_output_size(height, kh, sh, ph)
    out_w = conv_output_size(width, kw, sw, pw)
    expected = (batch, channels * kh * kw, out_h * out_w)
    if cols.shape != expected:
        raise ShapeError(f"col2im expected {expected}, got {cols.shape}")

    cols = cols.reshape(batch, channels, kh, kw, out_h, out_w)
    padded = np.zeros(
        (batch, channels, height + 2 * ph, width + 2 * pw), dtype=cols.dtype
    )
    if sh >= kh and sw >= kw:
        # Disjoint windows: every padded element is written at most
        # once, so a plain strided-view assignment is the full scatter.
        bs, cs, hs, ws = padded.strides
        view = as_strided(
            padded,
            shape=cols.shape,
            strides=(bs, cs, hs, ws, hs * sh, ws * sw),
        )
        view[...] = cols
    else:
        for i in range(kh):
            i_end = i + sh * out_h
            for j in range(kw):
                j_end = j + sw * out_w
                padded[:, :, i:i_end:sh, j:j_end:sw] += cols[:, :, i, j, :, :]
    return unpad2d(padded, ph, pw)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray, grad: np.ndarray) -> np.ndarray:
    return grad * (x > 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable sigmoid, single vectorised pass.

    ``exp`` only ever sees ``-|x|`` (never overflows); both branches of
    the stable piecewise form share that one exponential through
    ``np.where``, with no boolean fancy indexing.  Floating inputs keep
    their dtype (the float32 inference path relies on this); anything
    else is computed in float64.
    """
    x = np.asarray(x)
    if x.dtype not in (np.float32, np.float64):
        x = x.astype(np.float64)
    z = np.exp(np.where(x >= 0.0, -x, x))
    return np.where(x >= 0.0, x.dtype.type(1.0), z) / (1.0 + z)


def sigmoid_grad(out: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Gradient given the *output* of the sigmoid."""
    return grad * out * (1.0 - out)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift stabilisation."""
    if logits.ndim != 2:
        raise ShapeError("softmax expects (B, K) logits")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    if logits.ndim != 2:
        raise ShapeError("log_softmax expects (B, K) logits")
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

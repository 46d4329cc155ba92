"""The two-branch CNN biometric extractor (Fig. 8).

Two convolutional branches process the positive- and negative-direction
gradient planes separately (the paper's Eq. 6 argues the two directions
carry *different* biometric parameters, ``c1`` vs ``c2``).  Each branch
stacks three Conv(3x3, stride 1x2) + BatchNorm + ReLU blocks; the
flattened branch outputs are concatenated, projected by a fully
connected layer, and squashed by a sigmoid into the MandiblePrint
vector (512-d by default).  A final linear head maps the embedding to
person logits for the VSP-side training.

Serving runs :class:`FrozenExtractor`: the trained model's arrays,
snapshotted once in the serving compute dtype, and one flat forward
over them with no module walk.
"""

from __future__ import annotations

import numpy as np

from repro.config import ExtractorConfig
from repro.errors import ConfigError, ModelError, ShapeError
from repro.nn import functional as F
from repro.nn.functional import conv_output_size
from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    Linear,
    Module,
    ReLU,
    Sequential,
    Sigmoid,
)
from repro.types import NUM_AXES

#: Every conv block's geometry (Fig. 8): a 3x3 kernel at stride 1x2,
#: zero-padded by half a kernel.
KERNEL_SIZE = (3, 3)
STRIDE = (1, 2)

#: Rows per serving forward pass: a larger batch runs in chunks of this
#: many rows, which bounds the im2col workspace.
FORWARD_CHUNK = 256


def _branch(
    config: ExtractorConfig, rng: np.random.Generator
) -> tuple[Sequential, int]:
    """One convolutional branch and its flattened output size."""
    c1, c2, c3 = config.channels
    kernel, stride = KERNEL_SIZE, STRIDE
    pad = (kernel[0] // 2, kernel[1] // 2)
    layers = Sequential(
        Conv2d(1, c1, kernel, stride, pad, rng=rng),
        BatchNorm2d(c1),
        ReLU(),
        Conv2d(c1, c2, kernel, stride, pad, rng=rng),
        BatchNorm2d(c2),
        ReLU(),
        Conv2d(c2, c3, kernel, stride, pad, rng=rng),
        BatchNorm2d(c3),
        ReLU(),
        Flatten(),
    )
    height = NUM_AXES
    width = config.input_width
    for _ in range(3):
        height = conv_output_size(height, kernel[0], stride[0], pad[0])
        width = conv_output_size(width, kernel[1], stride[1], pad[1])
    return layers, c3 * height * width


def _check_features(x: np.ndarray, config: ExtractorConfig) -> None:
    expected = (2, NUM_AXES, config.input_width)
    if x.ndim != 4 or x.shape[1:] != expected:
        raise ShapeError(
            f"extractor expects (B, {expected[0]}, {expected[1]}, "
            f"{expected[2]}), got {x.shape}"
        )


class TwoBranchExtractor(Module):
    """Fig. 8: positive/negative branches -> concat -> FC -> sigmoid.

    Args:
        config: architecture parameters.
        num_classes: size of the training classification head (number of
            hired people at the VSP); irrelevant at deployment time.
        seed: weight initialisation randomness.
    """

    def __init__(
        self,
        config: ExtractorConfig | None = None,
        num_classes: int = 34,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if num_classes <= 1:
            raise ConfigError("num_classes must be at least 2")
        self.config = config or ExtractorConfig()
        self.num_classes = num_classes
        rng = np.random.default_rng(seed)
        self.branch_pos, flat_pos = _branch(self.config, rng)
        self.branch_neg, flat_neg = _branch(self.config, rng)
        self.embedding_layer = Linear(
            flat_pos + flat_neg, self.config.embedding_dim, rng=rng
        )
        self.embedding_activation = Sigmoid()
        self.head = Linear(self.config.embedding_dim, num_classes, rng=rng)
        self._flat_pos = flat_pos
        self._last_embedding: np.ndarray | None = None

    # ------------------------------------------------------------------

    def embed(self, x: np.ndarray) -> np.ndarray:
        """MandiblePrint vectors ``(B, embedding_dim)`` (no logits).

        Computes in float64 in either mode; the serving forward is
        :class:`FrozenExtractor`.
        """
        x = np.asarray(x, dtype=np.float64)
        _check_features(x, self.config)
        pos = self.branch_pos(x[:, 0:1, :, :])
        neg = self.branch_neg(x[:, 1:2, :, :])
        features = np.concatenate([pos, neg], axis=1)
        return self.embedding_activation(self.embedding_layer(features))

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Person logits ``(B, num_classes)`` for training."""
        embedding = self.embed(x)
        self._last_embedding = embedding if self.training else None
        return self.head(embedding)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._last_embedding is None:
            raise ModelError("backward called before forward")
        grad_emb = self.head.backward(grad)
        grad_emb = self.embedding_activation.backward(grad_emb)
        grad_features = self.embedding_layer.backward(grad_emb)
        grad_pos = grad_features[:, : self._flat_pos]
        grad_neg = grad_features[:, self._flat_pos :]
        gp = self.branch_pos.backward(grad_pos)
        gn = self.branch_neg.backward(grad_neg)
        self._last_embedding = None
        return np.concatenate([gp, gn], axis=1)

    # ------------------------------------------------------------------

    def storage_nbytes(self) -> int:
        """On-device model size in bytes (float32), Section VII-E."""
        return self.num_parameters() * 4


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _freeze_branch(
    branch: Sequential, config: ExtractorConfig, dtype: np.dtype
) -> tuple[tuple, ...]:
    """Per conv block: geometry, output shape and read-only arrays."""
    height, width = NUM_AXES, config.input_width
    convs = [layer for layer in branch.layers if isinstance(layer, Conv2d)]
    norms = [layer for layer in branch.layers if isinstance(layer, BatchNorm2d)]
    blocks = []
    for conv, norm in zip(convs, norms):
        height = conv_output_size(
            height, conv.kernel_size[0], conv.stride[0], conv.padding[0]
        )
        width = conv_output_size(
            width, conv.kernel_size[1], conv.stride[1], conv.padding[1]
        )
        scale, shift = norm.folded_affine()
        weight = conv.weight.data.reshape(conv.out_channels, -1)
        blocks.append((
            (conv.kernel_size, conv.stride, conv.padding),
            (conv.out_channels, height, width),
            _frozen(weight.astype(dtype)),
            _frozen(conv.bias.data.astype(dtype)[None, :, None, None]),
            _frozen(scale.astype(dtype)[None, :, None, None]),
            _frozen(shift.astype(dtype)[None, :, None, None]),
        ))
    return tuple(blocks)


class FrozenExtractor:
    """The served MandiblePrint forward: one model snapshot, one dtype.

    Built once from a trained :class:`TwoBranchExtractor` (in either
    mode; BatchNorm contributes its running statistics), it copies the
    parameters into read-only arrays in the compute dtype: per conv
    block the ``(F, C·kh·kw)`` weight matrix, the bias and BatchNorm's
    folded ``scale``/``shift``
    (:meth:`~repro.nn.layers.BatchNorm2d.folded_affine`), then the
    transposed FC weight and bias.  The forward runs the eval forward's
    operations in its order — conv gemm plus bias, ``* scale +
    shift``, ReLU; flatten, concatenate, FC, sigmoid — so in float64
    it is bitwise equal to ``model.embed`` at every batch size.

    This is the inference compute-dtype policy (DESIGN.md §4d):
    ``float64`` is bit-compatible with training, ``float32`` is the
    opt-in fast path.  The snapshot does not follow later edits of the
    model; build a new one after training or ``load_state``.  Calls
    are safe from concurrent threads (the im2col workspaces are
    per-thread).
    """

    __slots__ = ("dtype", "config", "_branches", "_fc")

    def __init__(
        self, model: TwoBranchExtractor, dtype: np.dtype | str = np.float64
    ) -> None:
        dtype = np.dtype(dtype)
        if dtype not in (np.float32, np.float64):
            raise ConfigError("compute dtype must be float32 or float64")
        self.dtype = dtype
        self.config = model.config
        branches = (model.branch_pos, model.branch_neg)
        self._branches = tuple(
            _freeze_branch(branch, self.config, dtype) for branch in branches
        )
        fc = model.embedding_layer
        self._fc = (
            _frozen(fc.weight.data.astype(dtype)).T,
            _frozen(fc.bias.data.astype(dtype)),
        )

    def __call__(self, features: np.ndarray) -> np.ndarray:
        """MandiblePrint vectors ``(B, embedding_dim)`` in :attr:`dtype`.

        ``features`` is ``(B, 2, 6, input_width)``; the forward
        runs in chunks of :data:`FORWARD_CHUNK` rows.
        """
        x = np.asarray(features, dtype=self.dtype)
        _check_features(x, self.config)
        if not len(x):
            return np.empty((0, self.config.embedding_dim), dtype=self.dtype)
        return np.concatenate(
            [
                self._forward(x[start : start + FORWARD_CHUNK])
                for start in range(0, len(x), FORWARD_CHUNK)
            ],
            axis=0,
        )

    def _forward(self, x: np.ndarray) -> np.ndarray:
        flat = []
        for channel, blocks in enumerate(self._branches):
            h = x[:, channel : channel + 1]
            for geometry, out_shape, weight, bias, scale, shift in blocks:
                cols = F.im2col(h, *geometry, reuse=True)
                h = (weight @ cols).reshape(len(x), *out_shape)
                h += bias
                h *= scale
                h += shift
                np.maximum(h, 0.0, out=h)
            flat.append(h.reshape(len(x), -1))
        weight_t, bias = self._fc
        return F.sigmoid(np.concatenate(flat, axis=1) @ weight_t + bias)

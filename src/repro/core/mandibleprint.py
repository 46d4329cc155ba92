"""MandiblePrint extraction: gradient arrays to embedding vectors."""

from __future__ import annotations

import numpy as np

from repro.core.extractor import TwoBranchExtractor
from repro.errors import ShapeError


def extract_embeddings(
    model: TwoBranchExtractor,
    feature_arrays: np.ndarray,
    batch_size: int = 256,
    dtype: np.dtype | str = np.float64,
) -> np.ndarray:
    """MandiblePrint vectors for a batch of gradient arrays.

    The forward passes run in eval mode (frozen BatchNorm statistics, no
    activation caching); the model's previous training/eval state is
    restored afterwards, so calling this mid-training — e.g. for a
    validation EER — does not silently freeze BatchNorm updates for the
    rest of the run.

    Args:
        model: a trained extractor.
        feature_arrays: ``(B, 2, 6, W)``.
        batch_size: forward-pass chunking.
        dtype: compute dtype of the forward (the eval-mode extractor
            follows its input dtype); float64 by default, float32 for
            the opt-in inference fast path.

    Returns:
        ``(B, embedding_dim)`` embeddings in ``(0, 1)`` (sigmoid
        outputs), in the compute dtype.
    """
    dtype = np.dtype(dtype)
    if dtype not in (np.float32, np.float64):
        raise ShapeError("dtype must be float32 or float64")
    feature_arrays = np.asarray(feature_arrays, dtype=dtype)
    if feature_arrays.ndim != 4:
        raise ShapeError("feature_arrays must be (B, 2, 6, W)")
    if batch_size <= 0:
        raise ShapeError("batch_size must be positive")
    # An eval-mode model (the serving steady state) skips the walk over
    # its module tree; eval() on it would change nothing.
    was_training = model.training
    if was_training:
        model.eval()
    try:
        chunks = []
        for start in range(0, feature_arrays.shape[0], batch_size):
            chunks.append(model.embed(feature_arrays[start : start + batch_size]))
    finally:
        if was_training:
            model.train()
    if not chunks:
        return np.empty((0, model.config.embedding_dim))
    return np.concatenate(chunks, axis=0)

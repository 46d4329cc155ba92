"""MandiblePrint extraction: gradient arrays to embedding vectors."""

from __future__ import annotations

import numpy as np

from repro.core.extractor import FrozenExtractor, TwoBranchExtractor


def extract_embeddings(
    model: TwoBranchExtractor,
    feature_arrays: np.ndarray,
    dtype: np.dtype | str = np.float64,
) -> np.ndarray:
    """MandiblePrint vectors for a batch of gradient arrays.

    Builds one :class:`~repro.core.extractor.FrozenExtractor` from the
    model's current arrays and runs it, so the model's training/eval
    mode is neither read nor changed: calling this mid-training — e.g.
    for a validation EER — uses the running BatchNorm statistics and
    leaves training as it was.

    Args:
        model: a trained extractor.
        feature_arrays: ``(B, 2, 6, W)``.
        dtype: compute dtype of the forward; float64 by default,
            float32 for the opt-in inference fast path.

    Returns:
        ``(B, embedding_dim)`` embeddings in ``(0, 1)`` (sigmoid
        outputs), in the compute dtype.
    """
    return FrozenExtractor(model, dtype)(feature_arrays)

"""Loss functions.

``CrossEntropyLoss`` combines log-softmax and negative log-likelihood,
returning the mean loss and exposing the logits gradient -- the training
entry point of the paper's Section V-C.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn import functional as F


class CrossEntropyLoss:
    """Softmax cross-entropy over integer class labels."""

    def __init__(self) -> None:
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> float:
        logits = np.asarray(logits, dtype=np.float64)
        labels = np.asarray(labels)
        if logits.ndim != 2:
            raise ShapeError("logits must be (B, K)")
        if labels.shape != (logits.shape[0],):
            raise ShapeError("labels must be (B,) integers")
        if labels.min() < 0 or labels.max() >= logits.shape[1]:
            raise ShapeError("label out of range")
        log_probs = F.log_softmax(logits)
        batch = logits.shape[0]
        loss = -log_probs[np.arange(batch), labels].mean()
        self._cache = (logits, labels)
        return float(loss)

    def backward(self) -> np.ndarray:
        """Gradient of the mean loss w.r.t. the logits, ``(B, K)``."""
        if self._cache is None:
            raise ShapeError("backward called before forward")
        logits, labels = self._cache
        batch = logits.shape[0]
        grad = F.softmax(logits)
        grad[np.arange(batch), labels] -= 1.0
        self._cache = None
        return grad / batch

    def __call__(self, logits: np.ndarray, labels: np.ndarray) -> float:
        return self.forward(logits, labels)

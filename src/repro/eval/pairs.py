"""Genuine / impostor pair distances.

The paper's Eq. 9 compares every same-person pair (genuine) and Eq. 10
every cross-person pair (impostor).  Full enumeration is quadratic; for
large campaigns :func:`genuine_impostor_distances` can subsample the
impostor side deterministically.
"""

from __future__ import annotations

import numpy as np

from repro.core.similarity import pairwise_cosine_distance
from repro.errors import ShapeError


def genuine_impostor_distances(
    embeddings: np.ndarray,
    labels: np.ndarray,
    max_impostor_pairs: int | None = 200_000,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """All genuine distances and (possibly subsampled) impostor distances.

    Args:
        embeddings: ``(B, d)`` MandiblePrint (or cancelable) vectors.
        labels: ``(B,)`` person indices.
        max_impostor_pairs: cap on impostor pairs; ``None`` = enumerate
            everything.  Genuine pairs are never subsampled.
        seed: subsampling determinism.

    Returns:
        ``(genuine, impostor)`` distance arrays.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    if embeddings.ndim != 2:
        raise ShapeError("embeddings must be (B, d)")
    if labels.shape != (embeddings.shape[0],):
        raise ShapeError("labels must be (B,)")
    if embeddings.shape[0] < 2:
        raise ShapeError("need at least two embeddings")

    distances = pairwise_cosine_distance(embeddings, embeddings)
    upper_i, upper_j = np.triu_indices(embeddings.shape[0], k=1)
    same = labels[upper_i] == labels[upper_j]
    genuine = distances[upper_i[same], upper_j[same]]
    impostor = distances[upper_i[~same], upper_j[~same]]

    if genuine.size == 0:
        raise ShapeError("no genuine pairs: every label is unique")
    if impostor.size == 0:
        raise ShapeError("no impostor pairs: only one person present")

    if max_impostor_pairs is not None and impostor.size > max_impostor_pairs:
        rng = np.random.default_rng(seed)
        take = rng.choice(impostor.size, size=max_impostor_pairs, replace=False)
        impostor = impostor[take]
    return genuine, impostor

"""Score normalisation: Z-norm, T-norm and their symmetric S-norm.

Classic speaker-verification techniques that transfer directly to
MandiblePrint verification: raw cosine distances have per-template and
per-probe offsets (some templates are simply 'hub-ier' than others);
normalising against a cohort of impostor scores removes those offsets
and tightens the genuine/impostor separation.

* **Z-norm** (zero normalisation): per enrolled template, compute the
  distance distribution against a cohort of impostor probes *at
  enrollment time*; verification scores are standardised by those
  statistics.
* **T-norm** (test normalisation): per probe, compute distances against
  a cohort of impostor templates *at verification time*; the probe's
  score is standardised by those statistics.

Both need only data the verification service provider already has (the
hired-people corpus), so they fit the paper's deployment story without
new assumptions.  After normalisation, scores are standardised
distances: lower still means more alike, and thresholds are in sigma
units rather than raw cosine.
"""

from __future__ import annotations

import numpy as np

from repro.core.similarity import pairwise_cosine_distance
from repro.errors import ConfigError, ShapeError


def normalized_pair_distances(
    embeddings: np.ndarray,
    labels: np.ndarray,
    cohort: np.ndarray,
    method: str = "s-norm",
) -> tuple[np.ndarray, np.ndarray]:
    """Genuine/impostor pair distances after score normalisation.

    ``"z-norm"`` standardises each pair distance by the *second*
    element's cohort statistics, ``"t-norm"`` by the first element's,
    and ``"s-norm"`` averages the two (the symmetric variant commonly
    used in modern speaker verification).

    Returns:
        ``(genuine, impostor)`` arrays of normalised distances.
    """
    if method not in ("z-norm", "t-norm", "s-norm"):
        raise ConfigError("method must be 'z-norm', 't-norm' or 's-norm'")
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    if embeddings.ndim != 2 or labels.shape != (embeddings.shape[0],):
        raise ShapeError("embeddings (B, d) and labels (B,) required")
    cohort = np.asarray(cohort, dtype=np.float64)

    distances = pairwise_cosine_distance(embeddings, embeddings)
    cohort_d = pairwise_cosine_distance(embeddings, cohort)
    means = cohort_d.mean(axis=1)
    stds = np.maximum(cohort_d.std(axis=1), 1e-9)

    z_scores = (distances - means[None, :]) / stds[None, :]
    t_scores = (distances - means[:, None]) / stds[:, None]
    if method == "z-norm":
        normalized = z_scores
    elif method == "t-norm":
        normalized = t_scores
    else:
        normalized = 0.5 * (z_scores + t_scores)

    upper_i, upper_j = np.triu_indices(embeddings.shape[0], k=1)
    same = labels[upper_i] == labels[upper_j]
    genuine = normalized[upper_i[same], upper_j[same]]
    impostor = normalized[upper_i[~same], upper_j[~same]]
    if genuine.size == 0 or impostor.size == 0:
        raise ShapeError("need both genuine and impostor pairs")
    return genuine, impostor

"""Similarity-distribution summaries (the pies of Figs. 12-14).

Figs. 12-14 show, for each condition, the fraction of probe-template
distances falling in numeric intervals, plus whether everything stays
under the acceptance threshold.  These helpers compute exactly those
numbers.
"""

from __future__ import annotations

import numpy as np

from repro.core.similarity import pairwise_cosine_distance
from repro.errors import ShapeError


def distance_distribution(
    distances: np.ndarray,
    bin_edges: np.ndarray | None = None,
) -> dict[str, float]:
    """Fraction of distances per interval, keyed ``"[lo, hi)"``.

    Default bins cover [0, 0.7] in 0.1 steps plus a final catch-all,
    mirroring the granularity of the paper's pie charts.
    """
    distances = np.asarray(distances, dtype=np.float64).reshape(-1)
    if distances.size == 0:
        raise ShapeError("need at least one distance")
    if bin_edges is None:
        bin_edges = np.arange(0.0, 0.8, 0.1)
    bin_edges = np.asarray(bin_edges, dtype=np.float64)
    if bin_edges.size < 2:
        raise ShapeError("need at least two bin edges")
    out: dict[str, float] = {}
    for lo, hi in zip(bin_edges[:-1], bin_edges[1:]):
        frac = float(np.mean((distances >= lo) & (distances < hi)))
        out[f"[{lo:.1f}, {hi:.1f})"] = frac
    out[f">={bin_edges[-1]:.1f}"] = float(np.mean(distances >= bin_edges[-1]))
    return out


def genuine_distances_to_templates(
    probe_embeddings: np.ndarray,
    templates: np.ndarray,
    probe_labels: np.ndarray,
) -> np.ndarray:
    """Each probe's distance to its own template (Fig. 12-14 inputs)."""
    probe_embeddings = np.asarray(probe_embeddings, dtype=np.float64)
    templates = np.asarray(templates, dtype=np.float64)
    probe_labels = np.asarray(probe_labels)
    distances = pairwise_cosine_distance(probe_embeddings, templates)
    return distances[np.arange(distances.shape[0]), probe_labels]
